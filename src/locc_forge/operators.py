"""Hermitian operator algebra: tensor products, span selection, positivity,
embedding and factoring across a party cut.

Operators are plain ``numpy.ndarray`` matrices (complex128).
"""

from __future__ import annotations

from math import sqrt
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError
from .tolerances import (
    HERMITICITY_TOL,
    PSD_TOL,
    rank_threshold,
)

_DECISION_MARGIN = 1e-3
"""Relative margin by which a bound on a singular value must clear the rank
cutoff in :func:`independent_subset` before it decides without an SVD."""


NUMERIC_DEFECTS = ("matrix has non-finite entries", "matrix is not Hermitian within tolerance",
                   "matrix entries are too large for floating point")
"""What :func:`as_hermitian` refuses in a square matrix, in the order it
checks; :func:`hermitian_parts` reports defect k + 1 for entry k."""


def square_matrix(entries) -> np.ndarray:
    """``entries`` as a complex128 array, refused unless a square matrix of
    dimension at least 1."""
    a = np.ascontiguousarray(entries, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("operator dimension must be at least 1")
    return a


def as_hermitian(entries) -> np.ndarray:
    """Validate a finite square matrix as Hermitian and return it as a new
    complex128 array: a copy of a's bytes when a is exactly Hermitian, else
    its Hermitian part (a + a^H) / 2.

    Asymmetry is measured in max norm after scaling by the largest entry
    magnitude, so the check is insensitive to overall operator scale.
    Entries so large that their magnitude or the Hermitian part overflows
    (finite entries above about 9e307) are refused.
    """
    a = square_matrix(entries)
    if not np.isfinite(a).all():
        raise ValueError(NUMERIC_DEFECTS[0])
    with np.errstate(over="ignore", invalid="ignore"):    # overflow is refused below
        scale = float(np.abs(a).max())
        asymmetry = float(np.abs(a - a.conj().T).max())
        if scale > 0.0 and asymmetry > HERMITICITY_TOL * scale:
            raise ValueError(NUMERIC_DEFECTS[1])
        h = (a + a.conj().T) / 2
    if not (np.isfinite(scale) and np.isfinite(h).all()):
        raise ValueError(NUMERIC_DEFECTS[2])
    # (a + a^H) / 2 would turn a -0.0 real part into +0.0
    return a.copy() if asymmetry == 0.0 else h


def hermitian_parts(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`as_hermitian` of each matrix of a complex128 (n, d, d) stack,
    in one pass over the stack: the (n, d, d) stack of what it returns, the
    same bytes, and each matrix's defect, 0 where it returns and k + 1 where
    it refuses with ``NUMERIC_DEFECTS[k]``.  A refused matrix's slot holds
    whatever the arithmetic left."""
    ah = a.conj().transpose(0, 2, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.abs(a).max(axis=(1, 2))
        asymmetry = np.abs(a - ah).max(axis=(1, 2))
        skew = asymmetry > HERMITICITY_TOL * scale     # a zero scale has zero asymmetry
        h = (a + ah) / 2
    in_range = np.isfinite(scale)       # a finite |a_ij| has finite parts
    finite = in_range if in_range.all() else np.isfinite(a).all(axis=(1, 2))
    large = ~(in_range & np.isfinite(h).all(axis=(1, 2)))
    # as_hermitian keeps an exact a's bytes, -0.0 included
    np.copyto(h, a, where=(asymmetry == 0.0)[:, None, None])
    return h, np.where(finite, np.where(skew, 2, 3 * large), 1)


def tensor(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of the factors, in the given order.

    Reduction is a left fold, so nested calls that preserve the overall
    factor order produce bit-identical results.
    """
    if len(factors) == 0:
        raise ValueError("tensor() needs at least one factor")
    out = np.asarray(factors[0], dtype=np.complex128)
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def hermitian_vectors(ops: np.ndarray) -> np.ndarray:
    """Real (n, d^2) vectors of a Hermitian (n, d, d) stack: each diagonal,
    then sqrt(2) times the real and imaginary parts of the upper triangle,
    so that Tr(GH) is the dot product of the vectors of G and H."""
    upper = np.sqrt(2.0) * ops[:, ~np.tri(ops.shape[-1], dtype=bool)]
    return np.concatenate([np.diagonal(ops, axis1=1, axis2=2).real, upper.real, upper.imag],
                          axis=1)


def khatri_rao(tables: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Column-wise Kronecker products of (k_q, n) tables, in order: column j
    is kron(t_1[:, j], t_2[:, j], ...), and a row of ones when there are no
    tables."""
    out = np.ones((1, n))
    for t in tables:
        out = (out[:, None, :] * t[None, :, :]).reshape(-1, n)
    return out


def product_r(tables: Sequence[np.ndarray], n: int) -> np.ndarray:
    """An R factor of the Khatri-Rao product of (k_q, n) tables, a matrix
    with the same Gram, folded one table at a time as
    ``R = qr(khatri_rao([R, t], n), mode="r")`` so that no step holds more
    than n * k_q rows.  One table is its own R; no tables give a row of ones."""
    r = tables[0] if len(tables) else np.ones((1, n))
    for t in tables[1:]:
        r = np.linalg.qr(khatri_rao([r, t], n), mode="r")
    return r


def independent_subset(ops: Sequence[np.ndarray]) -> list[int]:
    """Indices of a maximal linearly independent subset, greedy in input order.

    Candidate i is kept iff every singular value of the vectorized stack of
    the kept operators and operator i exceeds the cutoff
    ``max(rows, cols) * sigma_max * RANK_FACTOR``.  A list of zero operators
    yields an empty index list.

    The stack is never decomposed whole.  The kept vectors are held as
    ``R @ Q``, with orthonormal rows ``Q`` (Gram-Schmidt run twice) and
    lower-triangular ``R``.  A candidate with coefficients ``a`` in ``Q`` and
    residual norm ``b`` extends the stack to one with the singular values of
    ``M = [[R, 0], [a, b]]``.  ``b`` bounds sigma_min(M) from above and
    ``1 / |M^-1|_F`` from below, while the largest row norm and the
    Frobenius norm bound sigma_max; the SVD of ``M`` is taken only when
    these bounds do not clear the cutoff by ``_DECISION_MARGIN``.  An
    operator whose norm is below about 1e-150 of the largest entry has a
    squared norm that underflows, and counts as zero.
    """
    if len(ops) == 0:
        raise ValueError("empty operator list")
    op_shape = np.shape(ops[0])
    if any(np.shape(op) != op_shape for op in ops):
        raise DimensionMismatchError("operators have mixed dimensions")
    vecs = np.stack([np.ravel(op) for op in ops])
    peak = float(np.abs(vecs).max())
    if not np.isfinite(peak):
        raise ValueError("operators have non-finite entries")
    if peak == 0.0:
        return []
    vecs = vecs / peak      # the rule is scale-free; this keeps norms in range
    n_cols = vecs.shape[1]
    norms = np.sqrt(np.einsum("ij,ij->i", vecs.conj(), vecs).real)
    max_rank = min(len(ops), n_cols)
    q = np.zeros((max_rank, n_cols), dtype=vecs.dtype)
    q_conj = np.zeros_like(q)
    r = np.zeros((max_rank, max_rank), dtype=vecs.dtype)
    r_inv = np.zeros_like(r)
    r_inv_frob2 = 0.0       # |R^-1|_F^2
    row_max = 0.0           # largest norm of a kept vector
    row_frob2 = 0.0         # squared Frobenius norm of the kept stack
    chosen: list[int] = []
    for i, v in enumerate(vecs):
        k = len(chosen)
        if k == max_rank:   # more rows than columns: rank below row count
            break
        a = q_conj[:k] @ v
        res = v - a @ q[:k]
        a2 = q_conj[:k] @ res
        res -= a2 @ q[:k]
        a += a2
        b = sqrt(np.vdot(res, res).real)
        v_norm = float(norms[i])
        shape = (k + 1, n_cols)

        low = rank_threshold(shape, max(row_max, v_norm))
        if b <= low * (1.0 - _DECISION_MARGIN):
            continue
        a_r_inv = a @ r_inv[:k, :k]
        m_inv_frob2 = r_inv_frob2 + (float(np.vdot(a_r_inv, a_r_inv).real) + 1.0) / b / b
        high = rank_threshold(shape, sqrt(row_frob2 + v_norm * v_norm))
        if not 1.0 / sqrt(m_inv_frob2) > high * (1.0 + _DECISION_MARGIN):
            small = np.zeros((k + 1, k + 1), dtype=vecs.dtype)
            small[:k, :k] = r[:k, :k]
            small[k, :k] = a
            small[k, k] = b
            sigma = np.linalg.svd(small, compute_uv=False)
            if not sigma[-1] > rank_threshold(shape, float(sigma[0])):
                continue

        q[k] = res / b
        q_conj[k] = q[k].conj()
        r[k, :k] = a
        r[k, k] = b
        r_inv[k, :k] = -a_r_inv / b
        r_inv[k, k] = 1.0 / b
        r_inv_frob2 = m_inv_frob2
        row_max = max(row_max, v_norm)
        row_frob2 += v_norm * v_norm
        chosen.append(i)
    return chosen


def is_psd(x: np.ndarray) -> bool:
    """True iff the smallest eigenvalue is above the scaled negativity floor."""
    eigs = np.linalg.eigvalsh(x)
    floor = PSD_TOL * max(1.0, float(np.abs(eigs).max()))
    return bool(eigs[0] >= -floor)


def embed_at(x: np.ndarray, y: np.ndarray, slot: int,
             dims: tuple[int, ...]) -> np.ndarray:
    """Joint operator acting as ``x`` on party ``slot`` and ``y`` on the rest.

    ``y`` lives on the tensor product of the remaining parties in their
    original order; the result's legs are restored to declaration order.
    """
    from math import prod
    n_parties = len(dims)
    full = np.kron(x, y)
    order = [slot] + [p for p in range(n_parties) if p != slot]
    inverse = list(np.argsort(order))
    shape = [dims[p] for p in order]
    t = full.reshape(shape + shape)
    t = t.transpose(inverse + [n_parties + i for i in inverse])
    total = prod(dims)
    return np.ascontiguousarray(t.reshape(total, total))


def project_factor(op: np.ndarray, abar: np.ndarray, slot: int,
                   dims: tuple[int, ...]) -> tuple[np.ndarray, float]:
    """Best factor X with op ~ X (x) abar, plus the max-norm residual.

    The least-squares optimum is the trace pairing of ``op`` against the
    elementary slot operators tensored with ``abar``, divided by |abar|^2.
    """
    from math import prod
    n_parties = len(dims)
    dp = dims[slot]
    dc = prod(dims) // dp
    t = op.reshape(dims * 2)
    order = [slot] + [p for p in range(n_parties) if p != slot]
    t = t.transpose(order + [n_parties + p for p in order]).reshape(dp, dc, dp, dc)
    norm2 = float(np.vdot(abar, abar).real)
    if norm2 == 0.0:
        raise ValueError("cannot factor against a zero operator")
    x = np.einsum("rusv,uv->rs", t, abar.conj()) / norm2
    residual = float(np.abs(op - embed_at(x, abar, slot, dims)).max())
    return np.ascontiguousarray(x), residual
