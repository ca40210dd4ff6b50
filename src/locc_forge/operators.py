"""Hermitian operator algebra: tensor products, trace pairings, spans, dual bases.

Operators are plain ``numpy.ndarray`` matrices (complex128).  The functions
here are the only place the library touches raw linear algebra on operator
space; everything above works with the :class:`OperatorBasis` abstraction or
with coefficient vectors.
"""

from __future__ import annotations

from functools import cached_property
from math import sqrt
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateBasisError, DimensionMismatchError
from .tolerances import (
    GRAM_CONDITION_LIMIT,
    HERMITICITY_TOL,
    PSD_TOL,
    RANK_FACTOR,
    rank_threshold,
)

_DECISION_MARGIN = 1e-3
"""Relative margin by which a bound on a singular value must clear the rank
cutoff in :func:`independent_subset` before it decides without an SVD."""


def as_hermitian(entries, herm_tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate a finite square matrix as Hermitian and return it as complex128.

    Asymmetry is measured in max norm after scaling by the largest entry
    magnitude, so the check is insensitive to overall operator scale.
    """
    a = np.ascontiguousarray(entries, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("operator dimension must be at least 1")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    scale = float(np.abs(a).max())
    if scale > 0.0 and float(np.abs(a - a.conj().T).max()) > herm_tol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return a


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


def frobenius(x: np.ndarray, y: np.ndarray) -> float:
    """Trace pairing Tr[x^dag y], returned as a real number.

    Raises if the pairing of the (nominally Hermitian) inputs has a
    non-negligible imaginary part.
    """
    if x.shape != y.shape:
        raise DimensionMismatchError(f"operand shapes differ: {x.shape} vs {y.shape}")
    value = np.vdot(x, y)
    scale = max(1.0, float(np.linalg.norm(x)) * float(np.linalg.norm(y)))
    if abs(value.imag) > 1e-10 * scale:
        raise ValueError(f"trace pairing has imaginary part {value.imag:.3e}")
    return float(value.real)


def independent_subset(ops: Sequence[np.ndarray],
                       rank_factor: float = RANK_FACTOR) -> list[int]:
    """Indices of a maximal linearly independent subset, greedy in input order.

    Candidate i is kept iff every singular value of the vectorized stack of
    the kept operators and operator i exceeds the cutoff
    ``max(rows, cols) * sigma_max * rank_factor``.  A list of zero operators
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
    vecs = np.stack([np.asarray(op, dtype=np.complex128).ravel() for op in ops])
    peak = float(np.abs(vecs).max())
    if not np.isfinite(peak):
        raise ValueError("operators have non-finite entries")
    if peak == 0.0:
        return []
    vecs = vecs / peak      # the rule is scale-free; this keeps norms in range
    n_cols = vecs.shape[1]
    norms = np.sqrt(np.einsum("ij,ij->i", vecs.conj(), vecs).real)
    max_rank = min(len(ops), n_cols)
    q = np.zeros((max_rank, n_cols), dtype=np.complex128)
    q_conj = np.zeros_like(q)
    r = np.zeros((max_rank, max_rank), dtype=np.complex128)
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

        low = rank_threshold(shape, max(row_max, v_norm), rank_factor)
        if b <= low * (1.0 - _DECISION_MARGIN):
            continue
        a_r_inv = a @ r_inv[:k, :k]
        m_inv_frob2 = r_inv_frob2 + (float(np.vdot(a_r_inv, a_r_inv).real) + 1.0) / b / b
        high = rank_threshold(shape, sqrt(row_frob2 + v_norm * v_norm), rank_factor)
        if not 1.0 / sqrt(m_inv_frob2) > high * (1.0 + _DECISION_MARGIN):
            small = np.zeros((k + 1, k + 1), dtype=np.complex128)
            small[:k, :k] = r[:k, :k]
            small[k, :k] = a
            small[k, k] = b
            sigma = np.linalg.svd(small, compute_uv=False)
            if not sigma[-1] > rank_threshold(shape, float(sigma[0]), rank_factor):
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


class OperatorBasis:
    """An ordered, linearly independent set of Hermitian operators on one space.

    Caches the vectorized elements, the Gram matrix of trace pairings and its
    condition check, and solves Gram systems, which is all the dual basis
    and coordinate maps within the span need.

    Parameters
    ----------
    elements : iterable of ndarray
        Hermitian operators, all of the same dimension.
    check : bool
        Validate hermiticity and independence (on by default; internal
        constructions that are independent by design may skip it).
    """

    def __init__(self, elements: Iterable[np.ndarray], check: bool = True,
                 rank_factor: float = RANK_FACTOR):
        elems = [np.ascontiguousarray(e, dtype=np.complex128) for e in elements]
        if not elems:
            raise ValueError("a basis needs at least one element")
        if check:
            elems = [as_hermitian(e) for e in elems]
        dim = elems[0].shape[0]
        if any(e.shape != (dim, dim) for e in elems):
            raise DimensionMismatchError("basis elements have mixed dimensions")
        self.elements: tuple[np.ndarray, ...] = tuple(elems)
        self.space_dim: int = dim
        if check:
            sigma = np.linalg.svd(self.gram, compute_uv=False)
            cutoff = rank_threshold(self.gram.shape, float(sigma[0]), rank_factor)
            if sigma[-1] <= cutoff:
                raise DegenerateBasisError(
                    "elements are linearly dependent within rank tolerance")

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def vectors(self) -> np.ndarray:
        """Elements as the rows of one (n, d*d) array."""
        return np.stack(self.elements).reshape(len(self), -1)

    @cached_property
    def gram(self) -> np.ndarray:
        """Real symmetric matrix of pairwise trace pairings."""
        v = self.vectors
        return np.ascontiguousarray((v.conj() @ v.T).real)

    @cached_property
    def _gram_condition(self) -> float:
        sigma = np.linalg.svd(self.gram, compute_uv=False)
        return float(sigma[0] / sigma[-1]) if sigma[-1] > 0 else float("inf")

    def pairings(self, ops: np.ndarray) -> np.ndarray:
        """Real matrix of trace pairings Tr[e_i^dag o_n] with a (m, d, d) stack.

        Raises if a pairing of the (nominally Hermitian) operators has a
        non-negligible imaginary part.
        """
        flat = np.asarray(ops, dtype=np.complex128).reshape(len(ops), -1)
        t = self.vectors.conj() @ flat.T
        scale = max(1.0, float(np.abs(t).max()))
        if float(np.abs(t.imag).max()) > 1e-10 * scale:
            raise ValueError("trace pairings have non-negligible imaginary parts")
        return np.ascontiguousarray(t.real)

    def solve_gram(self, rhs: np.ndarray) -> np.ndarray:
        """``G^-1 rhs`` for the Gram matrix G, refused when G is worse
        conditioned than ``GRAM_CONDITION_LIMIT`` (checked once).

        Row k of ``solve_gram(eye)`` holds the coefficients of the dual
        element k, the unique operator in the span with
        Tr[dual_k^dag element_j] = delta_jk.
        """
        if not self._gram_condition <= GRAM_CONDITION_LIMIT:
            raise DegenerateBasisError(
                f"Gram matrix condition number exceeds {GRAM_CONDITION_LIMIT:.0e}")
        return np.linalg.solve(self.gram, rhs)


def is_psd(x: np.ndarray, psd_tol: float = PSD_TOL) -> bool:
    """True iff the smallest eigenvalue is above the scaled negativity floor."""
    eigs = np.linalg.eigvalsh(x)
    floor = psd_tol * max(1.0, float(np.abs(eigs).max()))
    return bool(eigs[0] >= -floor)


def min_eigenvalue(x: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(x)[0])


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
