"""Independent reference computations used only by the test suite.

These deliberately avoid the library's own code paths: the Kronecker
product is written with explicit loops, extreme rays are enumerated by
facet sign patterns instead of double description, completeness
weights come from an unconstrained least-squares solve, independent
subsets are chosen with one SVD of the whole candidate stack per candidate,
and the constraint matrix is built from dense dual operators.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

import numpy as np
from scipy.linalg import null_space

from locc_forge.errors import (
    DegenerateBasisError,
    DimensionMismatchError,
    InconsistentNodeError,
)
from locc_forge.measurement import complement_span, local_span
from locc_forge.tolerances import (
    DEFAULT_TOL,
    GRAM_CONDITION_LIMIT,
    RANK_FACTOR,
    Tolerances,
    rank_threshold,
)


def hand_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product via index arithmetic."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def nullspace_projector(q: np.ndarray, n_cols: int) -> np.ndarray:
    if q.shape[0] == 0:
        return np.eye(n_cols)
    basis = null_space(q)
    return basis @ basis.T


def projector_of(vectors) -> np.ndarray:
    """Orthogonal projector onto the span of the given vectors."""
    stack = np.stack([np.asarray(v, float) for v in vectors]).T
    qmat, _ = np.linalg.qr(stack)
    return qmat @ qmat.T


def rank_cutoff_nullspace(q: np.ndarray, n_cols: int,
                          rank_factor: float = 1e-11) -> np.ndarray:
    """Nullspace basis under the library-wide rank cutoff.

    The cutoff formula max(rows, cols) * sigma_max * rank_factor is the
    published policy; the oracle shares it on purpose so that only the ray
    *enumeration* differs between the two routes.
    """
    if q.shape[0] == 0:
        return np.eye(n_cols)
    _, sigma, vh = np.linalg.svd(q)
    cutoff = max(q.shape) * float(sigma[0]) * rank_factor
    rank = int(np.sum(sigma > cutoff))
    return vh[rank:].T


def brute_force_rays(q: np.ndarray, feas_tol: float = 1e-9) -> list[np.ndarray]:
    """Extreme rays of {c >= 0 : Q c = 0} by enumerating facet sign patterns.

    Every extreme ray of a pointed k-dimensional cone is pinned by k - 1
    linearly independent active nonnegativity facets, so trying all
    (k - 1)-subsets of coordinates and keeping the feasible kernel
    directions enumerates all rays.  Coordinates that vanish identically
    on the nullspace impose no facet and are skipped.  Exponential, fine
    for k <= 3.
    """
    q = np.asarray(q, dtype=float)
    n = q.shape[1]
    basis = rank_cutoff_nullspace(q, n)
    k = basis.shape[1]
    assert k >= 1, "trivial nullspace"
    row_norms = np.linalg.norm(basis, axis=1)
    live = [i for i in range(n) if row_norms[i] > 1e-10 * row_norms.max()]
    rays = []
    for subset in combinations(live, k - 1):
        rows = basis[list(subset), :]
        kern = null_space(rows) if subset else np.eye(k)
        if kern.shape[1] != 1:
            continue
        for sign in (1.0, -1.0):
            c = sign * (basis @ kern[:, 0])
            if np.all(c >= -feas_tol):
                c = np.clip(c, 0.0, None)
                if c.sum() > 0:
                    rays.append(c / c.sum())
    unique: list[np.ndarray] = []
    for c in rays:
        if not any(np.abs(c - u).max() < 1e-7 for u in unique):
            unique.append(c)
    unique.sort(key=lambda c: tuple(np.round(c, 12)))
    return unique


def lstsq_completeness_weights(ops: np.ndarray) -> np.ndarray:
    """Weights solving sum_j w_j O_j = I by plain (sign-unconstrained) lstsq."""
    ops = np.asarray(ops, dtype=complex)
    n, dim = ops.shape[0], ops.shape[1]
    cols = ops.reshape(n, -1).T
    a = np.vstack([cols.real, cols.imag])
    b = np.concatenate([np.eye(dim).ravel(), np.zeros(dim * dim)])
    w, *_ = np.linalg.lstsq(a, b, rcond=None)
    return w


def greedy_svd_independent_subset(ops: Sequence[np.ndarray],
                                  rank_factor: float = RANK_FACTOR,
                                  width: int | None = None) -> list[int]:
    """Indices of a maximal linearly independent subset, greedy in input order.

    The library's original rule, one SVD of the whole candidate stack per
    candidate: rank is decided from the singular values of the vectorized
    stack with cutoff ``max(rows, cols) * sigma_max * rank_factor``, where
    ``cols`` is ``width`` when given (the ambient width of operators passed
    as coordinates) and the vector length otherwise.  A list of zero
    operators yields an empty index list.
    """
    if len(ops) == 0:
        raise ValueError("empty operator list")
    shape = np.shape(ops[0])
    vecs = np.stack([np.asarray(op, dtype=np.complex128).ravel() for op in ops])
    if any(np.shape(op) != shape for op in ops):
        raise DimensionMismatchError("operators have mixed dimensions")
    n_cols = vecs.shape[1] if width is None else width
    chosen: list[int] = []
    for i in range(len(ops)):
        stack = vecs[chosen + [i]]
        sigma = np.linalg.svd(stack, compute_uv=False)
        cutoff = rank_threshold((stack.shape[0], n_cols), float(sigma[0]), rank_factor)
        rank = int(np.sum(sigma > cutoff))
        if rank == len(chosen) + 1:
            chosen.append(i)
    return chosen


def _dense_duals(ops: np.ndarray) -> np.ndarray:
    """Dual operators of a (k, d, d) stack, formed densely from its Gram matrix."""
    flat = ops.reshape(len(ops), -1)
    gram = (flat.conj() @ flat.T).real
    sigma = np.linalg.svd(gram, compute_uv=False)
    if sigma[-1] <= 0 or sigma[0] / sigma[-1] > GRAM_CONDITION_LIMIT:
        raise DegenerateBasisError("Gram matrix is ill-conditioned")
    coeffs = np.linalg.solve(gram, np.eye(len(ops)))
    return np.einsum("kj,jab->kab", coeffs, ops)


def dense_build_q(ctx, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """The constraint matrix built from dense operators, as the library first did.

    The bystander basis is formed as operators: Abar, then the complement
    span's elements chosen by the greedy-SVD rule and orthogonalized against
    Abar.  Both bases' duals are formed as operators and paired with every
    outcome's factors.  Only the spans come from the library.
    """
    m = ctx.measurement
    p = ctx.acting_party
    abar = ctx.abar
    span = np.stack(complement_span(m, p).elements)
    acting = np.stack(local_span(m, p).elements)

    flat = span.reshape(len(span), -1)
    gram = (flat.conj() @ flat.T).real
    coords = np.linalg.solve(gram, (flat.conj() @ abar.ravel()).real)
    residual = float(np.abs(abar - np.einsum("j,jab->ab", coords, span)).max())
    if residual > 10 * tol.residual * max(1.0, float(np.abs(abar).max())):
        raise InconsistentNodeError(
            f"bystander operator lies outside its span (residual {residual:.3e})")
    norm2 = float(np.vdot(abar, abar).real)
    candidates = [abar] + list(span)
    elements = [abar] + [
        candidates[i] - (np.vdot(abar, candidates[i]).real / norm2) * abar
        for i in greedy_svd_independent_subset(candidates, tol.rank_factor) if i > 0]
    if len(elements) != len(span):
        raise InconsistentNodeError("bystander span completion has wrong dimension")

    acting_duals = _dense_duals(acting)
    bystander_duals = _dense_duals(np.stack(elements))[1:]
    if len(bystander_duals) == 0:
        return np.zeros((0, m.n_outcomes))
    t_act = np.einsum("aij,nij->an", acting_duals.conj(), m.local_factors(p))
    t_bys = np.einsum("bij,nij->bn", bystander_duals.conj(), m.complement_factors(p))
    rows = np.einsum("an,bn->abn", t_act, t_bys).reshape(-1, m.n_outcomes)
    scale = max(1.0, float(np.abs(rows).max()))
    assert float(np.abs(rows.imag).max()) <= 1e-10 * scale
    q = rows.real
    return q[np.abs(q).max(axis=1) > 1e-13 * scale]
