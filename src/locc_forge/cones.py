"""Polyhedral cone computations on coefficient space.

The feasible set at a node is {c >= 0 : Q c = 0}.  Substituting c = N y,
with N an orthonormal nullspace basis of Q, turns it into a pointed cone
{y : N y >= 0} in few dimensions.  Extreme rays are enumerated there with
the double description method and mapped back; they are the indivisible
candidate outcomes of the next measurement.  Splitting a parent vector into
positive multiples of extreme rays enumerates the candidate measurements
themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import LoccForgeError
from .tolerances import (
    DEFAULT_TOL,
    DUPLICATE_TOL,
    NNLS_GRADIENT_FACTOR,
    NNLS_ITERATIONS_PER_COLUMN,
    NULLSPACE_RESIDUAL_TOL,
    SCALE_TOL,
    SPLIT_BOUND_MARGIN,
    Tolerances,
    rank_threshold,
)

_ACTIVITY_TOL = 1e-10  # |a.y| below this (per unit row norm) counts as active


class ConeError(LoccForgeError):
    """The cone degenerated to {0}; impossible for a complete measurement."""


class NNLSConvergenceError(LoccForgeError):
    """Nonnegative least squares ran out of iterations (a cycling active set)."""


def _independent_rows(a: np.ndarray, k: int) -> list[int]:
    """Indices of k linearly independent rows: the first k pivots of a QR
    with column pivoting of a^T, which takes the row with the largest
    remaining norm first and projects it out of the others."""
    rest = np.array(a, dtype=float)
    picked: list[int] = []
    for _ in range(k):
        norms = np.einsum("ij,ij->i", rest, rest)
        norms[picked] = -1.0
        i = int(np.argmax(norms))
        picked.append(i)
        q = rest[i] / sqrt(norms[i])
        rest -= np.outer(rest @ q, q)
    return sorted(picked)


def nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """x >= 0 minimizing |a x - b|_2, and that minimum.

    Lawson and Hanson's active-set method (*Solving Least Squares Problems*,
    ch. 23).  The solution is basic: the passive columns are kept in the
    order they entered, and a column enters only when the last diagonal
    entry of the QR factor of [passive columns, column] (its component
    orthogonal to the passive columns) exceeds the rank cutoff
    :func:`rank_threshold` at the column's own norm, so the passive columns
    stay linearly independent and the entries above zero index independent
    columns.  A column is a candidate when its gradient a_j . r, per unit
    column norm, exceeds ``NNLS_GRADIENT_FACTOR * max(rows, cols) * eps *
    |b|``.  Raises :class:`NNLSConvergenceError` after
    ``NNLS_ITERATIONS_PER_COLUMN`` passive-set solves per column.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    col_norms = np.linalg.norm(a, axis=0)
    floor = NNLS_GRADIENT_FACTOR * max(m, n) * np.finfo(float).eps * float(np.linalg.norm(b))
    x = np.zeros(n)
    passive: list[int] = []

    def solve(cols: list[int], q: np.ndarray, r: np.ndarray) -> np.ndarray:
        z = np.zeros(n)
        z[cols] = np.linalg.solve(r, q.T @ b)
        return z

    iterations = 0
    while True:
        gain = a.T @ (b - a @ x)
        per_norm = np.divide(gain, col_norms, out=np.zeros(n), where=col_norms > 0)
        per_norm[passive] = 0.0
        z = None
        for j in np.argsort(-per_norm, kind="stable"):
            if not per_norm[j] > floor:
                break
            cols = passive + [int(j)]
            if len(cols) > m:       # passive columns already span every row
                break
            q, r = np.linalg.qr(a[:, cols])
            if abs(r[-1, -1]) > rank_threshold((m, len(cols)), col_norms[j]):
                z = solve(cols, q, r)
                if z[j] > 0:
                    passive = cols
                    break
                z = None
        if z is None:
            return x, float(np.linalg.norm(b - a @ x))
        while True:
            iterations += 1
            if iterations > NNLS_ITERATIONS_PER_COLUMN * n:
                raise NNLSConvergenceError(
                    f"nonnegative least squares did not converge in {iterations - 1} "
                    f"iterations on a {m} x {n} problem")
            blocking = [i for i in passive if z[i] <= 0]
            if not blocking:
                x = z
                break
            ratios = x[blocking] / (x[blocking] - z[blocking])
            hit = blocking[int(np.argmin(ratios))]
            x = x + float(ratios.min()) * (z - x)
            dropped = [i for i in passive if i == hit or x[i] <= 0]
            x[dropped] = 0.0
            passive = [i for i in passive if i not in dropped]
            z = solve(passive, *np.linalg.qr(a[:, passive]))


def _double_description(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extreme rays of the pointed cone {y : a y >= 0}, a of full column rank,
    as the unit rows of one array, and each row's activity cut.

    Standard incremental construction: start from a simplicial subcone cut
    out by k independent rows, then add the remaining halfspaces one at a
    time, combining adjacent rays across each new hyperplane.  Row i is
    active on a unit ray y when |a_i . y| <= cut_i = ``_ACTIVITY_TOL`` |a_i|;
    the same test decides adjacency.  Rows that vanish on the whole
    subspace get an infinite cut: they are active on every ray.
    """
    n, k = a.shape
    row_norms = np.linalg.norm(a, axis=1)
    # rows that vanish on the whole subspace are vacuous constraints carrying
    # only numerical noise; with orthonormal columns the largest row norm is
    # O(1), so a relative cutoff separates them cleanly
    vanishing = row_norms <= 1e-10 * float(row_norms.max())
    live = np.flatnonzero(~vanishing).tolist()
    if not live:
        raise ConeError("all constraint rows vanish")
    cuts = _ACTIVITY_TOL * row_norms
    cuts[vanishing] = np.inf

    base = [live[i] for i in _independent_rows(a[live], k)]
    rays = np.linalg.inv(a[base]).T
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    processed = list(base)
    pending = [i for i in live if i not in base]

    while pending:
        # rows no ray violates change nothing: add them all, up to the
        # first row that some ray violates
        violated = (rays @ a[pending].T < -cuts[pending]).any(axis=0)
        first = int(np.argmax(violated)) if violated.any() else len(pending)
        processed += pending[:first]
        if first == len(pending):
            break
        i = pending[first]
        pending = pending[first + 1:]
        slack = rays @ a[i]
        cut = cuts[i]
        combined = []
        plus = np.flatnonzero(slack > cut)
        if plus.size:
            minus = np.flatnonzero(slack < -cut)
            act = np.abs(rays @ a[processed].T) <= cuts[processed]
            for p in plus:
                for q in minus:
                    # adjacent: no other ray is active on every row both are
                    common = act[p] & act[q]
                    covering = act[:, common].all(axis=1)
                    covering[[p, q]] = False
                    if covering.any():
                        continue
                    w = slack[p] * rays[q] - slack[q] * rays[p]
                    norm = np.linalg.norm(w)
                    if norm > 0:
                        combined.append(w / norm)
        rays = np.vstack([rays[slack >= -cut], *combined])
        processed.append(i)
        if not len(rays):
            raise ConeError("cone is trivial")
    return rays, cuts


def extreme_rays(qmatrix: np.ndarray, nullspace_basis: np.ndarray | None = None,
                 tol: Tolerances = DEFAULT_TOL) -> list[np.ndarray]:
    """Extreme rays of {c >= 0 : Q c = 0}, L1-normalized and sorted.

    The rays come from the double description of {y : N y >= 0}, N the
    nullspace basis, whose rows are the constraints c_j >= 0.  A ray's
    entry c_j is set to exactly 0 wherever that run's activity test finds
    the ray active on c_j >= 0 (every j whose row vanishes on the
    nullspace included), so a ray's support is the set of facets it lies
    off, never a magnitude threshold.  Rays are deduplicated at cosine
    distance :data:`DUPLICATE_TOL` and sorted lexicographically so repeated
    runs are bit-identical.
    """
    from .feasibility import nullspace  # cheap, avoids duplicating the SVD policy

    q = np.asarray(qmatrix, dtype=float)
    if nullspace_basis is None:
        nullspace_basis, _ = nullspace(q, q.shape[1], tol)
    basis = np.asarray(nullspace_basis, dtype=float)
    n, k = basis.shape
    if k == 0:
        raise ConeError("nullspace is trivial")

    ys, cuts = _double_description(basis)
    cs = ys @ basis.T               # row r holds ray r's c = N y, and its slacks
    cs[np.abs(cs) <= cuts] = 0.0
    # every ray has N y >= -cut, so none needs its sign flipped; negative
    # roundoff above -1e-9 is cleared, and a ray with an entry below it dropped
    cs = cs[(cs.min(axis=1) > -1e-9) & (cs.max(axis=1) > 0)]
    np.maximum(cs, 0.0, out=cs)
    cs /= cs.sum(axis=1, keepdims=True)
    if q.shape[0]:
        cs = cs[np.abs(cs @ q.T).max(axis=1, initial=0.0) <= NULLSPACE_RESIDUAL_TOL]
    if not len(cs):
        raise ConeError("no nonnegative ray found; cone is {0}")
    if len(cs) > 1:
        norms = np.linalg.norm(cs, axis=1)
        close = ((1.0 - (cs @ cs.T) / np.outer(norms, norms)) < DUPLICATE_TOL).tolist()
        unique: list[int] = []
        for i in range(len(cs)):
            if not any(close[i][j] for j in unique):
                unique.append(i)
        cs = cs[unique]
        cs = cs[np.lexsort(np.round(cs, 12).T[::-1])]   # lexsort's last key is its first
    return list(cs)


def _split_scales(mat: np.ndarray, parent: np.ndarray,
                  bound: float) -> np.ndarray | None:
    """Nonnegative least-squares scales of ``parent`` on the columns of
    ``mat``, or None when every nonnegative combination misses it by more
    than ``bound`` in 2-norm.

    One SVD-based least-squares solve settles the common case.  When the
    columns are independent, with the smallest singular value above
    ``SPLIT_BOUND_MARGIN`` times the rank cutoff, the least-squares residual
    is a lower bound on every combination's residual, and least-squares
    scales that are all nonnegative are the unique nonnegative least-squares
    solution.  Anything else goes to :func:`nnls`, looked up at call time.
    """
    scales, sq_residual, _, sigma = np.linalg.lstsq(mat, parent, rcond=None)
    if len(sigma) == mat.shape[1] and \
            sigma[-1] > SPLIT_BOUND_MARGIN * rank_threshold(mat.shape, float(sigma[0])):
        # lstsq leaves the residual out for a square matrix, where it is 0
        if sq_residual.size and sqrt(float(sq_residual[0])) > bound:
            return None
        if np.all(scales >= 0):
            return scales
    return nnls(mat, parent)[0]


@dataclass(frozen=True)
class RayDecomposition:
    """A parent vector written as a positive combination of extreme rays."""

    rays_used: tuple[int, ...]
    scales: np.ndarray
    residual: float


def decompose(parent: np.ndarray, rays: list[np.ndarray],
              tol: Tolerances = DEFAULT_TOL) -> list[RayDecomposition]:
    """Every exact splitting of ``parent`` into two or more extreme rays.

    The splittings are the vertices of the polytope {s >= 0 : R s = parent},
    R the matrix of usable rays; rays proportional to the parent are never
    used (a child identical to its parent is not a measurement outcome).
    Starting from all usable rays, each ray set A gets nonnegative
    least-squares scales (see :func:`_split_scales`), whose entries above
    :data:`SCALE_TOL` form a vertex support S.  An exact solve records its
    split (once per support) and queues A minus each ray of S; an inexact
    one means the parent lies outside the cone of A, so no vertex hides
    below it.  Distinct vertices never have nested supports, so every vertex
    is reached, and each support is linearly independent, so no split uses
    more rays than the cone has dimensions.  Results are ordered by (size,
    rays used).  An empty result means the party cannot split this node.
    """
    parent = np.asarray(parent, dtype=float)
    p_norm = float(np.linalg.norm(parent))
    if p_norm == 0:
        return []
    usable = []
    for i, r in enumerate(rays):
        cos = float(np.dot(parent, r) / (p_norm * np.linalg.norm(r)))
        if cos < 1.0 - 1e-9:
            usable.append(i)

    scale_floor = max(1.0, float(parent.max()))
    # max-norm >= 2-norm / sqrt(n): a 2-norm residual above this fails the
    # exactness test below
    bound = sqrt(len(parent)) * tol.residual * scale_floor
    found: dict[tuple[int, ...], RayDecomposition] = {}
    queue = [tuple(usable)] if len(usable) >= 2 else []
    seen = set(queue)
    while queue:
        subset = queue.pop()
        mat = np.column_stack([rays[i] for i in subset])
        scales = _split_scales(mat, parent, bound)
        if scales is None:
            continue
        keep = scales > SCALE_TOL
        support = tuple(i for i, k in zip(subset, keep) if k)
        scales = scales[keep]
        residual = float(np.abs(mat[:, keep] @ scales - parent).max())
        if residual > tol.residual * scale_floor:
            continue
        if len(support) >= 2 and support not in found:
            found[support] = RayDecomposition(support, scales, residual)
        if len(subset) > 2:
            for i in support:
                smaller = tuple(j for j in subset if j != i)
                if smaller not in seen:
                    seen.add(smaller)
                    queue.append(smaller)
    return sorted(found.values(), key=lambda d: (len(d.rays_used), d.rays_used))
