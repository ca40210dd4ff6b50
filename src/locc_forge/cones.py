"""Polyhedral cone computations on coefficient space.

The feasible set at a node is {c >= 0 : Q c = 0}.  Substituting c = N y,
with N an orthonormal nullspace basis of Q, turns it into a pointed cone
{y : N y >= 0} in few dimensions.  Extreme rays are enumerated there with
the double description method, or read off in closed form when the cone is
a half-line or an arc, and mapped back; they are the indivisible
candidate outcomes of the next measurement.  Splitting a parent vector into
positive multiples of extreme rays enumerates the candidate measurements
themselves.
"""

from __future__ import annotations

from cmath import phase
from dataclasses import dataclass
from math import hypot, sqrt

import numpy as np

from .errors import LoccForgeError
from .tolerances import (
    DUPLICATE_TOL,
    NNLS_GRADIENT_FACTOR,
    NNLS_ITERATIONS_PER_COLUMN,
    NULLSPACE_RESIDUAL_TOL,
    RESIDUAL_TOL,
    SCALE_TOL,
    SPLIT_BOUND_MARGIN,
    rank_threshold,
)

_ACTIVITY_TOL = 1e-10  # |a.y| below this (per unit row norm) counts as active
_VANISHING_TOL = 1e-10  # a row at most this times the largest row norm vanishes


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


def _constraint_rows(a: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The live rows of ``a``, and each row's activity cut: row i is active
    on a unit ray y when |a_i . y| <= cut_i = ``_ACTIVITY_TOL`` |a_i|.  Rows
    that vanish on the whole subspace get an infinite cut: they are active
    on every ray."""
    row_norms = np.linalg.norm(a, axis=1)
    # rows that vanish on the whole subspace are vacuous constraints carrying
    # only numerical noise; with orthonormal columns the largest row norm is
    # O(1), so a relative cutoff separates them cleanly
    vanishing = row_norms <= _VANISHING_TOL * float(row_norms.max())
    live = np.flatnonzero(~vanishing).tolist()
    if not live:
        raise ConeError("all constraint rows vanish")
    cuts = _ACTIVITY_TOL * row_norms
    cuts[vanishing] = np.inf
    return live, cuts


def _arc_ends(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extreme rays of the pointed cone {y : a y >= 0} in the plane, a of
    rank 2, as the unit rows of one array, and each row's activity cut.

    The cone is an arc, and its rays are the arc's two ends.  Each end is
    perpendicular to one of the two angularly extreme live rows, turned
    toward the others.  Angles are read from the sum of the unit live rows,
    which lies strictly inside the cone the rows span whenever they fit in
    a half-plane, so every angle is below pi in magnitude; an end with a
    live slack below -cut (rows spanning more than a half-plane) leaves the
    cone trivial.  Rows exactly opposite give one end twice: a half-line.
    """
    live, cuts = _constraint_rows(a)
    # rows as unit complex numbers x + iy: over a handful of rows, one pass
    # in Python costs less than numpy's per-call overhead
    units = [complex(x, y) / hypot(x, y) for x, y in a[live].tolist()]
    mid = sum(units).conjugate()
    angles = [phase(u * mid) for u in units]        # counterclockwise from the sum
    hi = units[angles.index(max(angles))] * -1j      # a quarter turn clockwise
    lo = units[angles.index(min(angles))] * 1j       # a quarter turn counterclockwise
    ends = np.array([[hi.real, hi.imag], [lo.real, lo.imag]])
    if (ends @ a.T < -cuts).any():      # a vanishing row's cut is infinite
        raise ConeError("cone is trivial")
    return ends, cuts


def _arc_rays(q: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """:func:`extreme_rays` of a two-column basis: the ends of
    :func:`_arc_ends` as c = N y, through the double description's tail
    written for two rows, with the same output bytes.

    Entries active on their row (at most the row's cut in magnitude) are
    set to exactly 0.  ``_arc_ends`` has raised on any slack below -cut, so
    every other entry is above its cut: the sign filters and the clipping
    have nothing to do, and an end is dropped only when every entry is 0.
    The ends are L1-scaled and residual-tested, and the two-row decisions
    read Python floats: an end within cosine distance ``DUPLICATE_TOL`` of
    the first (a half-line's second end) is dropped, and the ends are
    ordered by their entries rounded to 12 digits, first entry first, as
    ``numpy.lexsort`` orders them, ties kept in place.
    """
    ys, cuts = _arc_ends(basis)
    cs = ys @ basis.T
    cs[np.abs(cs) <= cuts] = 0.0
    sums = cs.sum(axis=1, keepdims=True)
    live = [i for i, s in enumerate(sums[:, 0].tolist()) if s > 0]
    if len(live) == 2:
        cs /= sums
    else:
        cs = cs[live] / sums[live]
    fits = (np.abs(cs @ q.T).max(axis=1) <= NULLSPACE_RESIDUAL_TOL).tolist()
    if not all(fits):
        cs = cs[fits]
    if not len(cs):
        raise ConeError("no nonnegative ray found; cone is {0}")
    if len(cs) == 1:
        return cs
    (g00, _), (g10, g11) = (cs @ cs.T).tolist()
    if 1.0 - g10 / (sqrt(g00) * sqrt(g11)) < DUPLICATE_TOL:
        return cs[:1]
    first, second = np.round(cs, 12).tolist()
    return cs[[1, 0]] if second < first else cs


def _double_description(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extreme rays of the pointed cone {y : a y >= 0}, a of full column rank,
    as the unit rows of one array, and each row's activity cut.

    Standard incremental construction (Fukuda and Prodon, *Double
    description method revisited*, 1996): start from a simplicial subcone
    cut out by k independent rows, then add the remaining halfspaces one at
    a time, combining adjacent rays across each new hyperplane.  Activity
    follows :func:`_constraint_rows`; the same test decides adjacency.
    Entered with k >= 3 only: :func:`extreme_rays` answers k = 1 and k = 2
    in closed form.
    """
    k = a.shape[1]
    live, cuts = _constraint_rows(a)
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


def half_line(col: np.ndarray) -> np.ndarray:
    """The ray of a one-column nullspace basis before :func:`extreme_rays`'
    residual test: the column times the sign of its largest entry, with
    entries at most ``_VANISHING_TOL`` of the largest set to exactly 0,
    L1-scaled.  A live entry of the opposite sign leaves the cone trivial."""
    mags = np.abs(col)
    top = int(mags.argmax())
    c = col * (1.0 if col[top] > 0 else -1.0)
    c[mags <= _VANISHING_TOL * mags[top]] = 0.0
    if c.min() < 0:
        raise ConeError("cone is trivial")
    c /= c.sum()
    return c


def extreme_rays(q: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Extreme rays of {c >= 0 : Q c = 0}, L1-normalized and sorted, one per
    row, given ``basis``, an orthonormal nullspace basis N of Q.

    The rays come from the double description of {y : N y >= 0}, whose
    rows are the constraints c_j >= 0, when N has three or more columns.
    A ray's entry c_j is set to exactly 0 wherever that run's activity test
    finds the ray active on c_j >= 0 (every j whose row vanishes on the
    nullspace included), so a ray's support is the set of facets it lies
    off, never a magnitude threshold.
    Rays are deduplicated at cosine distance :data:`DUPLICATE_TOL` and
    sorted lexicographically so repeated runs are bit-identical.

    A Q with no rows constrains nothing: the cone is the whole nonnegative
    orthant, whose rays are the unit vectors, returned in the order the
    sort gives them (e_n first, e_1 last) without a double description.

    A one-column N runs no double description either.  Its subcone would be
    the half-line of the largest entry's sign, and the loop could only keep
    it or empty it: the ray is :func:`half_line` of the column (the double
    description's vanishing rule, then the L1 scale), and it passes the
    residual test, or the cone is {0}.

    A two-column N runs no double description either: its cone is an arc,
    whose two rays :func:`_arc_ends` reads off the angularly extreme live
    rows in one pass, with the double description's vanishing rule,
    activity cuts and errors (see :func:`_arc_rays`).  So only cones of
    three or more dimensions are enumerated.
    """
    q = np.asarray(q, dtype=float)
    basis = np.asarray(basis, dtype=float)
    n, k = basis.shape
    if k == 0:
        raise ConeError("nullspace is trivial")
    if q.shape[0] == 0:
        return np.eye(n)[::-1].copy()

    if k == 1:
        c = half_line(basis[:, 0])
        if not float(np.abs(q @ c).max()) <= NULLSPACE_RESIDUAL_TOL:
            raise ConeError("no nonnegative ray found; cone is {0}")
        return c[None]
    if k == 2:
        return _arc_rays(q, basis)

    ys, cuts = _double_description(basis)
    cs = ys @ basis.T           # row r holds ray r's c = N y, and its slacks
    cs[np.abs(cs) <= cuts] = 0.0
    # every ray has N y >= -cut, so none needs its sign flipped; negative
    # roundoff above -1e-9 is cleared, and a ray with an entry below it dropped
    cs = cs[(cs.min(axis=1) > -1e-9) & (cs.max(axis=1) > 0)]
    np.maximum(cs, 0.0, out=cs)
    cs /= cs.sum(axis=1, keepdims=True)
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
    return cs


def _split_scales(mat: np.ndarray, parent: np.ndarray,
                  bound: float) -> tuple[np.ndarray | None, float]:
    """Nonnegative least-squares scales of ``parent`` on the columns of
    ``mat``, or None when every nonnegative combination misses it by more
    than ``bound`` in 2-norm; and the smallest singular value of ``mat``
    when its columns are independent, else 0.

    One SVD-based least-squares solve settles the common case.  When the
    columns are independent, with the smallest singular value above
    ``SPLIT_BOUND_MARGIN`` times the rank cutoff, the least-squares residual
    is a lower bound on every combination's residual, and least-squares
    scales that are all nonnegative are the unique nonnegative least-squares
    solution.  Anything else goes to :func:`nnls`, looked up at call time.
    """
    scales, sq_residual, _, sigma = np.linalg.lstsq(mat, parent, rcond=None)
    independent = len(sigma) == mat.shape[1] and \
        sigma[-1] > SPLIT_BOUND_MARGIN * rank_threshold(mat.shape, float(sigma[0]))
    sigma_min = float(sigma[-1]) if independent else 0.0
    if independent:
        # lstsq leaves the residual out for a square matrix, where it is 0
        if sq_residual.size and sqrt(float(sq_residual[0])) > bound:
            return None, sigma_min
        if np.all(scales >= 0):
            return scales, sigma_min
    return nnls(mat, parent)[0], sigma_min


@dataclass(frozen=True)
class RayDecomposition:
    """A parent vector written as a positive combination of extreme rays."""

    rays_used: tuple[int, ...]
    scales: np.ndarray


def decompose(parent: np.ndarray, rays: np.ndarray) -> list[RayDecomposition]:
    """Every exact splitting of ``parent`` into two or more extreme rays,
    given one per row of ``rays``.

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

    An independent ray set has at most one split, so it queues nothing once
    its own split is found.  Let A's columns pass the margin test of
    :func:`_split_scales`, with smallest singular value sigma, and let s be
    an exact split of A (zero off S).  An exact split s' of a set below
    A minus ray i has s'_i = 0, and both have 2-norm residual at most
    ``bound``, so sigma s_i <= sigma |s - s'| <= |R_A (s - s')| <= 2 bound.
    So when every s_i, i in S, exceeds 2 bound / sigma, no set below A
    holds an exact split, and A's subsets are not queued.
    """
    parent = np.asarray(parent, dtype=float)
    p_norm = float(np.linalg.norm(parent))
    if p_norm == 0:
        return []
    rays = np.asarray(rays, dtype=float).reshape(-1, len(parent))
    scale_floor = max(1.0, float(parent.max()))
    # a ray is proportional to the parent when its least-squares multiple
    # passes the exactness test every split passes below
    t = rays @ parent / np.einsum("ij,ij->i", rays, rays)
    usable = np.flatnonzero(np.abs(t[:, None] * rays - parent).max(axis=1)
                            > RESIDUAL_TOL * scale_floor).tolist()

    # max-norm >= 2-norm / sqrt(n): a 2-norm residual above this fails the
    # exactness test below
    bound = sqrt(len(parent)) * RESIDUAL_TOL * scale_floor
    found: dict[tuple[int, ...], RayDecomposition] = {}
    queue = [tuple(usable)] if len(usable) >= 2 else []
    seen = set(queue)
    while queue:
        subset = queue.pop()
        mat = rays[list(subset)].T
        scales, sigma_min = _split_scales(mat, parent, bound)
        if scales is None:
            continue
        keep = scales > SCALE_TOL
        support = tuple(i for i, k in zip(subset, keep) if k)
        scales = scales[keep]
        if float(np.abs(mat[:, keep] @ scales - parent).max()) > RESIDUAL_TOL * scale_floor:
            continue
        if len(support) >= 2 and support not in found:
            found[support] = RayDecomposition(support, scales)
        if len(subset) > 2 and not sigma_min * scales.min(initial=np.inf) > 2.0 * bound:
            for i in support:
                smaller = tuple(j for j in subset if j != i)
                if smaller not in seen:
                    seen.add(smaller)
                    queue.append(smaller)
    return sorted(found.values(), key=lambda d: (len(d.rays_used), d.rays_used))
