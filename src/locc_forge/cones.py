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

import numpy as np
from scipy.linalg import qr
from scipy.optimize import nnls

from .errors import LoccForgeError
from .tolerances import (
    DEFAULT_TOL,
    DUPLICATE_TOL,
    NULLSPACE_RESIDUAL_TOL,
    SCALE_TOL,
    Tolerances,
)

_ACTIVITY_TOL = 1e-10  # |a.y| below this (per unit row norm) counts as active


class ConeError(LoccForgeError):
    """The cone degenerated to {0}; impossible for a complete measurement."""


def _independent_rows(a: np.ndarray, k: int) -> list[int]:
    """Indices of k linearly independent rows, via pivoted QR of a^T."""
    _, _, piv = qr(a.T, mode="economic", pivoting=True)
    return sorted(int(i) for i in piv[:k])


def _double_description(a: np.ndarray) -> list[np.ndarray]:
    """Extreme rays of the pointed cone {y : a y >= 0}, a of full column rank.

    Standard incremental construction: start from a simplicial subcone cut
    out by k independent rows, then add the remaining halfspaces one at a
    time, combining adjacent rays across each new hyperplane.
    """
    n, k = a.shape
    row_norms = np.linalg.norm(a, axis=1)
    # rows that vanish on the whole subspace are vacuous constraints carrying
    # only numerical noise; with orthonormal columns the largest row norm is
    # O(1), so a relative cutoff separates them cleanly
    floor = 1e-10 * float(row_norms.max())
    live = [i for i in range(n) if row_norms[i] > floor]
    if not live:
        raise ConeError("all constraint rows vanish")

    base = _independent_rows(a[live], k)
    base = [live[i] for i in base]
    rays = [col / np.linalg.norm(col) for col in np.linalg.inv(a[base]).T]
    processed = list(base)

    def activity(ray: np.ndarray, rows: list[int]) -> np.ndarray:
        s = a[rows] @ ray
        return np.abs(s) <= _ACTIVITY_TOL * np.maximum(row_norms[rows], 1e-300)

    for i in live:
        if i in base:
            continue
        slack = np.array([a[i] @ r for r in rays])
        cut = _ACTIVITY_TOL * max(row_norms[i], 1e-300)
        keep = [r for r, s in zip(rays, slack) if s >= -cut]
        plus = [(r, s) for r, s in zip(rays, slack) if s > cut]
        minus = [(r, s) for r, s in zip(rays, slack) if s < -cut]
        if plus and minus:
            act = [activity(r, processed) for r in rays]
            act_by_id = {id(r): m for r, m in zip(rays, act)}
            for rp, sp in plus:
                for rm, sm in minus:
                    common = act_by_id[id(rp)] & act_by_id[id(rm)]
                    adjacent = True
                    for other in rays:
                        if other is rp or other is rm:
                            continue
                        if np.all(act_by_id[id(other)][common]):
                            adjacent = False
                            break
                    if not adjacent:
                        continue
                    w = sp * rm - sm * rp
                    norm = np.linalg.norm(w)
                    if norm > 0:
                        keep.append(w / norm)
        rays = keep
        processed.append(i)
        if not rays:
            raise ConeError("cone is trivial")
    return rays


def extreme_rays(qmatrix: np.ndarray, nullspace_basis: np.ndarray | None = None,
                 tol: Tolerances = DEFAULT_TOL) -> list[np.ndarray]:
    """Extreme rays of {c >= 0 : Q c = 0}, L1-normalized and sorted.

    Rays are deduplicated at cosine distance :data:`DUPLICATE_TOL` and sorted
    lexicographically so repeated runs are bit-identical.
    """
    from .feasibility import nullspace  # cheap, avoids duplicating the SVD policy

    q = np.asarray(qmatrix, dtype=float)
    if nullspace_basis is None:
        nullspace_basis, _ = nullspace(q, q.shape[1], tol)
    basis = np.asarray(nullspace_basis, dtype=float)
    n, k = basis.shape
    if k == 0:
        raise ConeError("nullspace is trivial")

    ys = _double_description(basis)
    rays = []
    for y in ys:
        c = basis @ y
        if c.sum() < 0:
            c = -c
        c[(c < 0) & (c > -1e-9)] = 0.0
        if np.any(c < 0) or not np.any(c > 0):
            continue
        c = c / c.sum()
        if q.shape[0] and float(np.abs(q @ c).max()) > NULLSPACE_RESIDUAL_TOL:
            continue
        rays.append(c)

    unique: list[np.ndarray] = []
    for c in rays:
        is_dup = any(
            1.0 - float(np.dot(c, u) / (np.linalg.norm(c) * np.linalg.norm(u)))
            < DUPLICATE_TOL
            for u in unique)
        if not is_dup:
            unique.append(c)
    if not unique:
        raise ConeError("no nonnegative ray found; cone is {0}")
    unique.sort(key=lambda c: tuple(np.round(c, 12)))
    return unique


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
    Starting from all usable rays, each ray set A gets a nonnegative
    least-squares solve, whose entries above :data:`SCALE_TOL` form a vertex
    support S.  An exact solve records its split (once per support) and
    queues A minus each ray of S; an inexact one means the parent lies
    outside the cone of A, so no vertex hides below it.  Distinct vertices
    never have nested supports, so every vertex is reached, and each
    support is linearly independent, so no split uses more rays than the
    cone has dimensions.  Results are ordered by (size, rays used).  An
    empty result means the party cannot split this node.
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
    found: dict[tuple[int, ...], RayDecomposition] = {}
    queue = [tuple(usable)] if len(usable) >= 2 else []
    seen = set(queue)
    while queue:
        subset = queue.pop()
        mat = np.column_stack([rays[i] for i in subset])
        scales, _ = nnls(mat, parent)
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
