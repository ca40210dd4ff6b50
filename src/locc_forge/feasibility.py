"""Per-node feasibility analysis: the constraint matrix, its nullspace, and
factorization of candidate node operators.

At a node of a protocol tree the joint operator is a product A (x) Abar,
where A acts on the party about to measure and Abar is the fixed joint
operator of the bystanders.  The party's admissible next outcomes are the
coefficient vectors c >= 0 for which sum_j c_j O_j again has the form
A' (x) Abar: every component along "anything (x) (not Abar)" vanishes.
Those components are taken in coordinates, read from the frames the
measurement caches: the party's own frame and its cut's other-parties
side, whose columns keep the outcomes' trace pairings and whose last
column holds the identity's coordinates (see ``measurement``).  Abar's
coordinates are read off the node's coefficients (at the root, where Abar
is the identity, they are that last column), one Householder reflection
gives an orthonormal basis of Abar's orthogonal complement, and the
products of the two sides' coordinates are the rows of a real matrix Q.
The admissible c are exactly the nonnegative nullspace vectors of Q, a
basis-independent set, and |Q c| is the Frobenius norm of the part of
sum_j c_j O_j off span_A (x) Abar.

Below the root only the node's support S = {j : c_j != 0} is searched.
Every child is a multiple of a ray from an exact nonnegative split of its
parent, so a whole subtree lives on the face of the cone where c_j = 0 off
S, and that face's extreme rays are exactly the cone's rays lying in it.
So Q is built on the columns of S, the nullspace and the double
description run on |S| columns, and the rays are embedded back into
n-outcome space.  The root keeps every outcome, so root dimensions are
those of the whole cone.

The nullspace's rank is decided on Q's singular values.  A root Q is tall
(up to ten rows per column), and when it is tall and not small the SVD
runs on the n × n triangular factor of Q's QR, which has the same singular
values and right singular vectors; the rank cutoff still reads Q's shape
(see :func:`nullspace`).  The residual tests read Q itself.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import cones
from .errors import InconsistentNodeError, NotProductError
from .measurement import SeparableMeasurement
from .measurement import complement_span, local_span  # noqa: F401  (wrapped by name by the benchmark tracer)
from .operators import independent_subset  # noqa: F401  (wrapped by name by the benchmark tracer)
from .operators import project_factor
from .tolerances import MARGINAL_RANK_BAND, RESIDUAL_TOL, rank_threshold


class MarginalRankWarning(UserWarning):
    """A singular value fell within a decade of the rank cutoff; the computed
    nullspace dimension is tolerance-sensitive."""


@dataclass(frozen=True)
class NodeContext:
    """A (node, measuring party) pair ready for feasibility analysis.

    ``coeffs`` are the node's coefficients against the unweighted outcome
    operators.  They fix the node operator, and with it the joint operator
    Abar of every party except ``acting_party``.  At the ``root`` Abar is
    the identity whatever the coefficients, so a weight error that
    validation accepts moves no rank decision there.

    ``support`` holds the outcomes the node's cone is built on: every
    outcome at the root, so root dimensions are those of the whole cone,
    and those with c_j != 0 below it.  Every child is a multiple of a ray
    from an exact nonnegative split of its parent, so every descendant of a
    node lies in its support, and the search loses nothing by working on
    that face of the cone.
    """

    measurement: SeparableMeasurement
    acting_party: int
    coeffs: np.ndarray
    root: bool = False
    support: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        support = (np.arange(len(self.coeffs)) if self.root
                   else np.flatnonzero(self.coeffs))
        object.__setattr__(self, "support", support)


def root_context(m: SeparableMeasurement, party: int) -> NodeContext:
    return NodeContext(m, party, np.asarray(m.weights, dtype=float), root=True)


@dataclass(frozen=True)
class FeasibleCone:
    """One party's cone {c >= 0 : Q c = 0} at a node, restricted to the
    node's support (see :attr:`NodeContext.support`).

    ``extreme_rays`` holds one ray per row in n-outcome coordinates,
    L1-normalized, entrywise >= 0 and exactly zero off the support.
    ``marginal_rank`` flags a singular value of Q within a decade of the
    rank cutoff (see :class:`MarginalRankWarning`).
    """

    nullspace_dim: int
    extreme_rays: np.ndarray
    marginal_rank: bool


def _refuse_zero_spans(m: SeparableMeasurement, party: int) -> None:
    """A span with no nonzero factor has no frame: every party's is needed,
    then the party's cut's.  Such a frame keeps the identity's row alone.
    Only the root needs this test, as below it such a span makes the node
    operator zero."""
    n, side = m.n_outcomes, m.cut_rs[party]
    for q, r in enumerate(m.party_rs):
        if len(r) == 1 and not r[0, :n].any():
            raise InconsistentNodeError(f"every factor of party {m.parties[q].name!r} is zero")
    if len(side) == 1 and not side[0, :n].any():
        raise InconsistentNodeError(f"every factor of the parties other than "
                                    f"{m.parties[party].name!r} is zero")


def _bystander_coords(acting: np.ndarray, coords: np.ndarray, coeffs) -> np.ndarray:
    """Abar's coordinates y, up to scale: a product node X (x) Abar has the
    realignment core acting diag(c) coords^T = x y^T, whose largest-norm row
    is taken."""
    core = (acting * np.asarray(coeffs, dtype=float)) @ coords.T
    return core[np.argmax(np.einsum("ij,ij->i", core, core))]


def build_q(ctx: NodeContext) -> np.ndarray:
    """Constraint matrix whose nullspace parametrizes the party's next outcomes.

    Column n of the matrix holds the coordinates of L_n (x) (C_n - P C_n),
    where P projects onto the node's bystander operator Abar, in the
    orthonormal product basis of the party's local span and of the bystander
    span's directions trace-orthogonal to Abar.  So Q c holds the
    coordinates of the part of sum_n c_n O_n off span_A (x) Abar, and Q^T Q
    is the Gram matrix of those parts.  Identically zero rows are dropped.
    Only the columns of the context's support are built (every outcome at
    the root), with the frames sliced to them before the product.  No
    operator is formed: ``acting = R_p[:, :n]`` and ``coords = R_c[:, :n]``
    are read from the measurement's frame R_p of the party and side R_c of
    its cut, Abar has coordinates y (the identity's, R_c[:, n], at the root,
    else see :func:`_bystander_coords`), and rows 1.. of the Householder
    reflector that maps y onto the first axis are such a basis.
    """
    m, n, p = ctx.measurement, ctx.measurement.n_outcomes, ctx.acting_party
    acting, coords = m.party_rs[p][:, :n], m.cut_rs[p][:, :n]
    support = ctx.support
    if ctx.root:
        _refuse_zero_spans(m, p)
        y = m.cut_rs[p][:, n]
    else:
        coeffs = ctx.coeffs
        if len(support) < len(coeffs):
            acting, coords = acting[:, support], coords[:, support]
            coeffs = np.asarray(coeffs, dtype=float)[support]
        y = _bystander_coords(acting, coords, coeffs)
    norm = float(np.linalg.norm(y))
    if norm == 0.0:
        raise InconsistentNodeError("node operator is zero")
    if len(y) == 1:
        return np.zeros((0, len(support)))
    u = y.copy()
    u[0] += norm if y[0] >= 0 else -norm                    # same sign: no cancellation
    u /= np.linalg.norm(u)
    t_bys = (coords - 2.0 * np.outer(u, u @ coords))[1:]
    q = (acting[:, None, :] * t_bys[None, :, :]).reshape(-1, len(support))
    scale = max(1.0, float(np.abs(q).max()))
    keep = np.abs(q).max(axis=1) > 1e-13 * scale
    return q[keep]


def nullspace(q: np.ndarray, n_cols: int) -> tuple[np.ndarray, bool]:
    """Orthonormal nullspace basis of ``q`` and a marginal-rank flag.

    A Q with more rows than columns and at least 32 columns is first
    reduced to the n × n triangular factor R of one QR (T. F. Chan, ACM
    TOMS 8(1), 1982).  RᵀR = QᵀQ, so R has Q's singular values and right
    singular vectors, and the SVD of R forms no U of Q's height, which the
    nullspace never reads.  The rank is still decided for Q: the cutoff and
    the marginal band read Q's shape, not R's.  The path depends on Q's
    shape alone.  The extra QR call costs about 6–15 µs, so it pays only on
    larger Q; on root Q of the benchmark workloads (shared 2-core x86 host,
    one BLAS thread, best of 7, direct SVD of Q against the R path):

    ========  ========  ========
    Q shape    direct    R path
    ========  ========  ========
    663×64    2,244 µs  1,302 µs
    240×64    1,097 µs    719 µs
    180×36      309 µs    215 µs
    108×32      126 µs    114 µs
    60×32       105 µs    101 µs
    48×16        43 µs     49 µs
    20×9         22 µs     36 µs
    192×4        18 µs     26 µs
    ========  ========  ========
    """
    if q.shape[0] == 0:
        return np.eye(n_cols), False
    rows, cols = q.shape
    a = np.linalg.qr(q, mode="r") if rows > cols >= 32 else q
    # V is needed whole, so a wide Q takes full_matrices
    _, sigma, vh = np.linalg.svd(a, full_matrices=rows < cols)
    cutoff = rank_threshold(q.shape, float(sigma[0]))
    marginal = bool(np.any((sigma > cutoff / MARGINAL_RANK_BAND)
                           & (sigma < cutoff * MARGINAL_RANK_BAND)))
    rank = int(np.sum(sigma > cutoff))
    basis = vh[rank:].conj().T
    return np.ascontiguousarray(basis.real), marginal


def feasible_cone(ctx: NodeContext, residual_tol: float = RESIDUAL_TOL) -> FeasibleCone:
    """Nullspace dimension plus extreme rays of {c >= 0 : Q c = 0} on the
    context's support (see :attr:`NodeContext.support`), the rays embedded
    in n-outcome space.

    The parent coefficient vector must itself lie in the cone; a node that
    fails this, such as one that is not a product across the party's cut, is
    inconsistent with the measurement.  At the root, whose Abar is the
    identity, this tests completeness.  It is tested first, so an empty
    nullspace is blamed on the measurement only at a consistent node.
    """
    n = ctx.measurement.n_outcomes
    support = ctx.support
    q = build_q(ctx)
    c = np.asarray(ctx.coeffs, dtype=float)
    if len(support) < n:
        c = c[support]
    l1 = float(np.abs(c).sum())
    if l1 > 0 and q.shape[0] > 0:
        parent_residual = float(np.abs(q @ (c / l1)).max())
        if parent_residual > residual_tol:
            raise InconsistentNodeError(
                f"parent coefficients violate the node constraints "
                f"(residual {parent_residual:.3e})")
    basis, marginal = nullspace(q, len(support))
    if basis.shape[1] == 0:
        raise InconsistentNodeError("empty nullspace contradicts completeness")
    if marginal:
        warnings.warn("nullspace dimension decided near the rank cutoff",
                      MarginalRankWarning, stacklevel=2)
    rays = cones.extreme_rays(q, basis)   # looked up per call: the benchmark tracer wraps it
    if len(support) < n:
        embedded = np.zeros((len(rays), n))
        embedded[:, support] = rays
        rays = embedded
    return FeasibleCone(basis.shape[1], rays, marginal)


def factorize(op: np.ndarray, abar: np.ndarray, slot: int, dims: tuple[int, ...],
              residual_tol: float = RESIDUAL_TOL) -> np.ndarray:
    """Extract the measuring party's factor from a product node operator.

    Cone membership guarantees the product form, so a residual above
    tolerance signals an analyzer bug and raises :class:`NotProductError`.
    """
    x, residual = project_factor(op, abar, slot, dims)
    if residual > residual_tol * max(1.0, float(np.abs(op).max())):
        raise NotProductError(
            f"operator is not a product with the given bystander factor "
            f"(residual {residual:.3e})")
    return x
