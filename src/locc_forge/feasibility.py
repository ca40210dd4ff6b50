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

A one-dimensional root cone is certified from Q's Gram instead, with no
QR, SVD or ray enumeration (:func:`_certified_half_line`).  At the root
the weights c lie in every party's cone, so the cone is their half-line
whenever Q has one singular value below the rank cutoff and none in the
marginal band.  Let Q be m x n, s = |Q|_F^2 = trace(Q^T Q), K = max(m, n)
``RANK_FACTOR`` and B = ``MARGINAL_RANK_BAND``.  The cutoff is K sigma_1,
and s/n <= sigma_1^2 <= s brackets it between lo = K sqrt(s/n) and
hi = K sqrt(s).  The certificate proves

    sigma_n <= lo / (2B)    and    sigma_(n-1) >= 2B hi,

which puts sigma_n below the band's lower end, cutoff / B, and
sigma_(n-1) above its upper end, B cutoff, each with a factor 2 to spare.

* sigma_n <= |Q y| / |y| for y = c / |c|_1 (Courant-Fischer), read off
  the residual Q y that the parent-residual test computes anyway.
* sigma_(n-1)^2 = lambda_2(Q^T Q) >= lambda_1(Q^T Q + t c' c'^T) for any
  vector c' and t >= 0 (Cauchy interlacing for a rank-one positive
  semidefinite update).  With c' = y / |y|_2 and t = s~ (below), one
  Cholesky of Q^T Q + t c' c'^T - tau I that runs to completion shows
  lambda_1 >= (2B hi)^2, the part of tau left once rounding is bounded.

Rounding.  With u = eps / 2 and k = m + n + 4, omega = gamma_k = k u /
(1 - k u) is at least every gamma_j met below (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., sec. 3.1).  The computed
trace s~ of the computed Gram G sums m n nonnegative products, so
|s~ - s| <= omega s: S = s~ / (1 - omega) >= s, and lo and hi are read at
s~ / (1 + omega) and at S.  The computed Q y is off by at most
gamma_n |Q| |y|, of 2-norm at most omega sqrt(S) |y|, and the computed
norms and quotient are within a factor 1 + omega of exact ones, so
sigma_n <= (1 + omega) |fl(Q y)| / |y| + omega sqrt(S).  Three errors
separate the matrix A that the Cholesky sees, fl(G + t c' c'^T - tau I),
from Q^T Q + t c' c'^T - tau I, each bounded in the 2-norm by that of its
entrywise bound:

* the Gram's, |G - Q^T Q| <= gamma_m |Q|^T |Q|, at most omega s;
* forming A, at most gamma_4 entrywise of |G| + t |c'| |c'|^T + tau I,
  at most omega ((1 + omega) (s + t) + tau);
* the Cholesky's backward error: when it runs to completion, R^T R =
  A + dA with |dA| <= gamma_(n+1) |R^T| |R| (Higham, Thm 10.3), so
  |dA|_2 <= gamma_(n+1) |R|_F^2 <= gamma_(n+1) trace(A) / (1 -
  gamma_(n+1)), at most omega (1 + omega)^2 (s + t) / (1 - omega).

A + dA is positive semidefinite, so lambda_1(Q^T Q + t c' c'^T) >= tau -
omega (3 (1 + omega)^2 (S + t) / (1 - omega) + tau), which is (2B hi)^2
for tau = ((2B hi)^2 + 3 omega (1 + omega)^2 (S + t) / (1 - omega)) /
(1 - omega).  The few roundings in evaluating these bounds move them by a
few u, well inside the factors 2.

The full route then returns dimension 1 and no marginal flag whenever its
computed singular values are within e of the exact ones: sigma_n + e
stays at most K (sigma_1 - e) / B for e <= K sigma_1 / (2 (B + K)), and
sigma_(n-1) - e at least B K (sigma_1 + e) for e <= B K sigma_1 / (1 +
B K).  So e may be about 4,500 max(m, n) u sigma_1, far above the error
of a backward-stable SVD, a modest multiple of u sigma_1 (LAPACK Users'
Guide, sec. 4.9).  Its null vector v makes an
angle with c' whose sine is at most |Q c'| / sigma_(n-1): roundoff for
weights complete to roundoff, and on the audit measurements the two rays
agree within 1e-15.  The returned ray is c' through ``extreme_rays``'
one-column route (vanishing rule, L1 scale, residual test), so a
certified cone is what the full route gives, and says so in
:attr:`FeasibleCone.certified`.  Every other cone takes the full route:
one of dimension two or more (its lambda_2 is zero), a gap the Gram's
squaring leaves within roundoff (a domino angle of 1e-7, whose
sigma_(n-1) / sigma_1 is 8e-8), and weights off by more than roundoff
(sigma_n of Q is still zero, but |Q c'| is not).  Below the root it is
not tried: most cones built from Q there are a mover's, of dimension two
or more, where the Gram and the failing Cholesky are extra work.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from . import cones
from .errors import InconsistentNodeError, NotProductError
from .measurement import SeparableMeasurement
from .measurement import complement_span, local_span  # noqa: F401  (wrapped by name by the benchmark tracer)
from .operators import independent_subset  # noqa: F401  (wrapped by name by the benchmark tracer)
from .operators import project_factor
from .tolerances import MARGINAL_RANK_BAND, Q_ROW_FLOOR, RESIDUAL_TOL, rank_threshold


_UNIT_ROUNDOFF = np.finfo(float).eps / 2


class MarginalRankWarning(UserWarning):
    """A singular value fell within a decade of the rank cutoff; the computed
    nullspace dimension is tolerance-sensitive."""


@dataclass(frozen=True)
class NodeContext:
    """A (node, measuring party) pair ready for feasibility analysis.

    ``coeffs`` are the node's coefficients against the unweighted outcome
    operators.  They fix the node operator, and with it the joint operator
    Abar of every party except ``acting_party``.  At the ``root`` Abar is
    the identity whatever the coefficients, so a weight error that the
    measurement's constructor accepts moves no rank decision there.

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
    rank cutoff (see :class:`MarginalRankWarning`).  ``certified`` marks a
    root cone proved one-dimensional, unflagged, from Q's Gram, without
    an SVD (see the module docstring).
    """

    nullspace_dim: int
    extreme_rays: np.ndarray
    marginal_rank: bool
    certified: bool = False


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
    is the Gram matrix of those parts.  Identically zero rows are dropped:
    a row whose largest entry is at most ``Q_ROW_FLOOR`` times max(1, Q's
    largest entry).  Only the columns of the context's support are built
    (every outcome at the root), with the frames sliced to them before the
    product.  No operator is formed: ``acting = R_p[:, :n]`` and ``coords =
    R_c[:, :n]`` are read from the measurement's frame R_p of the party and
    side R_c of its cut, Abar has coordinates y (the identity's, R_c[:, n],
    at the root, else see :func:`_bystander_coords`), and rows 1.. of the
    Householder reflector that maps y onto the first axis are such a basis.
    """
    m, n, p = ctx.measurement, ctx.measurement.n_outcomes, ctx.acting_party
    acting, coords = m.party_rs[p][:, :n], m.cut_rs[p][:, :n]
    support = ctx.support
    if ctx.root:
        y = m.cut_rs[p][:, n]
    else:
        coeffs = ctx.coeffs
        if len(support) < len(coeffs):
            acting, coords = acting[:, support], coords[:, support]
            coeffs = np.asarray(coeffs, dtype=float)[support]
        y = _bystander_coords(acting, coords, coeffs)
    u = y.copy()
    norm = sqrt(float(u @ u))
    if norm == 0.0:
        raise InconsistentNodeError("node operator is zero")
    if len(u) == 1:
        return np.zeros((0, len(support)))
    u[0] += norm if u[0] >= 0 else -norm                    # same sign: no cancellation
    u /= sqrt(float(u @ u))
    t_bys = coords[1:] - 2.0 * (u[1:, None] * (u @ coords))
    q = (acting[:, None, :] * t_bys[None, :, :]).reshape(-1, len(support))
    row_max = np.abs(q).max(axis=1)
    return q[row_max > Q_ROW_FLOOR * max(1.0, float(row_max.max()))]


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
    # the open band (cutoff/B, cutoff*B) holds a sigma when more lie above its
    # lower end than at or above its upper one
    marginal = bool(np.count_nonzero(sigma > cutoff / MARGINAL_RANK_BAND)
                    > np.count_nonzero(sigma >= cutoff * MARGINAL_RANK_BAND))
    rank = int(np.count_nonzero(sigma > cutoff))
    return vh[rank:].T, marginal


def _certified_half_line(q: np.ndarray, y: np.ndarray,
                         qy: np.ndarray) -> np.ndarray | None:
    """y / |y|_2 when Q provably has one singular value below the rank
    cutoff, along y, and none in the marginal band; else None.  ``qy`` is
    the computed Q y.  The bounds are derived in the module docstring."""
    rows, n = q.shape
    if n < 2:
        return None
    k = rows + n + 4
    omega = k * _UNIT_ROUNDOFF / (1 - k * _UNIT_ROUNDOFF)
    gram = q.T @ q
    trace = float(gram.trace())
    s_hi = trace / (1 - omega)
    y_norm = sqrt(float(y @ y))
    sigma_last = (1 + omega) * sqrt(float(qy @ qy)) / y_norm + omega * sqrt(s_hi)
    lo = rank_threshold(q.shape, sqrt(trace / ((1 + omega) * n)))
    if not sigma_last <= lo / (2 * MARGINAL_RANK_BAND):
        return None
    c_hat = y / y_norm
    hi = rank_threshold(q.shape, sqrt(s_hi))
    tau = ((2 * MARGINAL_RANK_BAND * hi) ** 2
           + 3 * omega * (1 + omega) ** 2 * (s_hi + trace) / (1 - omega)) / (1 - omega)
    a = gram + (trace * c_hat)[:, None] * c_hat
    a.flat[::n + 1] -= tau
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    return c_hat


def feasible_cone(ctx: NodeContext) -> FeasibleCone:
    """Nullspace dimension plus extreme rays of {c >= 0 : Q c = 0} on the
    context's support (see :attr:`NodeContext.support`), the rays embedded
    in n-outcome space.

    The parent coefficient vector must itself lie in the cone; a node that
    fails this, such as one that is not a product across the party's cut, is
    inconsistent with the measurement.  At the root, whose Abar is the
    identity, this tests completeness.  It is tested first, so an empty
    nullspace is blamed on the measurement only at a consistent node.  A
    root cone that the Gram certificate proves one-dimensional is then
    returned as the weights' half-line, with no SVD (see the module
    docstring); every other cone takes :func:`nullspace` and
    :func:`cones.extreme_rays`.
    """
    n = ctx.measurement.n_outcomes
    support = ctx.support
    q = build_q(ctx)
    c = np.asarray(ctx.coeffs, dtype=float)
    if len(support) < n:
        c = c[support]
    l1 = float(np.abs(c).sum())
    if l1 > 0 and q.shape[0] > 0:
        y = c / l1
        residual = q @ y
        parent_residual = float(np.abs(residual).max())
        if parent_residual > RESIDUAL_TOL:
            raise InconsistentNodeError(
                f"parent coefficients violate the node constraints "
                f"(residual {parent_residual:.3e})")
        if ctx.root:
            c_hat = _certified_half_line(q, y, residual)
            if c_hat is not None:
                rays = cones.extreme_rays(q, c_hat[:, None])
                return FeasibleCone(1, rays, False, certified=True)
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


def factorize(op: np.ndarray, abar: np.ndarray, slot: int,
              dims: tuple[int, ...]) -> np.ndarray:
    """Extract the measuring party's factor from a product node operator.

    Cone membership guarantees the product form, so a residual above
    tolerance signals an analyzer bug and raises :class:`NotProductError`.
    """
    x, residual = project_factor(op, abar, slot, dims)
    if residual > RESIDUAL_TOL * max(1.0, float(np.abs(op).max())):
        raise NotProductError(
            f"operator is not a product with the given bystander factor "
            f"(residual {residual:.3e})")
    return x
