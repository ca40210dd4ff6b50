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

A one-dimensional root cone is certified from the parties' frames instead,
with no Q, no cut side, and no QR, SVD or ray enumeration
(:func:`certified_root_cones`, which ``engine.check_root`` runs for every
party).  At the root the weights w lie in every party's cone, so the cone
is their half-line whenever Q has one singular value below the rank cutoff
and none in the marginal band.

Q's Gram needs no Q.  Column j of a root Q is a_j (x) P t_j, with a_j =
R_p[:, j] from party p's frame, t_j the cut side's column and P the
projection off the other parties' identity.  Frames keep the trace
pairings of their columns, and a product's pairings are the products of
its factors' (see ``measurement``).  So with F_q = R_q[:, :n]^T R_q[:, :n]
the Gram of party q's factors, H = o_{q != p} F_q (o the entrywise
product) that of the other parties' joint factors C_j, b = o_{q != p}
R_q[:, n]^T R_q[:, :n] their traces, and d = d_rest = prod_{q != p} d_q
the squared norm of their identity,

    G = Q^T Q = F_p o (H - b b^T / d).

Q's row count m is r_p (r_c - 1), less the rows ``build_q`` drops, with
r_q the row count of party q's frame and r_c <= min(prod_{q != p} r_q,
n + 1) that of the cut side.  So max(m, n) lies between n and M = max(n,
r_p (min(prod_{q != p} r_q, n + 1) - 1)) (``m._q_row_bracket(p)``).  Let
B = ``MARGINAL_RANK_BAND`` and f = ``RANK_FACTOR``.  With s1_lo <= sigma_1
<= s1_hi (below), the cutoff f max(m, n) sigma_1 lies between lo = f n
s1_lo and hi = f M s1_hi.
The certificate proves, for the Q the full route would build,

    sigma_n <= lo / (2B)    and    sigma_(n-1) >= 2B hi,

which puts sigma_n below the band's lower end, cutoff / B, and
sigma_(n-1) above its upper end, B cutoff, each with a factor 2 to spare.

* Magnitudes.  An entry of G subtracts b_i b_j / d from H_ij, and the two
  cancel where the other parties' factors lie near their identity (factors
  I +- eps Z), so every rounding is bounded through the magnitudes
  before the subtraction, Mg = |F_p| o (|H| + |b| |b|^T / d), never
  through G or its computed trace.  Each F_q is a Gram, so |F_q,ij| <=
  sqrt(F_q,ii F_q,jj), and |b_j| <= sqrt(d H_jj) (Cauchy-Schwarz).  So Mg
  <= z z^T + v v^T entrywise, with z_j^2 = F_p,jj H_jj and v_j^2 = F_p,jj
  b_j^2 / d, and |Mg|_2 <= |z|^2 + |v|^2 = trace(Mg) =: T, read off the
  diagonals alone.  Every column of Q has norm at most sqrt(T).
* Rounding.  With u = eps / 2, k the frames' largest row count, P the
  number of parties and N = M + n + 4 P (k + 1), omega = gamma_N = N u /
  (1 - N u) is at least every gamma_j met below (Higham, *Accuracy and
  Stability of Numerical Algorithms*, 2nd ed., sec. 3.1).  A frame keeps
  the pairings up to a backward error of the Householder form, eps times
  its columns' norms (see ``measurement.trimmed_r``), and a computed entry
  of F_q or b errs by at most gamma_k times the product of its columns'
  norms, sqrt(F_q,ii F_q,jj).  The products, the quotient and the
  difference add a few roundings each, relative to the same magnitudes:
  the computed G~ has |G~ - G| <= omega Mg entrywise, so |G~ - G|_2 <=
  omega T.
* The full route's Q.  ``build_q``'s Q is this Q with its rows rotated,
  up to the rounding of the frames, of the cut side's R, of the reflector
  and of the products: a backward error of the Householder form, eps times
  the columns' magnitudes, at most sh = omega sqrt(T) in the 2-norm.  The rows
  it drops have every entry at most ``Q_ROW_FLOOR`` max(1, sqrt(T) + sh),
  so they form a matrix D of 2-norm at most dl = ``Q_ROW_FLOOR`` max(1,
  sqrt(T) + sh) sqrt(M n).  Deleting rows raises no singular value, and
  lowers none by more than |D|_2 (Weyl).
* sigma_1.  max_j G_jj <= sigma_1^2 <= trace(G) (a Rayleigh quotient at
  e_j, and the trace), so s1_lo = sqrt(max_j G~_jj - omega T) - sh - dl
  and s1_hi = sqrt(S) + sh, S = trace(G~) + omega T.
* sigma_n <= |Q y| / |y| for y = w / sum(w) (Courant-Fischer).  At the
  root Abar is the identity, whose part off span_A (x) I is zero, so Q y
  is the part of sum_j y_j O_j - I / sum(w) off span_A (x) I: the
  completeness error, projected, over sum(w).  Its norm, read through the
  joint R as everywhere in the program (see ``tolerances``), is rho~ =
  |fl(joint_r [w; -1])|, and the joint R's folds and the product with [w;
  -1] err by at most 2 omega (sum_j w_j |O_j| + |I|), the columns' norms:
  |O_j|^2 = prod_q F_q,jj, and |I|^2 is the dimension D.  So r = ((1 + omega) rho~ + 2 omega
  (sum_j w_j |O_j| + |I|)) / sum(w) bounds |Q y|, and the full route's
  sigma_n is at most (1 + omega) r / |y| + sh.  The same r bounds its
  parent-residual test, |fl(Q y)|_inf <= r + 2 sh, which must pass
  ``RESIDUAL_TOL``.
* The ray is :func:`cones.half_line` of c' = y / |y|, as ``extreme_rays``'
  one-column route gives it on c'.  Its vanishing rule zeroes entries
  holding a share l of y's L1 mass, so |Q c| <= (r + l sqrt(T)) / (1 - l)
  for the L1-scaled ray c, and the route's residual test passes when that
  plus 2 sh is within ``NULLSPACE_RESIDUAL_TOL``.
* sigma_(n-1)^2 = lambda_2(G) >= lambda_1(G + t c' c'^T) for any t >= 0
  (Cauchy interlacing for a rank-one positive semidefinite update).  With
  t = S and theta = 2B hi + sh + dl, one Cholesky of G~ + t c' c'^T - tau
  I that runs to completion shows lambda_1 >= theta^2, so the full route's
  sigma_(n-1) is at least theta - sh - dl = 2B hi.  Three errors separate
  the matrix A that the Cholesky sees from G + t c' c'^T - tau I, each
  bounded in the 2-norm by that of its entrywise bound: the Gram's, at
  most omega T; forming A, gamma_4 of |G~| + t |c'| |c'|^T + tau I, at
  most omega ((1 + omega) (T + t) + tau); and the Cholesky's backward
  error, R^T R = A + dA with |dA| <= gamma_(n+1) |R^T| |R| (Higham, Thm
  10.3), at most omega (1 + omega)^2 (T + t) / (1 - omega).  A + dA is
  positive semidefinite, so lambda_1 >= tau - omega (3 (1 + omega)^2 (T +
  t) / (1 - omega) + tau), which is theta^2 for tau = (theta^2 + 3 omega
  (1 + omega)^2 (T + t) / (1 - omega)) / (1 - omega).

The few roundings in evaluating these bounds move them by a few u, well
inside the factors 2.  The full route then returns dimension 1 and no
marginal flag whenever its computed singular values are within e of those
of its Q: sigma_n + e stays at most K (sigma_1 - e) / B for e <= K sigma_1
/ (2 (B + K)), K = f max(m, n), and sigma_(n-1) - e at least B K (sigma_1
+ e) for e <= B K sigma_1 / (1 + B K).  So e may be about 4,500 max(m, n)
u sigma_1, far above the error of a backward-stable SVD, a modest multiple
of u sigma_1 (LAPACK Users' Guide, sec. 4.9).  Its null vector v makes an
angle with c' whose sine is at most |Q c'| / sigma_(n-1): roundoff for
weights complete to roundoff, and on the audit measurements the two rays
agree within 1e-15.  A certified cone is the half-line the full route
gives, and says so in :attr:`FeasibleCone.certified`.  Every other cone
takes the full route, with no Q-based certificate: one of dimension two or
more (its lambda_2 is zero), a gap the Gram's squaring leaves within
roundoff (a domino angle of 1e-7, whose sigma_(n-1) / sigma_1 is 8e-8),
weights off by more than roundoff (sigma_n of Q is still zero, but r is
not), and a G that cancels to within omega T (a party facing factors near
the identity).  Below the root it is not tried: most cones built from Q
there are a mover's, of dimension two or more.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import prod, sqrt

import numpy as np

from . import cones
from .errors import InconsistentNodeError, NotProductError
from .measurement import SeparableMeasurement
from .measurement import complement_span, local_span  # noqa: F401  (wrapped by name by the benchmark tracer)
from .operators import independent_subset  # noqa: F401  (wrapped by name by the benchmark tracer)
from .operators import project_factor
from .tolerances import (
    MARGINAL_RANK_BAND,
    NULLSPACE_RESIDUAL_TOL,
    Q_ROW_FLOOR,
    RESIDUAL_TOL,
    rank_threshold,
)


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
    root cone proved one-dimensional, unflagged, from the parties' frames,
    with no Q and no SVD (see :func:`certified_root_cones`).
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
    side = m.cut_r(p)
    acting, coords = m.party_rs[p][:, :n], side[:, :n]
    support = ctx.support
    if ctx.root:
        y = side[:, n]
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


def certified_root_cones(m: SeparableMeasurement) -> list[FeasibleCone | None]:
    """Each party's root cone where the frame certificate proves it the
    weights' half-line, else None, in the order of ``m.parties``.  The
    frames' Grams are built once per call; no Q is formed and no cut side
    is read.  The bounds are derived in the module docstring.  A
    measurement of one party or one outcome gets no certificate."""
    n, rs, dims = m.n_outcomes, m.party_rs, m.dims
    if n < 2 or len(rs) < 2:
        return [None] * len(rs)
    w = np.asarray(m.weights, dtype=float)
    total = float(w.sum())
    y = w / total
    y_norm = sqrt(float(y @ y))
    c_hat = y / y_norm
    ray = cones.half_line(c_hat)
    lost = float(y[ray == 0].sum())
    grams = [r[:, :n].T @ r[:, :n] for r in rs]
    diags = [g.diagonal() for g in grams]
    traces = [r[:, n] @ r[:, :n] for r in rs]        # b's factors, <I, F_j>
    spread = float(w @ np.sqrt(prod(diags))) + sqrt(prod(dims))   # sum w_j |O_j| + |I|
    gap = m.joint_r @ np.append(w, -1.0)
    residual = sqrt(float(gap @ gap))
    k = max(len(r) for r in rs)
    out: list[FeasibleCone | None] = []
    for p in range(len(rs)):
        others = [q for q in range(len(rs)) if q != p]
        rows = m._q_row_bracket(p)
        big = rows + n + 4 * len(rs) * (k + 1)
        omega = big * _UNIT_ROUNDOFF / (1 - big * _UNIT_ROUNDOFF)
        h, b = grams[others[0]], traces[others[0]]
        for q in others[1:]:
            h, b = h * grams[q], b * traces[q]
        d = float(prod(dims[q] for q in others))
        gram = grams[p] * (h - np.outer(b, b / d))
        mag = float(diags[p] @ (h.diagonal() + b * b / d))    # T = trace(Mg)
        g_diag = gram.diagonal()
        s_hi = max(0.0, float(g_diag.sum())) + omega * mag
        shift = omega * sqrt(mag)                                      # sh
        drop = Q_ROW_FLOOR * max(1.0, sqrt(mag) + shift) * sqrt(rows * n)  # dl
        s1_lo = sqrt(max(0.0, float(g_diag.max()) - omega * mag)) - shift - drop
        lo = rank_threshold((n, n), max(0.0, s1_lo))
        hi = rank_threshold((rows, n), sqrt(s_hi) + shift)
        qy = ((1 + omega) * residual + 2 * omega * spread) / total    # r >= |Q y|
        if not ((1 + omega) * qy / y_norm + shift <= lo / (2 * MARGINAL_RANK_BAND)
                and qy + 2 * shift <= RESIDUAL_TOL
                and (qy + lost * sqrt(mag)) / (1 - lost) + 2 * shift
                <= NULLSPACE_RESIDUAL_TOL):
            out.append(None)
            continue
        theta = 2 * MARGINAL_RANK_BAND * hi + shift + drop
        tau = (theta ** 2
               + 3 * omega * (1 + omega) ** 2 * (mag + s_hi) / (1 - omega)) / (1 - omega)
        gram += (s_hi * c_hat)[:, None] * c_hat
        gram.flat[::n + 1] -= tau
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            out.append(None)
            continue
        out.append(FeasibleCone(1, ray[None].copy(), False, certified=True))
    return out


def feasible_cone(ctx: NodeContext) -> FeasibleCone:
    """Nullspace dimension plus extreme rays of {c >= 0 : Q c = 0} on the
    context's support (see :attr:`NodeContext.support`), the rays embedded
    in n-outcome space.

    The parent coefficient vector must itself lie in the cone; a node that
    fails this, such as one that is not a product across the party's cut, is
    inconsistent with the measurement.  At the root, whose Abar is the
    identity, this tests completeness.  It is tested first, so an empty
    nullspace is blamed on the measurement only at a consistent node.  The
    cone then takes :func:`nullspace` and :func:`cones.extreme_rays`; the
    root cones that :func:`certified_root_cones` settles never come here.
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
        if parent_residual > RESIDUAL_TOL:
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
