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

The class route.  A party often measures in one orthonormal basis: a
conditional basis does at every node, and the first party of a one-way
protocol at the root.  Group the support's outcomes by the party's
factor, by exact equality (``m.factor_classes``).  The outcomes of class g
share one frame column a_g (the class table checks it when it is built),
so Q's columns for class g are a_g (x) T_g, T_g the class's columns of
the projected side T of :func:`_projection`, and

    Q = (A^ (x) I) Q~,    Q~ = blockdiag(|a_g|_2 T_g),

with its columns grouped by class and A^ the unit class columns a_g /
|a_g|_2.  Let N = A^^T A^ and delta >= |N - I|_2, the classes' leakage.

* Leakage.  ``m.class_leaks`` keeps the squares of the computed N - I.
  An entry of the computed N, a dot product of two computed unit columns
  of k entries, errs by at most 5 gamma_(k+2) (the norm, the quotient and
  the product, each relative to unit magnitudes), so for G classes delta
  = |fl(N - I)|_F (1 + omega) + 5 G omega, omega = gamma_(G^2 + k + 4),
  covers the squares and the sum too (``measurement.class_leakage``).  A
  support's classes are a principal submatrix, which leaks no more.
* The cone.  With delta < 1, A^ (x) I is injective, so Q c = 0 exactly
  when every |a_g|_2 T_g c_g = 0: the cone is the product of the class
  cones, and its rays are theirs.  The singular values of A^ (x) I lie in
  [rho_lo, rho_hi] = [sqrt(1 - delta), sqrt(1 + delta)], so sigma_i(Q) lies
  within [rho_lo, rho_hi] sigma_i(Q~) (sigma_i(X Y) <= |X|_2 sigma_i(Y),
  and >= sigma_min(X) sigma_i(Y) for X of full column rank), and Q~'s
  singular values are the blocks' pooled.
* Q's shape.  ``build_q``'s floor reads each row's largest entry.  Row
  (i, k) of Q has max_g |a_g[i]| max_(j in g) |T[k, j]|, and a rounded
  product is monotone and blind to signs, so the class form
  (:func:`_class_q`) counts the m rows ``build_q`` keeps and
  reads its largest entry exactly, with no Q.  The cutoff's shape is
  (m, |S|), M = max(m, |S|).  The dropped rows hold entries at most
  ``Q_ROW_FLOOR`` top (top = max(1, Q's largest entry)), so they form a D
  with |D|_2 <= dl = ``Q_ROW_FLOOR`` top sqrt((r_p (r_c - 1) - m) |S|),
  and deleting them lowers no singular value by more than dl (Weyl).
* The rank.  ``build_q`` rounds each entry of Q once, by at most u |Q|_F
  in all, and the blocks |a_g|_2 T_g are formed with |a_g|_2 to within
  gamma_(r_p + 4), so with e = dl + 2 gamma_(r_p + 4) rho_hi |Q~|_F plus
  the two SVDs' errors, the full route's computed sigma_i lie within
  [rho_lo s_i - e, rho_hi s_i + e] of the pooled computed s_i, sigma_1
  and its cutoff c = f M sigma_1 among them.  :func:`nullspace` pools the
  blocks' s_i under Q's rule, cutoff c~ = f M s_1 from Q's shape, with
  its band widened by kappa = 2 rho_hi / rho_lo, and the route answers
  only when no s_i lies in (c~ / (kappa B), kappa B c~) and e (1 + B /
  (f M)) <= rho_lo s_1 / 2.  Then s_i <= c~ / (kappa B) gives sigma_i <=
  rho_hi c~ / (kappa B) + e <= (f M (rho_lo s_1 - e)) / B <= c / B, and s_i
  >= kappa B c~ gives sigma_i >= rho_lo kappa B c~ - e >= B f M (rho_hi s_1
  + e) >= B c (B f M <= 1 for M below 10^10): the full route counts the
  same rank and flags no singular value.  The route tests e's explicit
  terms against rho_lo / 4 times the largest block column (at most s_1),
  which leaves the SVDs about rho_lo s_1 f M / (4 B), some 2,000 M u s_1,
  far above a backward-stable SVD's error, as for the certificate.
* The parent residual, max |Q c| / |c|_1, is read as max |(T o c)
  acting^T| over Q's rows in matrix form, with no Q.  The two evaluation
  orders differ by at most 2 gamma_(|S|+2) max|acting| max|T|, and the
  rows ``build_q`` drops only lower Q's; the route answers only when the
  reading plus that slack passes ``RESIDUAL_TOL``, and leaves every other
  node, a failing one included, to the full route.
* The ray residuals.  A ray c of class g is zero off g, so Q c = a_g (x)
  T_g c_g, whose max norm is |a_g|_max |T_g c_g|_max: the max norm of
  a_g, not its 2-norm.  The route reads it on |a_g|_max T_g, and the two
  readings differ by at most the slack 2 gamma_(|S|+2) |a_g|_max |T_g|_max.
  The one-dimensional classes' half-lines are read together on a strict
  test (|a_g|_max T_g scaled by tol / (tol - 2 slack)), which every ray
  must pass; a larger class's rays on a lenient one (scaled by tol / (tol
  + 2 slack)), so that a ray it drops fails Q's as well, and every ray it
  keeps must pass the tolerance less the slack.  Since ``Q_ROW_FLOOR`` top
  <= tol / 2 is required, a ray above the tolerance is above it on a row
  ``build_q`` keeps.
* The rays.  Rays of different classes have disjoint supports, so
  ``extreme_rays``' lexicographic order (entries rounded to 12 digits) is
  decided by the first entry that rounds to nonzero, and the rays of one
  class come from ``extreme_rays`` in that order already.  The basis of
  Q's nullspace is the classes' bases up to a rotation, which keeps each
  row's norm, so the activity rule (a cut relative to the entry's own
  row) reads the same rows.  The vanishing rule does not: with two or
  more dimensions in all, the full route zeroes an entry whose row is at
  most ``_VANISHING_TOL`` of the largest row of the whole basis, a class
  cone at most that of its own largest row.  Where a row lies between the
  two, the full route decides.  Left to rounding is which side of a
  threshold a computed row falls on, which the two routes' SVDs may read
  differently and the rank rule's gap does not bound, and the entries a
  ray leaves on other classes' rows: exact zeros here, the full route's
  rounding there, which its activity cut clears unless the row is within
  some 1e-6 of vanishing.  On the 163 audit measurements the rays agree
  with the full route's within 1e-15 and zero for zero, 48 root cones
  and 72 below the root taking the route.

The route forms no Q, takes no QR of Q and runs no double description.
It applies when the support holds three or more classes, delta < 1 and
Q keeps a row; with two classes each class cone is usually a half-line,
the full route's cone an arc read in closed form, and the route's fixed
cost loses (shared 2-core x86 host, one BLAS thread, best of 30, class
route against full route, on cones the benchmark's searches build):

=========  ==========  =======  =======
support    classes     class    full
=========  ==========  =======  =======
4          2           273 µs   124 µs
16         2           248 µs   141 µs
9          3           200 µs   175 µs
27         3           305 µs   395 µs
36         6           264 µs   430 µs
64         8           351 µs   1,201 µs
125        5           794 µs   3,498 µs
=========  ==========  =======  =======

At the root the weights lie in every class's block's nullspace, by
completeness, so a party whose weights split over two classes has a cone
of two dimensions or more, which the certificate cannot certify: with
w_g the weights on class g, |Q~ w_g| <= |Q~ w| <= |Q w| / rho_lo, so on
the plane of two of them sigma_(n-1)(Q) <= (rho_hi / rho_lo) |Q w| /
min_g |w_g|, while a certificate proves sigma_(n-1) >= 2 B lo and |Q w|
/ |w| <= lo / (2 B).  Both hold only if min_g |w_g| <= (rho_hi /
rho_lo) |w| / (4 B^2), so a party whose second-largest class share of
|w|_2 exceeds twice that skips the certificate (:func:`_weights_split`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import prod, sqrt
from typing import NamedTuple

import numpy as np

from . import cones
from .errors import InconsistentNodeError, NotProductError
from .measurement import SeparableMeasurement, class_leakage, gamma
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
    with no Q and no SVD (see :func:`certified_root_cones`).  ``blocks`` is
    the number of factor classes a cone read class by class was built from
    (see :func:`_class_cone`), and 1 for every other cone.
    """

    nullspace_dim: int
    extreme_rays: np.ndarray
    marginal_rank: bool
    certified: bool = False
    blocks: int = 1


def _bystander_coords(acting: np.ndarray, coords: np.ndarray, coeffs) -> np.ndarray:
    """Abar's coordinates y, up to scale: a product node X (x) Abar has the
    realignment core acting diag(c) coords^T = x y^T, whose largest-norm row
    is taken."""
    core = (acting * np.asarray(coeffs, dtype=float)) @ coords.T
    return core[np.argmax(np.einsum("ij,ij->i", core, core))]


def _projection(ctx: NodeContext) -> tuple[np.ndarray, np.ndarray]:
    """The two sides of :func:`build_q`'s Q on the context's support: the
    party's frame columns ``acting`` (r_p, |S|) and the cut side's columns
    projected off Abar, ``T`` (r_c - 1, |S|), with no rows when the side
    has one.  Column j of Q is acting[:, j] (x) T[:, j]."""
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
        return acting, coords[:0]
    u[0] += norm if u[0] >= 0 else -norm                    # same sign: no cancellation
    u /= sqrt(float(u @ u))
    return acting, coords[1:] - 2.0 * (u[1:, None] * (u @ coords))


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
    Householder reflector that maps y onto the first axis are such a basis
    (:func:`_projection`).
    """
    acting, t_bys = _projection(ctx)
    q = (acting[:, None, :] * t_bys[None, :, :]).reshape(-1, acting.shape[1])
    if not len(q):
        return q
    row_max = np.abs(q).max(axis=1)
    return q[row_max > Q_ROW_FLOOR * max(1.0, float(row_max.max()))]


class ClassQ(NamedTuple):
    """Q in class form, its columns never formed: with the support's
    positions in the order that groups them by factor class, column i is
    acting[:, i] (x) t[:, i].  ``shape`` and ``top`` are those of the Q that
    :func:`build_q` forms, after its row floor, and max(1, its largest
    entry)."""

    acting: np.ndarray
    t: np.ndarray
    shape: tuple[int, int]
    top: float


def _class_q(ctx: NodeContext, order: np.ndarray, starts: np.ndarray) -> ClassQ:
    """:func:`build_q`'s Q in class form, after the same projection, the
    support's positions taken in ``order``, which groups them by the
    party's factor class, class g starting at ``starts[g]``.  The row count
    is exact: row (i, k) of Q has largest entry max_g |a_g[i]| max_(j in g)
    |T[k, j]|, a_g the class's frame column, because rounding a product is
    monotone and blind to signs."""
    acting, t_bys = _projection(ctx)
    cols = np.abs(acting[:, order[starts]])
    t_bys = t_bys[:, order]
    row_max = (cols[:, None, :] * np.maximum.reduceat(np.abs(t_bys), starts, axis=1)
               [None, :, :]).max(axis=2) if len(t_bys) else cols[:, :0]
    top = max(1.0, float(row_max.max(initial=0.0)))
    kept = int(np.count_nonzero(row_max > Q_ROW_FLOOR * top))
    return ClassQ(acting[:, order], t_bys, (kept, len(order)), top)


class ClassBlocks(NamedTuple):
    """Q's column blocks, one per factor class, standing for Q in
    :func:`nullspace`: ``stacks`` of (G, rows, width) blocks, one stack per
    class width, Q's ``shape`` after :func:`build_q`'s row floor, and the
    factor ``spread`` by which the marginal band widens to cover the
    classes' leakage (see the module docstring)."""

    stacks: list[np.ndarray]
    shape: tuple[int, int]
    spread: float


def nullspace(q, n_cols: int) -> tuple:
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

    ``q`` may instead be :class:`ClassBlocks`, Q's column blocks.  One
    batched SVD per stack gives the blocks' singular values, which are
    pooled and decided by the same rule, with the cutoff from Q's shape and
    the pooled largest value, and the band widened by the blocks' spread.
    The result is then, per stack, the blocks' right singular vectors (G,
    width, width), whose rows past a block's rank span its nullspace, and
    the (G,) ranks; and a flag that a pooled value fell in the widened band,
    where the blocks do not settle Q's rank (see the module docstring).
    """
    if isinstance(q, ClassBlocks):
        svds = [np.linalg.svd(s, full_matrices=s.shape[1] < s.shape[2])[1:] for s in q.stacks]
        sigma = np.concatenate([s.ravel() for s, _ in svds])
        cutoff, marginal = _rank_rule(sigma, q.shape, MARGINAL_RANK_BAND * q.spread)
        return [(vh, np.count_nonzero(s > cutoff, axis=1)) for s, vh in svds], marginal
    if q.shape[0] == 0:
        return np.eye(n_cols), False
    rows, cols = q.shape
    a = np.linalg.qr(q, mode="r") if rows > cols >= 32 else q
    # V is needed whole, so a wide Q takes full_matrices
    _, sigma, vh = np.linalg.svd(a, full_matrices=rows < cols)
    cutoff, marginal = _rank_rule(sigma, q.shape, MARGINAL_RANK_BAND)
    return vh[np.count_nonzero(sigma > cutoff):].T, marginal


def _rank_rule(sigma: np.ndarray, shape: tuple[int, int], band: float) -> tuple[float, bool]:
    """The rank cutoff for singular values ``sigma`` of a ``shape`` matrix,
    and whether one lies in the open band (cutoff / band, cutoff * band):
    the case when more lie above its lower end than at or above its upper
    one."""
    cutoff = rank_threshold(shape, float(sigma.max()))
    marginal = bool(np.count_nonzero(sigma > cutoff / band)
                    > np.count_nonzero(sigma >= cutoff * band))
    return cutoff, marginal


def certified_root_cones(m: SeparableMeasurement) -> list[FeasibleCone | None]:
    """Each party's root cone where the frame certificate proves it the
    weights' half-line, else None, in the order of ``m.parties``.  The
    frames' Grams are built once per call; no Q is formed and no cut side
    is read.  The bounds are derived in the module docstring.  A
    measurement of one party or one outcome gets no certificate, and
    neither does a party whose weights split over two of its factor
    classes, which it cannot certify (:func:`_weights_split`)."""
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
        if _weights_split(m, p):
            out.append(None)
            continue
        others = [q for q in range(len(rs)) if q != p]
        rows = m._q_row_bracket(p)
        big = rows + n + 4 * len(rs) * (k + 1)
        omega = gamma(big)
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

    A party whose factor classes stand for Q's column blocks takes the
    class route first (:func:`_class_cone`), and this route only where that
    one does not settle the cone.
    """
    cone = _class_cone(ctx)
    if cone is not None:
        return cone
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


def _weights_split(m: SeparableMeasurement, party: int) -> bool:
    """Whether the root weights split over two of the party's factor
    classes, each holding more than rho / (2 B^2) of their 2-norm: the
    certificate then cannot certify the party (see the module docstring)."""
    leaks = m.class_leaks(party)
    if leaks is None or not leaks[1] < 1.0:
        return False
    w = np.asarray(m.weights, dtype=float)
    shares = np.sqrt(np.bincount(m.factor_classes[party], weights=w * w))
    rho = sqrt((1.0 + leaks[1]) / (1.0 - leaks[1]))
    return float(np.partition(shares, -2)[-2]) > \
        rho / (2 * MARGINAL_RANK_BAND ** 2) * sqrt(float(w @ w))


def _class_cone(ctx: NodeContext) -> FeasibleCone | None:
    """The cone read class by class, or None where the class route does
    not apply or does not settle every decision of the full route on Q (see
    the module docstring): fewer than three classes on the support,
    classes that leak too much, a residual or a singular value within its rounding
    of a threshold, a basis row that the full route's vanishing rule would
    read otherwise, an empty nullspace or a class cone that the rays cannot
    read."""
    m, p = ctx.measurement, ctx.acting_party
    leaks = m.class_leaks(p)
    if leaks is None:
        return None
    ids = m.factor_classes[p] if ctx.root else m.factor_classes[p][ctx.support]
    classes = sorted(set(ids.tolist()))
    if len(classes) < 3:                # two classes: the full route reads an arc
        return None
    leak = leaks[1] if len(classes) == len(leaks[0]) else \
        class_leakage(leaks[0][np.ix_(classes, classes)], len(m.party_rs[p]))
    if not leak < 1.0:
        return None
    order = np.argsort(ids, kind="stable")
    starts = np.searchsorted(ids[order], classes)
    q = _class_q(ctx, order, starts)
    acting, t, (kept, width) = q.acting, q.t, q.shape
    if kept == 0 or not Q_ROW_FLOOR * q.top <= NULLSPACE_RESIDUAL_TOL / 2:
        return None
    omega = gamma(width + 2)
    c = np.asarray(ctx.coeffs, dtype=float)
    c = (c if ctx.root else c[ctx.support])[order]
    # the parent-residual test, max |Q c| / |c|_1 read as max |(T o c) acting^T|
    parent = float(np.abs((t * (c / float(np.abs(c).sum()))) @ acting.T).max())
    if not parent + 2 * omega * float(np.abs(acting).max() * np.abs(t).max()) <= RESIDUAL_TOL:
        return None

    cols = acting[:, starts]                            # one frame column per class
    norms = np.sqrt(np.einsum("ij,ij->j", cols, cols))  # |a_g|_2
    tops = np.abs(cols).max(axis=0)                     # |a_g|_max
    sizes = np.diff(starts, append=width)
    # T's columns of each class, stacked by class width
    if (sizes == sizes[0]).all():                       # equal widths
        groups = [np.arange(len(starts))]
        raw = [t.reshape(len(t), len(starts), -1).transpose(1, 0, 2)]
    else:
        groups = [np.flatnonzero(sizes == size) for size in np.unique(sizes)]
        raw = [t[:, starts[which, None] + np.arange(sizes[which[0]])].transpose(1, 0, 2)
               for which in groups]
    stacks = [r * norms[which, None, None] for r, which in zip(raw, groups)]
    # the additive errors: Q's dropped rows, and the rounding of Q's and the
    # blocks' entries; the largest column bounds the largest singular value
    squares = [np.einsum("gij,gij->gj", s, s) for s in stacks]
    extra = (Q_ROW_FLOOR * q.top * sqrt((len(acting) * len(t) - kept) * width)
             + 2 * gamma(len(acting) + 4) * sqrt((1 + leak) * sum(map(np.sum, squares))))
    column = max(map(np.max, squares))
    if not extra * (1 + MARGINAL_RANK_BAND / rank_threshold(q.shape, 1.0)) \
            <= sqrt((1 - leak) * column) / 4:
        return None
    spread = 2 * sqrt((1 + leak) / (1 - leak))
    svds, unsettled = nullspace(ClassBlocks(stacks, q.shape, spread), width)
    if unsettled:
        return None
    # the vanishing rule: the full route zeroes an entry whose basis row is
    # at most _VANISHING_TOL of the largest row of Q's whole nullspace basis,
    # each class its own cone's; an entry between the two goes to Q
    rows = [np.sqrt(np.einsum("gij,gij->gj", vh, vh * (np.arange(vh.shape[1])[:, None]
                                                     >= ranks[:, None, None])))
            for vh, ranks in svds]
    whole = cones._VANISHING_TOL * max(float(r.max()) for r in rows)
    if any(((r > cones._VANISHING_TOL * r.max(axis=1, keepdims=True)) & (r <= whole)).any()
           for r in rows):
        return None

    # each class's rays, residual-tested as Q tests them: Q's residual on a
    # ray c of class g is |a_g|_max |T_g c|_max, and the test is settled
    # only where that is not within its slack of the tolerance
    found, dim = [], 0
    for which, block, (vh, ranks) in zip(groups, raw, svds):
        dims = vh.shape[1] - ranks
        dim += int(dims.sum())
        slack = 2 * omega * np.abs(block).max(axis=(1, 2))
        single = np.flatnonzero(dims == 1)
        if len(single):
            # the one-dimensional classes' half-lines at once, on a strict
            # test: every ray passes it with room, or the stack fails
            strict = block[single] * (tops[which[single]] * NULLSPACE_RESIDUAL_TOL / (
                NULLSPACE_RESIDUAL_TOL - 2 * tops[which[single]] * slack[single]))[:, None, None]
            try:    # extreme_rays is looked up per call: the benchmark tracer wraps it
                found.append((which[single], cones.extreme_rays(
                    strict, vh[single, -1:].transpose(0, 2, 1))))
            except cones.ConeError:
                return None
        for i in np.flatnonzero(dims > 1):
            # a lenient test, so that a ray it drops fails Q's as well
            g, room = which[i], tops[which[i]] * slack[i]
            try:
                rays = cones.extreme_rays(block[i] * (tops[g] * NULLSPACE_RESIDUAL_TOL / (
                    NULLSPACE_RESIDUAL_TOL + 2 * room)), vh[i, ranks[i]:].T)
            except cones.ConeError:
                return None
            if not np.abs(rays @ block[i].T).max() * tops[g] <= NULLSPACE_RESIDUAL_TOL - room:
                return None
            found.append((np.full(len(rays), g), rays))
    if not dim:
        return None
    rays = np.zeros((sum(len(r) for _, r in found), width))
    at = 0
    for g, r in found:                  # each ray on its class's support positions
        rays[np.arange(at, at + len(r))[:, None],
             order[starts[g, None] + np.arange(r.shape[1])]] = r
        at += len(r)
    # extreme_rays' order: rays of different classes have disjoint supports,
    # so the first entry that rounds to nonzero on either decides, and rays
    # of one class come in that order already
    rays = rays[np.argsort(-(np.round(rays, 12) != 0).argmax(axis=1), kind="stable")]
    if not ctx.root:
        embedded = np.zeros((len(rays), m.n_outcomes))
        embedded[:, ctx.support] = rays
        rays = embedded
    return FeasibleCone(dim, rays, False, blocks=len(starts))


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
