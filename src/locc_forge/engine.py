"""Protocol search: which party measures when, and with what outcomes.

The search is depth-first with iterative deepening, so the first tree found
has minimal depth.  At each node every party except the one that just
measured gets a feasibility analysis; each splitting of the node vector
into extreme rays of the party's cone becomes a candidate measurement, and
a branch dies when no party can split a node that is not yet a final
outcome.  Each deepening pass revisits the nodes of the one before, so a
run keeps every node's cone per party (keyed by the node's direction) and
its splits per party (keyed by its exact coefficients, since the split
scales grow with the node): each node is analysed and split once per run.
Impossibility is only ever certified at the root: if the root is
not itself a final outcome and every party's root cone is one-dimensional,
no first measurement exists and no protocol of any length (finite or not)
can implement the measurement.
Dead ends below the root merely terminate the search, because children are
drawn from extreme rays only and a non-extremal split that was not tried
could in principle exist; exhaustion therefore reports INCONCLUSIVE.

The search is finite, so deepening needs no round cap.  A split uses two or
more extreme rays of a cone of dimension k >= 2 (one-dimensional cones are
skipped).  Each extreme ray is active on at least k - 1 of the cone's
facets c_j = 0 with j in the node's support, none of which vanishes on the
whole cone (the node lies in it with c_j > 0), and ``extreme_rays`` sets the
active entries to exactly 0.  So every child's support is a strict subset
of its parent's, and no tree is deeper than n_outcomes - 1.  A deepening
pass that fails without cutting any branch at its depth has explored every
extreme-ray splitting, and every deeper pass would fail the same way: that
is what INCONCLUSIVE means.

Below the root, on a cone-cache miss, two parties are settled before Q is
built: a party that cannot move, and a final mover, after whom no party
can move.  (At the root, ``check_root`` settles each party's cone that
the frame certificate proves one-dimensional with no Q, and builds Q for
the others; see ``feasibility``.)  At any node, a
party whose cone is the whole orthant splits it in closed form.

A party that cannot move has the same factor F on every outcome of the
node's support S.  Then sum_j c'_j O_j = F (x) sum_j c'_j C_j, with C_j the
other parties' factors, lies in span_A (x) Abar exactly when sum_j c'_j C_j
is parallel to Abar, itself parallel to sum_j c_j C_j: the party's cone
lies in span{c} + ker(O_S), since sum_j c'_j C_j = 0 exactly when sum_j
c'_j O_j = 0.  When the outcome operators are linearly independent,
ker(O_S) = {0}, the cone is the half-line of c, and the party is skipped.
Q's rank decision agrees, given the margin the measurement's certificate
``SeparableMeasurement.outcomes_independent`` demands.  Q's columns are
a (x) t_j, a the coordinates of F and t_j those of C_j projected off Abar,
so Q's singular values are |F| times those of P C_S, P the projection.
Removing one direction interlaces, sigma_(|S|-1)(P C_S) >= sigma_min(C_S),
and |F| sigma(C_S) = sigma(O_S), whose ratio sigma_min / sigma_max is at
least that of all n outcomes.  So Q's |S| - 1 nonzero singular values are
at least 4 B RANK_FACTOR rows times the largest, B the marginal band and
rows at least Q's larger side.  The rows ``build_q`` drops as zero lower
them by at most a factor sqrt(2) (the certificate's floor on sigma_min),
which leaves them above twice B times the rank cutoff: counted, and not
marginal, with room for the SVD's roundoff.  The last singular value, along
c, is zero up to roundoff, as at every node whose product structure is
exact, and falls below the cutoff over B.  So the full route would return
dimension 1 with no marginal flag, and with no error: c lies in the cone.

A final mover p is a party such that every other party q has one factor
C^q on every outcome of S.  Then sum_j c'_j O_j = (sum_j c'_j A_j) (x) C,
A_j the mover's factors and C the product of the C^q, for every c' >= 0 on
S.  The node's bystander operator Abar is parallel to C, so every such c'
is admissible: the cone is exactly the orthant on S, of dimension |S|, with
the unit vectors e_j as rays.  The argument is exact and needs no
independence of the outcomes.  It is read off the factors' equality,
entry for entry, the test that settles a party that cannot move: both
compare the measurement's class ids (``factor_classes``, equal exactly
where the factors are) on the support, for every party at once.  The
cone is returned as the full route returns an orthant (rays e_j, last
outcome of S first, no marginal flag), so :func:`final_split` recognises
it.  Q is not formed, because its rows cannot be trusted here: all
r_p (r_c - 1) of them are roundoff, left by projecting C off Abar, and
they grow with the factors.  With no true row to measure them against, ``build_q`` drops them
only below its absolute floor ``Q_ROW_FLOOR``; scaled up (every factor of
conditional_basis(2, 3, 0) times 30, the weights over 900), they clear it,
pass for constraints, and the nullspace comes out empty.

A party whose cone is the whole orthant on S, a final mover or one whose Q
has no rows, resolves every outcome of S: every child of every split into
the rays e_j is a leaf.  The node's one split is c = sum_j c_j e_j
when every c_j clears :func:`decompose`'s subset bound (see
:func:`final_split`); it is read off in closed form, with no decompose
call.  A node with a smaller coefficient is split by decompose on the same
rays.

A cone with exactly two rays r_0, r_1 splits a node c in closed form too
(:func:`planar_split`, tried after :func:`final_split`).  Independent rays
give at most one split, since c = s_0 r_0 + s_1 r_1 has one solution, and
decompose on two rays solves that one least-squares problem and queues no
subset.  When the rays pass its independence test (sigma_min above
``SPLIT_BOUND_MARGIN`` times the rank cutoff), it takes nonnegative
least-squares scales as they are, with no NNLS, and its split is
((0, 1), s) exactly when both rays are usable (neither parallel to c), the 2-norm residual is
within bound = sqrt(n) ``RESIDUAL_TOL`` max(1, max c), both scales are
above ``SCALE_TOL``, and the max-norm residual is within ``RESIDUAL_TOL``
max(1, max c).  The closed form answers only where its own numbers, which
differ from decompose's by roundoff, pass these tests: sigma_min above the
margin, the max-norm residual within its bound (which puts the 2-norm one
within ``bound``), and both scales above twice the subset bound,
2 bound / sigma_min.  The scale test also settles usability and
``SCALE_TOL``, with room.  The rays are L1-normalized, so sigma_min <= sqrt(2) and
4 bound / sigma_min >= 4e-8 > ``SCALE_TOL``.  And c lies at distance at
least s_1 sigma_min > 4 bound from the line of r_0 (and likewise for r_1),
so its max-norm distance exceeds 4 ``RESIDUAL_TOL`` max(1, max c): each
ray is usable.  Anywhere else decompose splits the node as before, so the
closed form changes a split only by the rounding difference between two
least-squares solvers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from math import hypot, sqrt
from typing import Sequence

import numpy as np

from .cones import RayDecomposition, decompose
from .errors import LoccForgeError
from .feasibility import (
    FeasibleCone,
    NodeContext,
    certified_root_cones,
    feasible_cone,
    root_context,
)
from .feasibility import factorize  # noqa: F401  (wrapped by name by the benchmark tracer)
from .measurement import SeparableMeasurement
from .tolerances import LEAF_SUPPORT_TOL, RESIDUAL_TOL, SPLIT_BOUND_MARGIN, rank_threshold


class Verdict(str, Enum):
    PROTOCOL_FOUND = "PROTOCOL_FOUND"
    IMPOSSIBLE_AT_ROOT = "IMPOSSIBLE_AT_ROOT"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(eq=False)
class ProtocolNode:
    """One node of an LOCC tree.

    ``acting_party`` is the index of the party whose measurement produced
    the node (None at the root).  ``leaf_outcome`` is an (outcome index,
    scale) pair present exactly on leaves.
    """

    coeffs: np.ndarray
    acting_party: int | None
    children: tuple["ProtocolNode", ...]
    leaf_outcome: tuple[int, float] | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def walk(self, path: str = "root"):
        """(node, path) pairs in preorder, children in order; child i of the
        node at ``path`` is at ``path.i``."""
        stack = [(self, path)]
        while stack:
            node, path = stack.pop()
            yield node, path
            for i in range(len(node.children) - 1, -1, -1):
                stack.append((node.children[i], f"{path}.{i}"))

    def leaves(self, path: str = "root"):
        return [(node, p) for node, p in self.walk(path) if node.is_leaf]

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(c.depth() for c in self.children)


@dataclass
class SearchStats:
    """Counts of one synthesis run.  Below the root, a (party, node
    direction) pair's cone is analysed once and counted once: in
    ``cones_built`` if it was built from Q, in ``parties_skipped`` if the
    party cannot move, or in ``orthants`` if the party is a final mover;
    ``final_splits`` counts the nodes a party split into their outcomes in
    closed form, and ``planar_splits`` the nodes split into a two-ray
    cone's rays in closed form (see the module docstring).
    ``class_cones`` counts the cones of ``cones_built`` that were read
    class by class (``FeasibleCone.blocks`` above 1; see ``feasibility``)."""

    nodes_expanded: int = 0
    dead_ends: int = 0
    wall_time: float = 0.0
    cones_built: int = 0
    parties_skipped: int = 0
    orthants: int = 0
    final_splits: int = 0
    planar_splits: int = 0
    class_cones: int = 0


@dataclass(eq=False)
class Certificate:
    """Outcome of a synthesis run, with enough evidence to audit it."""

    verdict: Verdict
    root_dims: tuple[int, ...]
    search_stats: SearchStats
    tree: ProtocolNode | None = None


def check_root(m: SeparableMeasurement) -> list[FeasibleCone]:
    """Each party's root cone, the feasibility of its first measurement, in
    the order of ``m.parties``.

    A cone that :func:`certified_root_cones` proves one-dimensional from
    the parties' frames is taken as it is, with no Q; every other party's
    cone is built by :func:`feasible_cone`, class by class where the
    party's factor classes stand for Q's column blocks (see
    ``feasibility``), else from Q.  All parties' root
    dimensions equal to one certifies that no LOCC protocol for the
    measurement exists, once :func:`impossible_at_root` has checked the
    cones.
    """
    return [feasible_cone(root_context(m, p)) if cone is None else cone
            for p, cone in enumerate(certified_root_cones(m))]


def impossible_at_root(m: SeparableMeasurement,
                       roots: Sequence[FeasibleCone]) -> bool:
    """Whether the root cones certify that no LOCC protocol exists: every
    party's cone is one-dimensional, and the root is not already a single
    outcome (which needs no measurement at all).

    Before it says so, a soundness check: each party's only root ray must
    be the completeness vector, whose operator is the identity.  The
    identity is tested as completeness is everywhere else, by the
    Frobenius norm of sum_j c_j O_j - I read through ``m.joint_r``.  The
    measurement is complete by construction, so the check guards against
    roots that are not its own: a ray within RESIDUAL_TOL of the weights'
    direction still misses the identity where it errs on a large outcome.
    A failure raises :class:`LoccForgeError` rather than certify a false
    verdict.  A root cone certified from the parties' frames
    (``FeasibleCone.certified``) has the weights' direction as its ray by
    construction, so the ray test cannot fail there; the identity
    reconstruction still runs on it.  An audit of the verdict independent
    of the search must therefore not read these cones, nor
    ``feasibility``.
    """
    if leaf_outcome(m.weights) is not None or any(
            root.nullspace_dim != 1 for root in roots):
        return False
    w = np.asarray(m.weights, dtype=float)
    w_dir = w / w.sum()
    for root in roots:
        if len(root.extreme_rays) != 1:
            raise LoccForgeError("impossibility self-check failed: stray ray")
        ray = root.extreme_rays[0]
        if float(np.abs(ray - w_dir).max()) > RESIDUAL_TOL:
            raise LoccForgeError(
                "impossibility self-check failed: root ray is not the "
                "completeness vector")
        c = ray / ray.sum() * w.sum()
        gap = float(np.linalg.norm(m.joint_r @ np.append(c, -1.0)))
        if not gap <= 10 * RESIDUAL_TOL:     # a NaN gap fails too
            raise LoccForgeError(
                "impossibility self-check failed: root ray does not "
                "reconstruct the identity")
    return True


def _coeff_key(coeffs: np.ndarray) -> tuple:
    l1 = float(np.abs(coeffs).sum())
    if l1 == 0:
        return (0,)
    return tuple(np.round(coeffs / l1, 9).tolist())   # Python floats hash faster


def leaf_outcome(coeffs: np.ndarray) -> tuple[int, float] | None:
    """(outcome index, scale) if the node is a final outcome, else None.

    A leaf is a node on a single outcome j: its largest coefficient c_j is
    positive and every other one is at most ``LEAF_SUPPORT_TOL * c_j``.
    Its scale is c_j, so the leaves labelled j add up to w_j exactly when
    the tree implements the measurement.  A node whose operator merely
    equals s O_j while its coefficients sit on several outcomes (possible
    when outcome operators are linearly dependent) is not a leaf: filed
    under j, it would report the other outcomes' shares as j's.
    """
    c = np.asarray(coeffs, dtype=float)
    order = np.argsort(c)
    top = float(c[order[-1]])
    if top <= 0:
        return None
    second = float(c[order[-2]]) if c.size > 1 else 0.0
    if second <= LEAF_SUPPORT_TOL * top:
        return int(order[-1]), top
    return None


class _Search:
    """Shared state for one synthesis run."""

    def __init__(self, m: SeparableMeasurement):
        self.m = m
        self.stats = SearchStats()
        self.cones: dict[tuple, FeasibleCone] = {}
        self.splits: dict[tuple, list[RayDecomposition]] = {}
        self.failed: set[tuple] = set()
        self.cut = False        # whether this pass cut a branch at its depth

    def cone_at(self, party: int, coeffs: np.ndarray, key: tuple) -> FeasibleCone:
        """The party's cone at the node, cached under the node's
        ``_coeff_key``, which the caller computes once per node."""
        cone = self.cones.get((party, key))
        if cone is None:
            cone = self.cones[party, key] = self.analyse(party, coeffs)
        return cone

    def analyse(self, party: int, coeffs: np.ndarray) -> FeasibleCone:
        """The party's cone at a node below the root.  A party that cannot
        move gets its one-dimensional cone, and a final mover (no other
        party can move) its orthant, without Q (see the module docstring);
        any other party's cone is built."""
        m = self.m
        support = np.flatnonzero(coeffs)
        ids = m.factor_classes[:, support]
        one_factor = (ids == ids[:, :1]).all(axis=1)       # per party, on the support
        if one_factor[party] and m.outcomes_independent:
            self.stats.parties_skipped += 1
            return FeasibleCone(1, (coeffs / coeffs.sum())[None], False)
        one_factor[party] = True
        if one_factor.all():
            self.stats.orthants += 1
            return FeasibleCone(len(support), np.eye(len(coeffs))[support[::-1]], False)
        self.stats.cones_built += 1
        cone = feasible_cone(NodeContext(m, party, coeffs))
        self.stats.class_cones += cone.blocks > 1
        return cone

    def splits_at(self, party: int, coeffs: np.ndarray,
                  rays: np.ndarray) -> list[RayDecomposition]:
        """The node's splits into the party's rays, kept for later passes.
        Keyed by the exact coefficients: the cone is the same along the
        node's direction, but the scales grow with the node.  An orthant's
        one split is read off by :func:`final_split`, and a two-ray cone's
        by :func:`planar_split`."""
        key = (party, coeffs.tobytes())
        splits = self.splits.get(key)
        if splits is None:
            split = final_split(coeffs, rays)
            if split is not None:
                self.stats.final_splits += 1
            elif len(rays) == 2 and (split := planar_split(coeffs, rays)) is not None:
                self.stats.planar_splits += 1
            # decompose is looked up per call: the benchmark tracer wraps it
            splits = [split] if split is not None else decompose(coeffs, rays)
            self.splits[key] = splits
        return splits

    def run(self, coeffs: np.ndarray, produced_by: int | None,
            remaining: int) -> ProtocolNode | None:
        m = self.m
        leaf = leaf_outcome(coeffs)
        if leaf is not None:
            return ProtocolNode(coeffs, produced_by, (), leaf)
        if remaining == 0:
            self.cut = True
            self.stats.dead_ends += 1
            return None
        key = _coeff_key(coeffs)
        memo_key = (produced_by, remaining, key)
        if memo_key in self.failed:
            return None
        self.stats.nodes_expanded += 1

        for party in range(len(m.parties)):
            if party == produced_by:
                continue
            cone = self.cone_at(party, coeffs, key)
            if cone.nullspace_dim == 1:
                continue
            rays = cone.extreme_rays
            for dec in self.splits_at(party, coeffs, rays):
                children = []
                for i, s in zip(dec.rays_used, dec.scales):
                    child = self.run(s * rays[i], party, remaining - 1)
                    if child is None:
                        break
                    children.append(child)
                else:
                    return ProtocolNode(coeffs, produced_by, tuple(children))
        self.failed.add(memo_key)
        self.stats.dead_ends += 1
        return None


def final_split(coeffs: np.ndarray, rays: np.ndarray) -> RayDecomposition | None:
    """The split of a node into its outcomes, c = sum_j c_j e_j, when the
    party's cone is an orthant: every ray, in order, ray i scaled by the
    coefficient of its outcome, as :func:`decompose` gives it.  None unless
    the rays are the unit vectors e_j of the node's support (distinct
    extreme rays on one axis each are those) and every coefficient clears
    twice decompose's subset bound.

    decompose's least-squares scales on orthonormal rays are the c_j, every
    ray is usable (none is parallel to a node on two or more outcomes), and
    it queues no subset of the rays once sigma_min * min_j c_j exceeds its
    subset bound 2 sqrt(n) ``RESIDUAL_TOL`` max(1, max_j c_j), sigma_min = 1
    here; no coefficient then falls below ``SCALE_TOL`` either.  The closed
    form requires twice that bound, room for the ulps by which decompose's
    scales and sigma_min miss the exact ones.
    """
    # one nonzero entry per ray, and those entries sum to 1 on each outcome
    # of the node's support and to 0 off it: the rays are its e_j
    if np.count_nonzero(rays) != len(rays) or not np.array_equal(rays.sum(axis=0), coeffs != 0):
        return None
    c = coeffs[rays.argmax(axis=1)]
    bound = 2.0 * sqrt(len(coeffs)) * RESIDUAL_TOL * max(1.0, float(c.max()))
    if not float(c.min()) > 2.0 * bound:
        return None
    return RayDecomposition(tuple(range(len(c))), c)


def planar_split(coeffs: np.ndarray, rays: np.ndarray) -> RayDecomposition | None:
    """The split of a node into a two-ray cone's rays, c = s_0 r_0 + s_1 r_1,
    as :func:`decompose` gives it, or None where decompose must decide (see
    the module docstring).  The rays are L1-normalized, as the cones give
    them.

    The dot products are numpy's; the rest runs on Python floats.  With
    v = r_1 - g r_0 the part of r_1 off r_0, the rays' R factor is
    [[f, g f], [0, |v|]], f = |r_0|, and its singular values are those of
    LAPACK's ``dlas2``.  Back-substitution gives s_1 = v . c' / |v|^2, c' =
    c - t r_0 the part of c off r_0, and s_0 = t - g s_1.  v . c' is read
    as v . c - t (v . r_0): the computed v is orthogonal to r_0 only up to
    roundoff, which v . c alone would carry into s_1 times s_0 / |v|^2.
    """
    r0, r1 = rays
    f2 = float(r0 @ r0)
    g = float(r0 @ r1) / f2
    v = r1 - g * r0
    h2 = float(v @ v)
    f, h = sqrt(f2), sqrt(h2)
    sigma_max = (hypot(f + h, g * f) + hypot(f - h, g * f)) / 2
    sigma_min = f * h / sigma_max
    n = len(coeffs)
    if not sigma_min > SPLIT_BOUND_MARGIN * rank_threshold((n, 2), sigma_max):
        return None
    t = float(r0 @ coeffs) / f2
    s1 = (float(v @ coeffs) - t * float(v @ r0)) / h2
    s0 = t - g * s1
    scale_floor = max(1.0, float(coeffs.max()))
    bound = sqrt(n) * RESIDUAL_TOL * scale_floor
    if not min(s0, s1) > 4.0 * bound / sigma_min:
        return None
    if not float(np.abs(s0 * r0 + s1 * r1 - coeffs).max()) <= RESIDUAL_TOL * scale_floor:
        return None
    return RayDecomposition((0, 1), np.array([s0, s1]))


def synthesize(m: SeparableMeasurement) -> Certificate:
    """Search for an LOCC tree implementing the measurement.

    Returns PROTOCOL_FOUND with a verified tree, IMPOSSIBLE_AT_ROOT when no
    party can make any first measurement, or INCONCLUSIVE when the
    extreme-ray search is exhausted.  Passes deepen one round at a time, so
    the tree found has minimal depth, and stop at the first pass that finds
    a tree or cuts no branch at its depth.  Every child's support is a
    strict subset of its parent's (see the module docstring), so the pass
    at depth n_outcomes - 1 cuts nothing and the loop ends by then.
    """
    started = time.perf_counter()
    root_cones = check_root(m)
    dims = tuple(c.nullspace_dim for c in root_cones)
    search = _Search(m)
    stats = search.stats

    if impossible_at_root(m, root_cones):
        stats.wall_time = time.perf_counter() - started
        return Certificate(Verdict.IMPOSSIBLE_AT_ROOT, dims, stats)

    weights = np.asarray(m.weights, dtype=float)
    key = _coeff_key(weights)
    for party, cone in enumerate(root_cones):
        search.cones[party, key] = cone

    tree = None
    for depth in range(1, max(m.n_outcomes, 2)):   # one pass at least: a root leaf
        search.failed.clear()
        search.cut = False
        tree = search.run(weights, None, depth)
        if tree is not None or not search.cut:
            break
    else:
        raise LoccForgeError(
            f"internal error: the search pass at depth {depth} cut a branch, "
            f"deeper than {m.n_outcomes} outcomes allow")
    stats.wall_time = time.perf_counter() - started

    if tree is None:
        return Certificate(Verdict.INCONCLUSIVE, dims, stats)

    from .verify import verify_tree  # independent checker, import kept one-way
    report = verify_tree(tree, m)
    if not report.passed:
        raise LoccForgeError(
            "internal error: synthesized tree failed independent verification: "
            + ", ".join(k for k, c in report.checks.items() if not c.passed))
    return Certificate(Verdict.PROTOCOL_FOUND, dims, stats, tree)
