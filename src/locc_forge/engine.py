"""Protocol search: which party measures when, and with what outcomes.

The search is depth-first with iterative deepening, so the first tree found
has minimal depth.  At each node every party except the one that just
measured gets a feasibility analysis; each splitting of the node vector
into extreme rays of the party's cone becomes a candidate measurement, and
a branch dies when no party can split a node that is not yet a final
outcome.  Impossibility is only ever certified at the root: if every
party's root cone is one-dimensional, no first measurement exists and no
protocol of any length (finite or not) can implement the measurement.
Dead ends below the root merely terminate the search, because children are
drawn from extreme rays only and a non-extremal split that was not tried
could in principle exist; exhaustion therefore reports INCONCLUSIVE.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cones import decompose
from .errors import LoccForgeError
from .feasibility import (
    FeasibleCone,
    NodeContext,
    feasible_cone,
    reconstruct,
    root_context,
)
from .feasibility import factorize  # noqa: F401  (wrapped by name by the benchmark tracer)
from .measurement import SeparableMeasurement
from .tolerances import DEFAULT_TOL, LEAF_SUPPORT_TOL, Tolerances

DEFAULT_MAX_ROUNDS = 8


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
        yield self, path
        for i, child in enumerate(self.children):
            yield from child.walk(f"{path}.{i}")

    def leaves(self, path: str = "root"):
        return [(node, p) for node, p in self.walk(path) if node.is_leaf]

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(c.depth() for c in self.children)


@dataclass
class SearchStats:
    nodes_expanded: int = 0
    dead_ends: int = 0
    wall_time: float = 0.0


@dataclass(frozen=True)
class RootFeasibility:
    party: str
    nullspace_dim: int
    extreme_rays: tuple[np.ndarray, ...]


@dataclass(eq=False)
class Certificate:
    """Outcome of a synthesis run, with enough evidence to audit it."""

    verdict: Verdict
    root_dims: tuple[int, ...]
    search_stats: SearchStats
    tolerances: Tolerances
    tree: ProtocolNode | None = None


def _root_cones(m: SeparableMeasurement, tol: Tolerances) -> list[FeasibleCone]:
    return [feasible_cone(root_context(m, p), tol) for p in range(len(m.parties))]


def check_root(m: SeparableMeasurement,
               tol: Tolerances = DEFAULT_TOL) -> list[RootFeasibility]:
    """Per-party feasibility of the very first measurement.

    All parties' root dimensions equal to one certifies that no LOCC
    protocol for the measurement exists.
    """
    return [
        RootFeasibility(m.parties[p].name, cone.nullspace_dim, cone.extreme_rays)
        for p, cone in enumerate(_root_cones(m, tol))
    ]


def _coeff_key(coeffs: np.ndarray) -> tuple:
    l1 = float(np.abs(coeffs).sum())
    if l1 == 0:
        return (0,)
    return tuple(np.round(coeffs / l1, 9))


def leaf_outcome(m: SeparableMeasurement, coeffs: np.ndarray,
                 tol: Tolerances = DEFAULT_TOL) -> tuple[int, float] | None:
    """(outcome index, scale) if the node is a final outcome, else None.

    Two tests: the coefficient vector is supported on a single outcome, or
    the reconstructed operator X is a positive multiple s O_j of some
    outcome operator, with s = <O_j, X> / |O_j|^2 and every entry of
    X - s O_j within ``tol.residual * scale``.  The second catches
    coefficient vectors that differ from a unit vector yet reconstruct to
    the same operator, which happens when the outcome operators are
    linearly dependent.

    A bound settles most outcomes without the dense comparison.  With N =
    2 D^2 the length of the real dot products F = |X|^2, d_j = <O_j, X> and
    n_j = |O_j|^2, the least Frobenius residual over all s is r_j = F -
    d_j^2 / n_j.  The dense test can pass only if r_j <= L^2, where L =
    D (tol + 2 eps) scale (1 + 5 eps): its difference, product and modulus
    each round once, and a D x D matrix has Frobenius norm at most D times
    its largest entry.  Each dot product is off by at most gamma_N = N eps /
    (1 - N eps) times the product of its factors' norms, and |d_j| <=
    sqrt(n_j F), so the computed r_j is within 4 gamma_N F plus a few eps F
    of the exact one, less than M = 5 N eps F.  An outcome whose computed
    r_j exceeds L^2 + M therefore fails the dense test and is skipped;
    every other outcome gets the dense test, so every decision is the one
    the dense test alone makes.
    """
    c = np.asarray(coeffs, dtype=float)
    order = np.argsort(c)
    top = float(c[order[-1]])
    if top <= 0:
        return None
    second = float(c[order[-2]]) if c.size > 1 else 0.0
    if second <= LEAF_SUPPORT_TOL * top:
        return int(order[-1]), top
    op = reconstruct(m, c)
    scale = max(1.0, float(np.abs(op).max()))
    ops = m.outcome_operators
    # on real views of the complex entries, Re Tr[O_j^dag X] is a dot product
    flat = ops.reshape(m.n_outcomes, -1).view(np.float64)
    x = op.reshape(-1).view(np.float64)
    dots = flat @ x
    norms2 = np.einsum("ij,ij->i", flat, flat)
    eps = float(np.finfo(float).eps)
    sq_norm = float(x @ x)
    limit = len(op) * (tol.residual + 2 * eps) * scale * (1 + 5 * eps)
    margin = 5 * len(x) * eps * sq_norm
    candidates = np.flatnonzero(norms2 != 0.0)
    candidates = candidates[dots[candidates] > 0]
    residuals = sq_norm - dots[candidates] ** 2 / norms2[candidates]
    for j in candidates[residuals <= limit * limit + margin]:
        s = float(dots[j] / norms2[j])
        if s > 0 and float(np.abs(op - s * ops[j]).max()) <= tol.residual * scale:
            return int(j), s
    return None


class _Search:
    """Shared state for one synthesis run."""

    def __init__(self, m: SeparableMeasurement, tol: Tolerances):
        self.m = m
        self.tol = tol
        self.stats = SearchStats()
        self.cones: dict[tuple, FeasibleCone] = {}
        self.failed: set[tuple] = set()

    def cone_at(self, party: int, coeffs: np.ndarray) -> FeasibleCone:
        key = (party, _coeff_key(coeffs))
        cone = self.cones.get(key)
        if cone is None:
            cone = feasible_cone(NodeContext(self.m, party, coeffs), self.tol)
            self.cones[key] = cone
        return cone

    def run(self, coeffs: np.ndarray, produced_by: int | None,
            remaining: int) -> ProtocolNode | None:
        m = self.m
        leaf = leaf_outcome(m, coeffs, self.tol)
        if leaf is not None:
            return ProtocolNode(coeffs, produced_by, (), leaf)
        if remaining == 0:
            self.stats.dead_ends += 1
            return None
        memo_key = (produced_by, remaining, _coeff_key(coeffs))
        if memo_key in self.failed:
            return None
        self.stats.nodes_expanded += 1

        for party in range(len(m.parties)):
            if party == produced_by:
                continue
            cone = self.cone_at(party, coeffs)
            if cone.nullspace_dim == 1:
                continue
            rays = list(cone.extreme_rays)
            for dec in decompose(coeffs, rays, self.tol):
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


def synthesize(m: SeparableMeasurement, max_rounds: int = DEFAULT_MAX_ROUNDS,
               tol: Tolerances = DEFAULT_TOL) -> Certificate:
    """Search for an LOCC tree implementing the measurement.

    Returns PROTOCOL_FOUND with a verified tree, IMPOSSIBLE_AT_ROOT when no
    party can make any first measurement, or INCONCLUSIVE when the
    extreme-ray search is exhausted within ``max_rounds``.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    started = time.perf_counter()
    root_cones = _root_cones(m, tol)
    dims = tuple(c.nullspace_dim for c in root_cones)
    stats = SearchStats()

    if all(d == 1 for d in dims):
        _assert_trivial_root(m, root_cones, tol)
        stats.wall_time = time.perf_counter() - started
        return Certificate(Verdict.IMPOSSIBLE_AT_ROOT, dims, stats, tol)

    weights = np.asarray(m.weights, dtype=float)
    search = _Search(m, tol)
    for party, cone in enumerate(root_cones):
        search.cones[(party, _coeff_key(weights))] = cone

    tree = None
    for depth in range(1, max_rounds + 1):
        search.failed.clear()
        tree = search.run(weights, None, depth)
        if tree is not None:
            break
    stats.nodes_expanded = search.stats.nodes_expanded
    stats.dead_ends = search.stats.dead_ends
    stats.wall_time = time.perf_counter() - started

    if tree is None:
        return Certificate(Verdict.INCONCLUSIVE, dims, stats, tol)

    from .verify import verify_tree  # independent checker, import kept one-way
    report = verify_tree(tree, m, tol)
    if not report.passed:
        raise LoccForgeError(
            "internal error: synthesized tree failed independent verification: "
            + ", ".join(k for k, c in report.checks.items() if not c.passed))
    return Certificate(Verdict.PROTOCOL_FOUND, dims, stats, tol, tree)


def _assert_trivial_root(m: SeparableMeasurement, root_cones: list[FeasibleCone],
                         tol: Tolerances) -> None:
    """Soundness check behind an impossibility verdict: each party's only
    root ray is the completeness vector, whose operator is the identity."""
    w = np.asarray(m.weights, dtype=float)
    w_dir = w / w.sum()
    eye = np.eye(m.total_dim)
    for root in root_cones:
        if len(root.extreme_rays) != 1:
            raise LoccForgeError("impossibility self-check failed: stray ray")
        ray = root.extreme_rays[0]
        if float(np.abs(ray - w_dir).max()) > tol.residual:
            raise LoccForgeError(
                "impossibility self-check failed: root ray is not the "
                "completeness vector")
        op = reconstruct(m, ray / ray.sum() * w.sum())
        if float(np.abs(op - eye).max()) > 10 * tol.residual:
            raise LoccForgeError(
                "impossibility self-check failed: root ray does not "
                "reconstruct the identity")
