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
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .cones import RayDecomposition, decompose
from .errors import LoccForgeError
from .feasibility import (
    FeasibleCone,
    NodeContext,
    feasible_cone,
    root_context,
)
from .feasibility import factorize  # noqa: F401  (wrapped by name by the benchmark tracer)
from .measurement import SeparableMeasurement, reconstruct
from .tolerances import LEAF_SUPPORT_TOL, RESIDUAL_TOL

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
    nodes_expanded: int = 0
    dead_ends: int = 0
    wall_time: float = 0.0


@dataclass(eq=False)
class Certificate:
    """Outcome of a synthesis run, with enough evidence to audit it."""

    verdict: Verdict
    root_dims: tuple[int, ...]
    search_stats: SearchStats
    residual_tol: float
    tree: ProtocolNode | None = None


def check_root(m: SeparableMeasurement,
               residual_tol: float = RESIDUAL_TOL) -> list[FeasibleCone]:
    """Each party's root cone, the feasibility of its first measurement, in
    the order of ``m.parties``.

    All parties' root dimensions equal to one certifies that no LOCC
    protocol for the measurement exists, once :func:`impossible_at_root`
    has checked the cones.
    """
    return [feasible_cone(root_context(m, p), residual_tol) for p in range(len(m.parties))]


def impossible_at_root(m: SeparableMeasurement,
                       roots: Sequence[FeasibleCone],
                       residual_tol: float = RESIDUAL_TOL) -> bool:
    """Whether the root cones certify that no LOCC protocol exists: every
    party's cone is one-dimensional, and the root is not already a single
    outcome (which needs no measurement at all).

    Before it says so, a soundness check: each party's only root ray must
    be the completeness vector, whose operator is the identity.  A failure
    raises :class:`LoccForgeError` rather than certify a false verdict.
    """
    if leaf_outcome(m.weights) is not None or any(
            root.nullspace_dim != 1 for root in roots):
        return False
    w = np.asarray(m.weights, dtype=float)
    w_dir = w / w.sum()
    eye = np.eye(m.total_dim)
    for root in roots:
        if len(root.extreme_rays) != 1:
            raise LoccForgeError("impossibility self-check failed: stray ray")
        ray = root.extreme_rays[0]
        if float(np.abs(ray - w_dir).max()) > residual_tol:
            raise LoccForgeError(
                "impossibility self-check failed: root ray is not the "
                "completeness vector")
        op = reconstruct(m, ray / ray.sum() * w.sum())
        if float(np.abs(op - eye).max()) > 10 * residual_tol:
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

    def __init__(self, m: SeparableMeasurement, residual_tol: float):
        self.m = m
        self.residual_tol = residual_tol
        self.stats = SearchStats()
        self.cones: dict[tuple, FeasibleCone] = {}
        self.splits: dict[tuple, list[RayDecomposition]] = {}
        self.failed: set[tuple] = set()

    def cone_at(self, party: int, coeffs: np.ndarray) -> FeasibleCone:
        key = (party, _coeff_key(coeffs))
        cone = self.cones.get(key)
        if cone is None:
            cone = feasible_cone(NodeContext(self.m, party, coeffs), self.residual_tol)
            self.cones[key] = cone
        return cone

    def splits_at(self, party: int, coeffs: np.ndarray,
                  rays: np.ndarray) -> list[RayDecomposition]:
        """The node's splits into the party's rays, kept for later passes.
        Keyed by the exact coefficients: the cone is the same along the
        node's direction, but the scales grow with the node."""
        key = (party, coeffs.tobytes())
        splits = self.splits.get(key)
        if splits is None:
            # decompose is looked up per call: the benchmark tracer wraps it
            splits = self.splits[key] = decompose(coeffs, rays, self.residual_tol)
        return splits

    def run(self, coeffs: np.ndarray, produced_by: int | None,
            remaining: int) -> ProtocolNode | None:
        m = self.m
        leaf = leaf_outcome(coeffs)
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


def synthesize(m: SeparableMeasurement, max_rounds: int = DEFAULT_MAX_ROUNDS,
               residual_tol: float = RESIDUAL_TOL) -> Certificate:
    """Search for an LOCC tree implementing the measurement.

    Returns PROTOCOL_FOUND with a verified tree, IMPOSSIBLE_AT_ROOT when no
    party can make any first measurement, or INCONCLUSIVE when the
    extreme-ray search is exhausted within ``max_rounds``.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    started = time.perf_counter()
    root_cones = check_root(m, residual_tol)
    dims = tuple(c.nullspace_dim for c in root_cones)
    search = _Search(m, residual_tol)
    stats = search.stats

    if impossible_at_root(m, root_cones, residual_tol):
        stats.wall_time = time.perf_counter() - started
        return Certificate(Verdict.IMPOSSIBLE_AT_ROOT, dims, stats, residual_tol)

    weights = np.asarray(m.weights, dtype=float)
    for party, cone in enumerate(root_cones):
        search.cones[(party, _coeff_key(weights))] = cone

    tree = None
    for depth in range(1, max_rounds + 1):
        search.failed.clear()
        tree = search.run(weights, None, depth)
        if tree is not None:
            break
    stats.wall_time = time.perf_counter() - started

    if tree is None:
        return Certificate(Verdict.INCONCLUSIVE, dims, stats, residual_tol)

    from .verify import verify_tree  # independent checker, import kept one-way
    report = verify_tree(tree, m, residual_tol)
    if not report.passed:
        raise LoccForgeError(
            "internal error: synthesized tree failed independent verification: "
            + ", ".join(k for k, c in report.checks.items() if not c.passed))
    return Certificate(Verdict.PROTOCOL_FOUND, dims, stats, residual_tol, tree)

