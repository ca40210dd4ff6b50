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
from typing import Sequence

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
    party's cone is one-dimensional.

    Before it says so, a soundness check: each party's only root ray must
    be the completeness vector, whose operator is the identity.  A failure
    raises :class:`LoccForgeError` rather than certify a false verdict.
    """
    if any(root.nullspace_dim != 1 for root in roots):
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
    return tuple(np.round(coeffs / l1, 9))


def leaf_outcome(m: SeparableMeasurement, coeffs: np.ndarray,
                 residual_tol: float = RESIDUAL_TOL) -> tuple[int, float] | None:
    """(outcome index, scale) if the node is a final outcome, else None.

    Two tests: the coefficient vector is supported on a single outcome, or
    the reconstructed operator X is a positive multiple s O_j of some
    outcome operator, with s = <O_j, X> / |O_j|^2 and every entry of
    X - s O_j within ``residual_tol * scale``, scale = max(1, max |X|).
    The second catches coefficient vectors that differ from a unit vector
    yet reconstruct to the same operator, which happens when the outcome
    operators are linearly dependent.

    A bound from the outcome Gram G (``m.outcome_gram``) settles the second
    test without forming X.  In exact arithmetic <O_j, X> = (G c)_j, |X|^2
    = F = c^T G c and |O_j|^2 = G_jj, so the least Frobenius residual over
    all s is r_j = F - (G c)_j^2 / G_jj (F when G_jj = 0).  The bounds
    below use |c|, so they hold for indefinite factors and slightly
    negative coefficients: |O_k| = sqrt(G_kk), so |X| <= a = sum_k |c_k|
    sqrt(G_kk), |(G c)_j| <= sqrt(G_jj) a and F <= a^2.  Let eps be the
    machine epsilon, n the number of outcomes, P of parties, d the largest
    local dimension, D the total one, and theta = 2 (n + P (d^2 + 3)) eps;
    away from underflow:

    - The stored O_j (P - 1 complex products per entry) and X (length-n
      sums) are within theta/2 |O_j| and theta a of the exact ones, and
      the computed scale is at most max(1, a) (1 + 2 theta).
    - The dense comparison rounds its product, difference and modulus once
      each, so if it passes, the stored operators have |X - s O_j| <= D
      (tol + 2 eps) scale (1 + 5 eps), a D x D matrix's Frobenius norm
      being at most D times its largest entry.  Back to exact operators,
      sqrt(r_j) <= (1 + 5 theta) (D (tol + 2 eps) max(1, a) + 2 theta a).
    - Each entry of the computed G is off by at most theta/2 sqrt(G_ii
      G_kk) (P complex dot products of length d_q^2, P - 1 products), so
      the computed (G c)_j by theta sqrt(G_jj) a, F by 1.5 theta a^2, the
      quotient is low by at most 2.6 theta a^2, the computed r_j exceeds
      r_j by at most 5 theta a^2, and a is at most (1 + 2 theta) times
      the computed a.

    So with R = D (tol + 2 eps) max(1, a) + 2 theta a, both from the
    computed a, an outcome passes the dense test only if its computed r_j
    <= (1 + 17 theta) (R^2 + 5 theta a^2), and every other outcome is
    skipped.  If any remains, X is formed and the remaining outcomes get the
    dense test in index order, so every decision and every returned scale
    is the dense test's alone.
    """
    c = np.asarray(coeffs, dtype=float)
    order = np.argsort(c)
    top = float(c[order[-1]])
    if top <= 0:
        return None
    second = float(c[order[-2]]) if c.size > 1 else 0.0
    if second <= LEAF_SUPPORT_TOL * top:
        return int(order[-1]), top
    gram = m.outcome_gram
    gjj = gram.diagonal()
    gc = gram @ c
    sq_norm = float(c @ gc)
    a = float(np.abs(c) @ np.sqrt(gjj))
    eps = float(np.finfo(float).eps)
    dims = m.dims
    theta = 2 * (len(c) + len(dims) * (max(dims) ** 2 + 3)) * eps
    r = m.total_dim * (residual_tol + 2 * eps) * max(1.0, a) + 2 * theta * a
    limit = (1 + 17 * theta) * (r * r + 5 * theta * a * a)
    fit = np.divide(gc * gc, gjj, out=np.zeros_like(gc), where=gjj != 0.0)
    survivors = np.flatnonzero(sq_norm - fit <= limit)
    if survivors.size == 0:
        return None
    op = reconstruct(m, c)
    scale = max(1.0, float(np.abs(op).max()))
    ops = m.outcome_operators
    # on real views of the complex entries, Re Tr[O_j^dag X] is a dot product
    flat = ops.reshape(m.n_outcomes, -1).view(np.float64)
    dots = flat @ op.reshape(-1).view(np.float64)
    norms2 = np.einsum("ij,ij->i", flat, flat)
    for j in survivors[norms2[survivors] != 0.0]:
        s = float(dots[j] / norms2[j])
        if s > 0 and float(np.abs(op - s * ops[j]).max()) <= residual_tol * scale:
            return int(j), s
    return None


class _Search:
    """Shared state for one synthesis run."""

    def __init__(self, m: SeparableMeasurement, residual_tol: float):
        self.m = m
        self.residual_tol = residual_tol
        self.stats = SearchStats()
        self.cones: dict[tuple, FeasibleCone] = {}
        self.failed: set[tuple] = set()

    def cone_at(self, party: int, coeffs: np.ndarray) -> FeasibleCone:
        key = (party, _coeff_key(coeffs))
        cone = self.cones.get(key)
        if cone is None:
            cone = feasible_cone(NodeContext(self.m, party, coeffs), self.residual_tol)
            self.cones[key] = cone
        return cone

    def run(self, coeffs: np.ndarray, produced_by: int | None,
            remaining: int) -> ProtocolNode | None:
        m = self.m
        leaf = leaf_outcome(m, coeffs, self.residual_tol)
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
            for dec in decompose(coeffs, rays, self.residual_tol):
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

