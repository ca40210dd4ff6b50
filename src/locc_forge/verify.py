"""Independent validation of protocol trees, plus measurement simulation.

The checks here deliberately avoid the search's own machinery (feasible
cones, leaf detection, ray decomposition) so that a bug in the search
cannot certify its own output.  Only the generic operator algebra is
shared.  Node operators are rebuilt from raw coefficient vectors, product
structure is decided by operator Schmidt rank, and the fixed-bystander
property of each edge is recomputed from scratch down the tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .engine import ProtocolNode
from .errors import TreeStructureError
from .measurement import SeparableMeasurement
from .operators import as_hermitian, is_psd, project_factor, tensor
from .tolerances import DEFAULT_TOL, PSD_TOL, Tolerances


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    worst_residual: float
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: dict[str, CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def lines(self) -> list[str]:
        out = []
        for name, check in self.checks.items():
            status = "PASS" if check.passed else "FAIL"
            line = f"{name}: {status} (worst residual {check.worst_residual:.3e})"
            if check.detail and not check.passed:
                line += f" at {check.detail}"
            out.append(line)
        return out


def _structural_pass(tree: ProtocolNode, m: SeparableMeasurement) -> None:
    for node, path in tree.walk():
        coeffs = np.asarray(node.coeffs, dtype=float)
        if coeffs.shape != (m.n_outcomes,):
            raise TreeStructureError(
                f"{path}: coefficient vector has shape {coeffs.shape}, "
                f"expected ({m.n_outcomes},)")
        if not np.isfinite(coeffs).all():
            raise TreeStructureError(f"{path}: non-finite coefficient")
        if np.any(coeffs < -1e-12):
            raise TreeStructureError(f"{path}: negative coefficient")
        if path == "root":
            if node.acting_party is not None:
                raise TreeStructureError("root: must not record an acting party")
        elif node.acting_party is None or not (
                0 <= node.acting_party < len(m.parties)):
            raise TreeStructureError(f"{path}: missing or invalid acting party")
        if node.is_leaf:
            if node.leaf_outcome is None:
                raise TreeStructureError(f"{path}: childless node lacks a leaf outcome")
            j, scale = node.leaf_outcome
            if not (0 <= j < m.n_outcomes):
                raise TreeStructureError(f"{path}: leaf outcome index {j} out of range")
            if not (math.isfinite(scale) and scale > 0):
                raise TreeStructureError(f"{path}: leaf scale must be finite and positive")
        else:
            if node.leaf_outcome is not None:
                raise TreeStructureError(f"{path}: internal node marked as leaf")
            if len(node.children) < 2:
                raise TreeStructureError(
                    f"{path}: a measurement needs at least two outcomes")
            actors = {c.acting_party for c in node.children}
            if len(actors) != 1:
                raise TreeStructureError(
                    f"{path}: children disagree about who measured")


_SVD_BLOCK = 16
"""Node operators per batched SVD.  Each block is realigned into a copy, so
the block size bounds the memory the product check adds."""


def _schmidt_second(ops: np.ndarray, slot: int, dims: tuple[int, ...]) -> np.ndarray:
    """Relative second operator-Schmidt coefficient across (slot | rest), for
    each operator of a (nodes, D, D) stack."""
    n = len(dims)
    dp = dims[slot]
    dc = ops.shape[1] // dp
    t = ops.reshape((len(ops),) + dims * 2)
    others = [p for p in range(n) if p != slot]
    legs = [slot, n + slot] + others + [n + p for p in others]
    t = t.transpose([0] + [1 + leg for leg in legs])
    sigma = np.concatenate([
        np.linalg.svd(t[i:i + _SVD_BLOCK].reshape(-1, dp * dp, dc * dc), compute_uv=False)
        for i in range(0, len(ops), _SVD_BLOCK)])
    if sigma.shape[1] == 1:
        return np.zeros(len(ops))
    top = sigma[:, 0]
    return np.divide(sigma[:, 1], top, out=np.zeros(len(ops)), where=top != 0)


def verify_tree(tree: ProtocolNode, m: SeparableMeasurement,
                tol: Tolerances = DEFAULT_TOL) -> VerificationReport:
    """Run all tree checks against a measurement; residual tolerance 1e-8.

    Checks: the root reconstructs the identity, every internal node is the
    sum of its children and of its descendant leaves, every node operator is
    a tensor product across parties, each edge changes only the acting
    party's factor, leaves match their declared outcome and scale, and every
    node operator is positive semidefinite.
    """
    _structural_pass(tree, m)
    ops = m.outcome_operators
    nodes = list(tree.walk())
    coeffs = np.stack([np.asarray(n.coeffs, float) for n, _ in nodes])
    stacked = (coeffs @ ops.reshape(m.n_outcomes, -1)).reshape(len(nodes), *ops.shape[1:])
    node_op = {path: op for (_, path), op in zip(nodes, stacked)}
    eye = np.eye(m.total_dim)
    dims = m.dims

    def worst(pairs: Iterable[tuple[float, str]]) -> CheckResult:
        worst_r, worst_at = 0.0, ""
        for r, at in pairs:
            if not r <= worst_r:            # a NaN residual is the worst
                worst_r, worst_at = r, at
                if np.isnan(r):
                    break
        return CheckResult(worst_r <= tol.residual, worst_r, worst_at)

    checks: dict[str, CheckResult] = {}

    checks["root-completeness"] = worst(
        [(float(np.abs(node_op["root"] - eye).max()), "root")])

    sums = []
    for node, path in tree.walk():
        if node.is_leaf:
            continue
        total = sum(node_op[f"{path}.{i}"] for i in range(len(node.children)))
        sums.append((float(np.abs(node_op[path] - total).max()), path))
    checks["node-sum"] = worst(sums) if sums else CheckResult(True, 0.0)

    leaf_sums = []
    for node, path in tree.walk():
        if node.is_leaf:
            continue
        total = sum(node_op[lp] for _, lp in node.leaves(path))
        leaf_sums.append((float(np.abs(node_op[path] - total).max()), path))
    checks["descendant-leaf-sum"] = (worst(leaf_sums) if leaf_sums
                                     else CheckResult(True, 0.0))

    paths = [path for _, path in nodes]
    worst_slot = np.max([_schmidt_second(stacked, slot, dims)
                         for slot in range(len(dims))], axis=0)
    checks["product-structure"] = worst(zip(worst_slot.tolist(), paths))

    edges = []

    def descend(node: ProtocolNode, path: str, factors: tuple[np.ndarray, ...]):
        for i, child in enumerate(node.children):
            cpath = f"{path}.{i}"
            slot = child.acting_party
            rest = [f for q, f in enumerate(factors) if q != slot]
            abar = tensor(rest) if rest else np.eye(1, dtype=complex)
            x, residual = project_factor(node_op[cpath], abar, slot, dims)
            scale = max(1.0, float(np.abs(node_op[cpath]).max()))
            edges.append((residual / scale, cpath))
            new_factors = tuple(x if q == slot else f for q, f in enumerate(factors))
            descend(child, cpath, new_factors)

    descend(tree, "root", tuple(np.eye(d, dtype=complex) for d in dims))
    checks["single-party-change"] = worst(edges) if edges else CheckResult(True, 0.0)

    leaf_match = []
    for node, path in tree.leaves():
        j, scale = node.leaf_outcome
        residual = float(np.abs(node_op[path] - scale * ops[j]).max())
        leaf_match.append((residual, path))
    checks["leaf-match"] = worst(leaf_match)

    eigs = np.linalg.eigvalsh(stacked)
    floor = np.maximum(1.0, np.abs(eigs).max(axis=1))
    neg = np.maximum(0.0, -eigs[:, 0]) / floor
    at = int(np.argmax(neg))
    worst_neg = max(0.0, float(neg[at]))       # not -0.0
    checks["positivity"] = CheckResult(worst_neg <= PSD_TOL, worst_neg,
                                       paths[at] if worst_neg > PSD_TOL else "")

    return VerificationReport(checks)


# -- simulation ------------------------------------------------------------


@dataclass(frozen=True)
class LeafProbability:
    path: str
    outcome_index: int
    label: str
    probability: float
    count: int | None = None


@dataclass(frozen=True)
class SimulationResult:
    leaves: tuple[LeafProbability, ...]
    outcome_probabilities: np.ndarray   # aggregated over leaves, per outcome
    direct_probabilities: np.ndarray    # w_j Tr[O_j rho]
    total_probability: float
    trials: int


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized G G^dag with standard complex Gaussian G."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def simulate(tree: ProtocolNode, m: SeparableMeasurement, state: np.ndarray,
             trials: int = 0, rng: np.random.Generator | None = None,
             tol: Tolerances = DEFAULT_TOL) -> SimulationResult:
    """Exact leaf probabilities on a state, with optional multinomial sampling.

    Aggregated per measurement outcome, the leaf probabilities must match
    the direct probabilities w_j Tr[O_j rho]; both tables are returned so
    callers can compare.
    """
    rho = as_hermitian(state)
    if rho.shape[0] != m.total_dim:
        raise ValueError(f"state has dimension {rho.shape[0]}, "
                         f"expected {m.total_dim}")
    if abs(float(np.trace(rho).real) - 1.0) > 1e-9:
        raise ValueError("state must have unit trace")
    if not is_psd(rho):
        raise ValueError("state must be positive semidefinite")

    ops = m.outcome_operators
    labels = m.labels()
    probs = []
    leaf_records = []
    outcome_probs = np.zeros(m.n_outcomes)
    for node, path in tree.leaves():
        op = np.einsum("j,jab->ab", np.asarray(node.coeffs, float), ops)
        p = float(np.einsum("ab,ba->", op, rho).real)
        j = node.leaf_outcome[0]
        probs.append(p)
        outcome_probs[j] += p
        leaf_records.append((path, j, p))

    counts: list[int | None] = [None] * len(probs)
    if trials > 0:
        rng = rng or np.random.default_rng()
        clipped = np.clip(probs, 0.0, None)
        drawn = rng.multinomial(trials, clipped / clipped.sum())
        counts = [int(c) for c in drawn]

    direct = np.array([
        float(m.weights[j] * np.einsum("ab,ba->", ops[j], rho).real)
        for j in range(m.n_outcomes)])
    leaves = tuple(
        LeafProbability(path, j, labels[j], p, c)
        for (path, j, p), c in zip(leaf_records, counts))
    return SimulationResult(leaves, outcome_probs, direct, float(sum(probs)),
                            trials)
