"""Independent validation of protocol trees, plus measurement simulation.

The checks here deliberately avoid the search's own machinery (feasible
cones, leaf detection, ray decomposition) so that a bug in the search
cannot certify its own output.  Only the generic operator algebra is
shared.  Node operators are rebuilt from raw coefficient vectors and the
measurement's factors.  Product structure is decided by operator Schmidt
rank, from small real per-cut cores that each party's factor Gram gives;
positivity from a Weyl bound over the factors' spectra, with an exact
eigenvalue check wherever the bound does not settle it; and the
fixed-bystander property of each edge is recomputed from scratch down the
tree, one parent's children at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .engine import ProtocolNode
from .errors import TreeStructureError
from .measurement import SeparableMeasurement
from .operators import as_hermitian, hermitian_vectors, is_psd, khatri_rao
from .tolerances import PSD_TOL, RESIDUAL_TOL


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


def _schmidt_ratios(m: SeparableMeasurement, coeffs: np.ndarray) -> np.ndarray:
    """Largest relative second operator-Schmidt coefficient over the cuts
    (p | rest), for the node operator of each row of ``coeffs``.

    Across a cut the realignment of sum_j c_j O_j is A diag(c) B^T, where
    column j of A is vec(F_j^p) and column j of B the Kronecker product of
    the other parties' vec(F_j^q).  Its singular values are those of the
    core R_A diag(c) R_B^T for any R_A, R_B with the Gram matrices of A and
    B.  Each party's R is real, from a QR of its factors'
    :func:`hermitian_vectors`; B's Gram is the entrywise product of the
    other parties' Grams, so R_B comes from a QR of the Khatri-Rao product
    of their R's (or is the one R).  Two parties have a single cut.  A node with fewer than
    two nonzero coefficients is c_j O_j, an exact product, and gets the
    ratio 0 without a core.
    """
    n_parties = len(m.dims)
    n = m.n_outcomes
    ratios = np.zeros(len(coeffs))
    multi = np.count_nonzero(coeffs, axis=1) >= 2
    if not multi.any():
        return ratios
    coeffs = coeffs[multi]
    worst = np.zeros(len(coeffs))
    rs = [np.linalg.qr(hermitian_vectors(m.local_factors(q)).T, mode="r")
          for q in range(n_parties)]
    for p in range(n_parties if n_parties > 2 else 1):
        r_a, others = rs[p], [rs[q] for q in range(n_parties) if q != p]
        r_b = others[0] if len(others) == 1 else np.linalg.qr(khatri_rao(others, n), mode="r")
        if min(len(r_a), len(r_b)) == 1:
            continue                # one singular value: ratio 0
        tall, wide = (r_a, r_b) if len(r_a) >= len(r_b) else (r_b, r_a)
        # cores[i] = tall diag(coeffs[i]) wide^T, all from one product
        w = (tall.T[:, :, None] * wide.T[:, None, :]).reshape(n, -1)
        cores = (coeffs @ w).reshape(len(coeffs), len(tall), len(wide))
        sigma = np.linalg.svd(cores, compute_uv=False)
        top = sigma[:, 0]
        worst = np.maximum(worst, np.divide(sigma[:, 1], top, out=np.zeros(len(coeffs)),
                                            where=top != 0))
    ratios[multi] = worst
    return ratios


def _eigenvalue_bound(m: SeparableMeasurement, coeffs: np.ndarray) -> np.ndarray:
    """Weyl lower bound on the smallest eigenvalue of each node operator:
    sum_j c_j * (lambda_min(O_j) if c_j >= 0 else lambda_max(O_j)).

    The extreme eigenvalues of O_j = (x)_q F_j^q are extreme products of its
    factors' extreme eigenvalues, so one eigvalsh per party's factor stack
    gives them all.
    """
    low = high = np.ones(m.n_outcomes)
    for q in range(len(m.dims)):
        eigs = np.linalg.eigvalsh(m.local_factors(q))
        ends = np.stack([low * eigs[:, 0], low * eigs[:, -1],
                         high * eigs[:, 0], high * eigs[:, -1]])
        low, high = ends.min(axis=0), ends.max(axis=0)
    return np.where(coeffs >= 0, coeffs * low, coeffs * high).sum(axis=1)


def _negativity(ops: np.ndarray) -> np.ndarray:
    """max(0, -lambda_min) / max(1, |lambda|_max) for each operator of a stack."""
    eigs = np.linalg.eigvalsh(ops)
    floor = np.maximum(1.0, np.abs(eigs).max(axis=1))
    return np.maximum(0.0, -eigs[:, 0]) / floor


def _edge_factors(children: np.ndarray, factors: Sequence[np.ndarray], slot: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Best factors X_i with child_i ~ X_i (x) Abar, and the max-norm
    residuals, for a (k, D, D) stack of one parent's children measured by
    party ``slot``; Abar is the tensor product of ``factors`` (one per
    party) on the other parties.

    The children are realigned once, with rows indexing the slot's matrix
    entries and columns each other party's in turn, so that Abar becomes
    the Kronecker product a of its factors' vec's.  X_i is row block i
    times conj(a) / |a|^2, the least-squares optimum.
    """
    n = len(factors)
    dims = tuple(len(f) for f in factors)
    k = len(children)
    others = [q for q in range(n) if q != slot]
    legs = [slot, n + slot] + [leg for q in others for leg in (q, n + q)]
    t = children.reshape((k,) + dims * 2).transpose([0] + [1 + leg for leg in legs])
    t = t.reshape(k, dims[slot] ** 2, -1)
    a = khatri_rao([factors[q].reshape(-1, 1) for q in others], 1)[:, 0]
    norm2 = float(np.vdot(a, a).real)
    if norm2 == 0.0:
        raise ValueError("cannot factor against a zero operator")
    x = (t @ a.conj()) / norm2
    residual = np.abs(t - x[:, :, None] * a).max(axis=(1, 2))
    return x.reshape(k, dims[slot], dims[slot]), residual


def verify_tree(tree: ProtocolNode, m: SeparableMeasurement,
                residual_tol: float = RESIDUAL_TOL) -> VerificationReport:
    """Run all tree checks against a measurement, with residual tolerance
    ``residual_tol``.

    Checks: the root reconstructs the identity, every internal node is the
    sum of its children and of its descendant leaves, every node operator is
    a tensor product across parties, each edge changes only the acting
    party's factor, leaves match their declared outcome and scale, the
    leaves labelled j add up to w_j, and every node operator is positive
    semidefinite.
    """
    _structural_pass(tree, m)
    ops = m.outcome_operators
    nodes = list(tree.walk())
    paths = [path for _, path in nodes]
    index = {path: i for i, path in enumerate(paths)}
    coeffs = np.stack([np.asarray(n.coeffs, float) for n, _ in nodes])
    # The factor-space quantities need no node operator; taking them before
    # the node stack exists keeps their work arrays from adding to its peak.
    ratios = _schmidt_ratios(m, coeffs)
    neg = np.maximum(0.0, -_eigenvalue_bound(m, coeffs))
    # real coefficients times complex operators, as one real product
    stacked = (coeffs @ ops.reshape(m.n_outcomes, -1).view(float)).view(complex).reshape(
        len(nodes), *ops.shape[1:])
    node_op = dict(zip(paths, stacked))
    eye = np.eye(m.total_dim)
    dims = m.dims

    def worst(pairs: Iterable[tuple[float, str]]) -> CheckResult:
        worst_r, worst_at = 0.0, ""
        for r, at in pairs:
            if not r <= worst_r:            # a NaN residual is the worst
                worst_r, worst_at = r, at
                if np.isnan(r):
                    break
        return CheckResult(worst_r <= residual_tol, worst_r, worst_at)

    checks: dict[str, CheckResult] = {}

    checks["root-completeness"] = worst(
        [(float(np.abs(node_op["root"] - eye).max()), "root")])

    sums = []
    for node, path in nodes:
        if node.is_leaf:
            continue
        total = sum(node_op[f"{path}.{i}"] for i in range(len(node.children)))
        sums.append((float(np.abs(node_op[path] - total).max()), path))
    checks["node-sum"] = worst(sums) if sums else CheckResult(True, 0.0)

    # Children come after their parent in walk order, so one reverse pass
    # sums every node's descendant leaves from its children's sums; a sum
    # is dropped once its parent has taken it.
    below: dict[str, np.ndarray] = {}
    leaf_sums = []
    for node, path in reversed(nodes):
        if node.is_leaf:
            below[path] = node_op[path]
            continue
        total = sum(below.pop(f"{path}.{i}") for i in range(len(node.children)))
        below[path] = total
        leaf_sums.append((float(np.abs(node_op[path] - total).max()), path))
    leaf_sums.reverse()
    checks["descendant-leaf-sum"] = (worst(leaf_sums) if leaf_sums
                                     else CheckResult(True, 0.0))

    checks["product-structure"] = worst(zip(ratios.tolist(), paths))

    # Each parent's children share the acting party, so one Abar (the
    # parent's factors on the other parties, followed down from the
    # identity) serves all of them.
    edges = np.zeros(len(nodes))            # by child, in walk order
    factors_at = {"root": tuple(np.eye(d, dtype=complex) for d in dims)}
    for node, path in nodes:
        if node.is_leaf:
            continue
        slot = node.children[0].acting_party
        factors = factors_at[path]
        kids = [index[f"{path}.{i}"] for i in range(len(node.children))]
        children = stacked[kids]
        xs, residuals = _edge_factors(children, factors, slot)
        edges[kids] = residuals / np.maximum(1.0, np.abs(children).max(axis=(1, 2)))
        for i, x in zip(kids, xs):
            factors_at[paths[i]] = tuple(x if q == slot else f
                                         for q, f in enumerate(factors))
    checks["single-party-change"] = (worst(zip(edges[1:].tolist(), paths[1:]))
                                     if len(nodes) > 1 else CheckResult(True, 0.0))

    leaf_match = []
    per_outcome = np.zeros(m.n_outcomes)
    for node, path in tree.leaves():
        j, scale = node.leaf_outcome
        residual = float(np.abs(node_op[path] - scale * ops[j]).max())
        leaf_match.append((residual, path))
        per_outcome[j] += scale
    checks["leaf-match"] = worst(leaf_match)

    # When outcome operators are linearly dependent, the operator checks
    # above hold for a tree that files one outcome's share under another's
    # label; the leaf scales summed per label must be the weights.
    gaps = np.abs(per_outcome - m.weights) / max(1.0, float(m.weights.max()))
    checks["outcome-weights"] = worst(zip(gaps.tolist(), m.labels()))

    # A node whose Weyl bound clears PSD_TOL reports that bound, which is at
    # least the exact quantity (its floor is >= 1); only the others are
    # diagonalised.
    open_ = ~(neg <= PSD_TOL)
    if open_.any():
        neg[open_] = _negativity(stacked[open_])
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
             trials: int = 0, rng: np.random.Generator | None = None
             ) -> SimulationResult:
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
