"""Independent validation of protocol trees, plus measurement simulation.

The checks here deliberately avoid the search's own machinery (feasible
cones, leaf detection, ray decomposition) so that a bug in the search
cannot certify its own output.  Only the generic operator algebra is
shared.  The tree is read once, in walk order, by an explicit-stack pass
that checks each node's parties, leaf mark and children as it goes, and
then all coefficient vectors with array operations.  Every check is read
from the measurement's factors and the raw coefficient vectors, through
the small real frames the measurement caches (the search reads the same),
whose columns keep the trace pairings of the outcome operators and the
identity.  Each frame is trimmed to its span's dimension by a thin SVD
taken with unit-norm columns; the rows it drops move any residual by at
most eps times the norms of the columns it combines, the form of the backward error of a Householder R of the same
vectors, so the checks are as rigorous as through that R (see
``measurement.trimmed_r``).  Root completeness, node sums,
descendant-leaf sums and leaf matches are Frobenius norms of coefficient
differences taken through one joint R; product structure is decided by
operator Schmidt rank from per-cut cores, each certified rank one by an
Eckart-Young bound on its distance from the product through its largest
row, with an exact SVD of only the cores the bound does not settle; each
edge by the child's distance from its parent's other-parties side, read
off the parent's core by one power step or that SVD; and positivity from
a Weyl bound over the factors' spectra, with an exact eigenvalue check of
the node operator, the one operator formed, wherever the bound does not
settle it.  So a bound decides only what it proves, and every failing
check reads an exact value.  A passing check names no location.  The
operator checks' norms bound the max norm and do not change under local
unitaries.  The measurement itself is positive and complete by
construction; positivity and root completeness are still checked here,
because they are properties of the tree's nodes and root, which a
tampered tree breaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .engine import ProtocolNode
from .errors import TreeStructureError
from .measurement import SeparableMeasurement, factor_operands, reconstruct
from .operators import as_hermitian, is_psd, khatri_rao
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
            if check.detail:
                line += f" at {check.detail}"
            out.append(line)
        return out


class _Flat(NamedTuple):
    """A tree's nodes in walk order (preorder, children in order)."""

    paths: list[str]
    parent: np.ndarray      # each node's parent's index, -1 at the root
    depth: np.ndarray       # 0 at the root
    coeffs: np.ndarray      # (nodes, n) coefficient vectors
    leaf: np.ndarray        # childless nodes
    slots: np.ndarray       # acting party of each node but the root
    outcome: np.ndarray     # leaf outcome index of each leaf, in walk order
    scale: np.ndarray       # and its scale


def _is_index(x, size: int) -> bool:
    """Whether ``x`` is an integer in range(size)."""
    return 0 <= x < size and x % 1 == 0


def _node_error(node: ProtocolNode, path: str, m: SeparableMeasurement) -> str | None:
    """The message of the first check of a node's parties, leaf mark and
    children that it fails, or None."""
    if path == "root":
        if node.acting_party is not None:
            return "root: must not record an acting party"
    elif node.acting_party is None or not _is_index(node.acting_party, len(m.parties)):
        return f"{path}: missing or invalid acting party"
    if node.is_leaf:
        if node.leaf_outcome is None:
            return f"{path}: childless node lacks a leaf outcome"
        j, scale = node.leaf_outcome
        if not _is_index(j, m.n_outcomes):
            return f"{path}: leaf outcome index {j} out of range"
        if not (math.isfinite(scale) and scale > 0):
            return f"{path}: leaf scale must be finite and positive"
    elif node.leaf_outcome is not None:
        return f"{path}: internal node marked as leaf"
    elif len(node.children) < 2:
        return f"{path}: a measurement needs at least two outcomes"
    elif len({c.acting_party for c in node.children}) != 1:
        return f"{path}: children disagree about who measured"
    return None


def _structural_pass(tree: ProtocolNode, m: SeparableMeasurement) -> _Flat:
    """Gather the tree in walk order with one explicit-stack pass and check
    its structure, raising :class:`TreeStructureError` for the first
    offending node in walk order, and for its first failed check: the
    coefficient vector's shape, finiteness and sign, then
    :func:`_node_error`'s checks."""
    n = m.n_outcomes
    nodes, paths, parent, depth = [], [], [], []
    stack, error = [(tree, "root", -1, 0)], None
    while stack and error is None:          # stop at the first node in error
        node, path, up, level = stack.pop()
        error = _node_error(node, path, m)
        nodes.append(node)
        paths.append(path)
        parent.append(up)
        depth.append(level)
        for j in range(len(node.children) - 1, -1, -1):
            stack.append((node.children[j], f"{path}.{j}", len(nodes) - 1, level + 1))

    # The coefficient checks come first at each node, so they are run on
    # every node gathered, the one in error included.
    coeffs = [node.coeffs for node in nodes]
    shaped = next((i for i, c in enumerate(coeffs) if np.shape(c) != (n,)), len(nodes))
    c = np.array(coeffs[:shaped], dtype=float).reshape(shaped, n)
    finite = np.isfinite(c).all(axis=1)
    bad = np.flatnonzero(~finite | (c < -1e-12).any(axis=1))
    if len(bad):
        i = bad[0]
        raise TreeStructureError(f"{paths[i]}: "
                                 + ("negative" if finite[i] else "non-finite") + " coefficient")
    if shaped < len(nodes):
        raise TreeStructureError(f"{paths[shaped]}: coefficient vector has shape "
                                 f"{np.shape(coeffs[shaped])}, expected ({n},)")
    if error is not None:
        raise TreeStructureError(error)
    leaf = np.array([not node.children for node in nodes])
    outcome, scale = np.array([node.leaf_outcome for node in nodes if not node.children],
                              dtype=float).T
    return _Flat(paths, np.array(parent), np.array(depth), c, leaf,
                 np.array([node.acting_party for node in nodes[1:]], dtype=int),
                 outcome.astype(int), scale)


def _cut_cores(m: SeparableMeasurement, p: int, coeffs: np.ndarray) -> np.ndarray:
    """The cores on the party cut (p | rest) of the nodes with coefficient
    rows ``coeffs``.  Across the cut the realignment of sum_j c_j O_j is
    A diag(c) B^T, and the core R_A diag(c) R_B^T, read from the party's
    frame and the cut's other-parties side, is that realignment in
    orthonormal frames of both sides: it keeps its singular values and
    vectors and its Frobenius distances."""
    n, r_a, r_b = coeffs.shape[1], m.party_rs[p], m.cut_r(p)
    w = khatri_rao([r_a[:, :n], r_b[:, :n]], n)
    return (coeffs @ w.T).reshape(len(coeffs), len(r_a), len(r_b))


def _schmidt_ratios(sigma: np.ndarray, multi: np.ndarray) -> np.ndarray:
    """Relative second operator-Schmidt coefficient of each core, from its
    singular values.  A core whose node has fewer than two nonzero
    coefficients (``multi`` False) is that of c_j O_j, an exact product, and
    gets the ratio 0 whatever roundoff its SVD leaves."""
    if sigma.shape[1] == 1:         # one singular value: ratio 0
        return np.zeros(len(sigma))
    top = sigma[:, 0]
    return np.where(multi, np.divide(sigma[:, 1], top, out=np.zeros(len(top)),
                                     where=top != 0), 0.0)


def _rank_one(cores: np.ndarray, multi: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each core's relative second operator-Schmidt coefficient, as
    :func:`_schmidt_ratios` reads it, and its top left and right singular
    vectors, with an SVD only of the cores a bound does not settle.

    Let b0 be the core C's largest row scaled to unit norm.  The rank-one
    residual rho = |C - (C b0) b0^T|_F is at least C's distance from its
    best rank-one approximation, sqrt(sum_{i>=2} sigma_i^2) >= sigma_2, and
    as |C|_F^2 = sum_i sigma_i^2, sigma_1^2 >= |C|_F^2 - rho^2 (both by
    Eckart-Young).  So sigma_2 / sigma_1 <= rho / sqrt(|C|_F^2 - rho^2).  A
    core whose bound is at most ``RESIDUAL_TOL`` reports the bound, which is
    at least the exact ratio up to roundoff of about eps, as positivity
    reports its Weyl bound.  Its vectors come from one power step,
    b = C^T C b0 and u = C b, normalised: b0, the largest of m rows, is at
    an angle from the top right singular vector whose tangent is at most
    about sqrt(m), and the step multiplies that tangent by
    (sigma_2 / sigma_1)^2 <= 1e-16, so b and u are the SVD's vectors within
    roundoff.  Every other core, a zero one included, takes the exact SVD,
    its ratio and its vectors, so every decision on the tolerance is the
    SVD's."""
    with np.errstate(divide="ignore", invalid="ignore"):     # zero cores go on
        rows = np.linalg.norm(cores, axis=2)
        b0 = cores[np.arange(len(cores)), rows.argmax(axis=1)] / rows.max(axis=1)[:, None]
        cb = cores @ b0[:, :, None]
        rho = np.linalg.norm(cores - cb * b0[:, None, :], axis=(1, 2))
        size = np.linalg.norm(rows, axis=1)
        bound = rho / np.sqrt((size - rho) * (size + rho))
        right = (cb.transpose(0, 2, 1) @ cores)[:, 0]
        right /= np.linalg.norm(right, axis=1)[:, None]
        left = (cores @ right[:, :, None])[:, :, 0]
        left /= np.linalg.norm(left, axis=1)[:, None]
    ratios = np.where(multi, bound, 0.0)
    open_ = np.flatnonzero(~(bound <= RESIDUAL_TOL))
    if len(open_):
        u, sigma, vh = np.linalg.svd(cores[open_], full_matrices=False)
        ratios[open_] = _schmidt_ratios(sigma, multi[open_])
        left[open_], right[open_] = u[:, :, 0], vh[:, 0]
    return ratios, left, right


def _edge_residuals(cores: np.ndarray, tops: np.ndarray) -> np.ndarray:
    """Frobenius distance of each child from {X (x) Abar}, relative to
    max(1, |child|_F), from its core on the cut of its measuring party and
    b, the top right singular vector of its parent's core there, which
    spans Abar, the parent's other-parties side.  The distance is
    |core - (core b) b^T|_F, as the cores' frames are orthonormal.  b comes
    from :func:`_rank_one`: one power step where the Eckart-Young bound
    certifies the parent's core rank one within ``RESIDUAL_TOL``, which
    leaves it within roundoff of the SVD's, and the SVD's vector
    elsewhere."""
    off = cores - (cores @ tops[:, :, None]) * tops[:, None, :]
    return (np.linalg.norm(off, axis=(1, 2))
            / np.maximum(1.0, np.linalg.norm(cores, axis=(1, 2))))


def _negativity(ops: np.ndarray) -> np.ndarray:
    """max(0, -lambda_min) / max(1, |lambda|_max) for each operator of a stack."""
    eigs = np.linalg.eigvalsh(ops)
    floor = np.maximum(1.0, np.abs(eigs).max(axis=1))
    return np.maximum(0.0, -eigs[:, 0]) / floor


def _cut_checks(t: _Flat, m: SeparableMeasurement) -> tuple[np.ndarray, np.ndarray]:
    """Each node's product-structure ratio, its largest over the party cuts,
    and each child's edge residual on the cut of its measuring party, in
    walk order.  Each cut's cores are certified rank one by
    :func:`_rank_one` on the nodes with two or more nonzero coefficients
    (product structure) and on the parents (the edge check).  Two parties
    have one cut, which reads every node, and party 1's cores there are the
    transposes; otherwise cut p builds the cores of those nodes and of the
    children measuring at p only."""
    coeffs, parent = t.coeffs, t.parent[1:]
    multi = np.count_nonzero(coeffs, axis=1) >= 2
    on = np.flatnonzero(multi | ~t.leaf)
    up = np.searchsorted(on, parent)        # each child's parent's row in on
    ratios, edges = np.zeros(len(coeffs)), np.zeros(len(parent))
    if len(m.parties) == 2:
        cut = _cut_cores(m, 0, coeffs)
        ratios[on], left, right = _rank_one(cut[on], multi[on])
        for q, cores, tops in ((0, cut, right), (1, cut.transpose(0, 2, 1), left)):
            kids = np.flatnonzero(t.slots == q)
            edges[kids] = _edge_residuals(cores[kids + 1], tops[up[kids]])
        return ratios, edges
    for p in range(len(m.parties)):
        kids = np.flatnonzero(t.slots == p)
        cut = _cut_cores(m, p, coeffs[np.concatenate([on, kids + 1])])
        ratio, _, right = _rank_one(cut[:len(on)], multi[on])
        ratios[on] = np.maximum(ratios[on], ratio)
        edges[kids] = _edge_residuals(cut[len(on):], right[up[kids]])
    return ratios, edges


def _worst(pairs: Iterable[tuple[float, str]], tol: float = RESIDUAL_TOL) -> CheckResult:
    """The check over (residual, location) pairs: it passes when the worst
    residual, the first largest, is at most ``tol``, and names that
    residual's location only when it fails.  A NaN residual is the worst."""
    worst_r, worst_at = 0.0, ""
    for r, at in pairs:
        if not r <= worst_r:
            worst_r, worst_at = r, at
            if np.isnan(r):
                break
    passed = worst_r <= tol
    return CheckResult(passed, worst_r, "" if passed else worst_at)


def verify_tree(tree: ProtocolNode, m: SeparableMeasurement) -> VerificationReport:
    """Run all tree checks against a measurement.  A check passes when its
    worst residual is at most ``RESIDUAL_TOL``, a constant of the method
    that no caller sets.

    Checks: the root reconstructs the identity, every internal node is the
    sum of its children and of its descendant leaves, every node operator is
    a tensor product across parties, each child differs from its parent's
    side on the other parties only in the acting party's factor, leaves
    match their declared outcome and scale, the leaves labelled j add up to
    w_j, and every node operator is positive semidefinite.
    """
    t = _structural_pass(tree, m)
    n = m.n_outcomes
    paths, coeffs, leaf, parent = t.paths, t.coeffs, t.leaf, t.parent[1:]

    # Each linear check is a row d of coefficient differences with an
    # identity term d_n, whose residual |R d| is the Frobenius norm of
    # sum_j d_j O_j + d_n I.  Every node's descendant leaves are summed one
    # depth at a time, deepest first.
    child_sum = np.zeros_like(coeffs)
    np.add.at(child_sum, parent, coeffs[1:])
    below = np.where(leaf[:, None], coeffs, 0.0)
    for level in range(int(t.depth.max()), 0, -1):
        at = np.flatnonzero(t.depth == level)
        np.add.at(below, t.parent[at], below[at])
    matched = coeffs[leaf]
    matched[np.arange(len(t.outcome)), t.outcome] -= t.scale
    inner = coeffs[~leaf]
    rows = np.concatenate([coeffs[:1], inner - child_sum[~leaf], inner - below[~leaf], matched])
    joint = m.joint_r
    images = rows @ joint[:, :n].T
    images[0] -= joint[:, n]                # the root's identity term, d_n = -1
    linear = np.linalg.norm(images, axis=1).tolist()
    inner_paths = [path for path, is_leaf in zip(paths, leaf) if not is_leaf]
    leaf_paths = [path for path, is_leaf in zip(paths, leaf) if is_leaf]
    k = len(inner_paths)

    checks: dict[str, CheckResult] = {}
    checks["root-completeness"] = _worst([(linear[0], "root")])
    checks["node-sum"] = _worst(zip(linear[1:1 + k], inner_paths))
    checks["descendant-leaf-sum"] = _worst(zip(linear[1 + k:1 + 2 * k], inner_paths))
    ratios, edges = _cut_checks(t, m)
    checks["product-structure"] = _worst(zip(ratios.tolist(), paths))
    checks["single-party-change"] = _worst(zip(edges.tolist(), paths[1:]))
    checks["leaf-match"] = _worst(zip(linear[1 + 2 * k:], leaf_paths))

    # When outcome operators are linearly dependent, the operator checks
    # above hold for a tree that files one outcome's share under another's
    # label; the leaf scales summed per label must be the weights.
    per_outcome = np.zeros(n)
    np.add.at(per_outcome, t.outcome, t.scale)
    gaps = np.abs(per_outcome - m.weights) / max(1.0, float(m.weights.max()))
    checks["outcome-weights"] = _worst(zip(gaps.tolist(), m.labels()))

    # The Weyl bound lambda_min(sum_j c_j O_j) >= sum_j c_j (lambda_min(O_j)
    # if c_j >= 0 else lambda_max(O_j)) reads the cached extremes of each
    # O_j.  A node whose bound clears PSD_TOL reports that bound, which is at
    # least the exact quantity (its floor is >= 1); only the others are
    # formed and diagonalised.
    low, high = m.extreme_eigenvalues
    neg = np.maximum(0.0, -np.where(coeffs >= 0, coeffs * low, coeffs * high).sum(axis=1))
    open_ = np.flatnonzero(~(neg <= PSD_TOL))
    if len(open_):
        neg[open_] = _negativity(np.stack([reconstruct(m, coeffs[i]) for i in open_]))
    checks["positivity"] = _worst(zip(neg.tolist(), paths), PSD_TOL)

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

    # Tr(O_j rho) for every outcome j, from one contraction of rho with the
    # factor stacks; every probability is linear in them.
    k = len(m.dims)
    pairings = np.einsum(*factor_operands(m), rho.reshape(m.dims * 2),
                         [*range(1 + k, 1 + 2 * k), *range(1, 1 + k)], [0]).real
    labels = m.labels()
    leaf_records = [(path, node.leaf_outcome[0], float(np.dot(node.coeffs, pairings)))
                    for node, path in tree.leaves()]
    probs = [p for _, _, p in leaf_records]
    outcome_probs = np.zeros(m.n_outcomes)
    np.add.at(outcome_probs, [j for _, j, _ in leaf_records], probs)

    counts: list[int | None] = [None] * len(probs)
    if trials > 0:
        rng = rng or np.random.default_rng()
        clipped = np.clip(probs, 0.0, None)
        drawn = rng.multinomial(trials, clipped / clipped.sum())
        counts = [int(c) for c in drawn]

    direct = m.weights * pairings
    leaves = tuple(
        LeafProbability(path, j, labels[j], p, c)
        for (path, j, p), c in zip(leaf_records, counts))
    return SimulationResult(leaves, outcome_probs, direct, float(sum(probs)),
                            trials)
