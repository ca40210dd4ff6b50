"""Independent reference computations used only by the test suite.

These deliberately avoid the library's own code paths: the Kronecker
product is written with explicit loops, extreme rays are enumerated by
facet sign patterns instead of double description, completeness
weights come from an unconstrained least-squares solve or scipy's
nonnegative one on the whole realified system, independent
subsets are chosen with one SVD of the whole candidate stack per candidate,
the constraint matrix is built from dense dual operators and a bystander
operator taken as a partial trace of the node operator, ray splits
are found by trying every combination of rays, leaves are found by
comparing the node operator densely with every outcome, and protocol
trees are verified on dense D x D node operators.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import nnls

from locc_forge.errors import (
    DegenerateBasisError,
    DimensionMismatchError,
    InconsistentNodeError,
)
from locc_forge.feasibility import reconstruct
from locc_forge.measurement import complement_span, local_span
from locc_forge.operators import project_factor, tensor
from locc_forge.tolerances import (
    DEFAULT_TOL,
    GRAM_CONDITION_LIMIT,
    LEAF_SUPPORT_TOL,
    PSD_TOL,
    RANK_FACTOR,
    SCALE_TOL,
    Tolerances,
    rank_threshold,
)
from locc_forge.verify import CheckResult, VerificationReport, _structural_pass


def hand_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product via index arithmetic."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def nullspace_projector(q: np.ndarray, n_cols: int) -> np.ndarray:
    if q.shape[0] == 0:
        return np.eye(n_cols)
    basis = null_space(q)
    return basis @ basis.T


def projector_of(vectors) -> np.ndarray:
    """Orthogonal projector onto the span of the given vectors."""
    stack = np.stack([np.asarray(v, float) for v in vectors]).T
    qmat, _ = np.linalg.qr(stack)
    return qmat @ qmat.T


def rank_cutoff_nullspace(q: np.ndarray, n_cols: int,
                          rank_factor: float = 1e-11) -> np.ndarray:
    """Nullspace basis under the library-wide rank cutoff.

    The cutoff formula max(rows, cols) * sigma_max * rank_factor is the
    published policy; the oracle shares it on purpose so that only the ray
    *enumeration* differs between the two routes.
    """
    if q.shape[0] == 0:
        return np.eye(n_cols)
    _, sigma, vh = np.linalg.svd(q)
    cutoff = max(q.shape) * float(sigma[0]) * rank_factor
    rank = int(np.sum(sigma > cutoff))
    return vh[rank:].T


def brute_force_rays(q: np.ndarray, feas_tol: float = 1e-9) -> list[np.ndarray]:
    """Extreme rays of {c >= 0 : Q c = 0} by enumerating facet sign patterns.

    Every extreme ray of a pointed k-dimensional cone is pinned by k - 1
    linearly independent active nonnegativity facets, so trying all
    (k - 1)-subsets of coordinates and keeping the feasible kernel
    directions enumerates all rays.  Coordinates that vanish identically
    on the nullspace impose no facet and are skipped.  Exponential, fine
    for k <= 3.
    """
    q = np.asarray(q, dtype=float)
    n = q.shape[1]
    basis = rank_cutoff_nullspace(q, n)
    k = basis.shape[1]
    assert k >= 1, "trivial nullspace"
    row_norms = np.linalg.norm(basis, axis=1)
    live = [i for i in range(n) if row_norms[i] > 1e-10 * row_norms.max()]
    rays = []
    for subset in combinations(live, k - 1):
        rows = basis[list(subset), :]
        kern = null_space(rows) if subset else np.eye(k)
        if kern.shape[1] != 1:
            continue
        for sign in (1.0, -1.0):
            c = sign * (basis @ kern[:, 0])
            if np.all(c >= -feas_tol):
                c = np.clip(c, 0.0, None)
                if c.sum() > 0:
                    rays.append(c / c.sum())
    unique: list[np.ndarray] = []
    for c in rays:
        if not any(np.abs(c - u).max() < 1e-7 for u in unique):
            unique.append(c)
    unique.sort(key=lambda c: tuple(np.round(c, 12)))
    return unique


def combination_decompose(parent: np.ndarray, rays: Sequence[np.ndarray],
                          tol: Tolerances = DEFAULT_TOL
                          ) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Exact splits of ``parent`` by trying every combination of two or more
    rays not proportional to it, one NNLS solve each, with no size cap.

    A combination counts when every scale exceeds ``SCALE_TOL`` and the
    max-norm residual is within ``tol.residual * max(1, max(parent))``.
    Returns (support, scales) pairs ordered by (size, support).
    """
    parent = np.asarray(parent, dtype=float)
    p_norm = float(np.linalg.norm(parent))
    if p_norm == 0:
        return []
    usable = [i for i, r in enumerate(rays)
              if float(np.dot(parent, r) / (p_norm * np.linalg.norm(r))) < 1.0 - 1e-9]
    floor = max(1.0, float(parent.max()))
    out = []
    for size in range(2, len(usable) + 1):
        for support in combinations(usable, size):
            mat = np.column_stack([rays[i] for i in support])
            scales, _ = nnls(mat, parent)
            if np.all(scales > SCALE_TOL) and \
                    float(np.abs(mat @ scales - parent).max()) <= tol.residual * floor:
                out.append((support, scales))
    return out


def _completeness_system(ops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The realified 2 D^2 x n system a w = b of sum_j w_j O_j = I."""
    ops = np.asarray(ops, dtype=complex)
    n, dim = ops.shape[0], ops.shape[1]
    cols = ops.reshape(n, -1).T
    a = np.vstack([cols.real, cols.imag])
    b = np.concatenate([np.eye(dim).ravel(), np.zeros(dim * dim)])
    return a, b


def lstsq_completeness_weights(ops: np.ndarray) -> np.ndarray:
    """Weights solving sum_j w_j O_j = I by plain (sign-unconstrained) lstsq."""
    w, *_ = np.linalg.lstsq(*_completeness_system(ops), rcond=None)
    return w


def nnls_completeness_weights(ops: np.ndarray) -> np.ndarray:
    """Weights solving sum_j w_j O_j = I by scipy's nonnegative least squares
    on the whole realified system."""
    return nnls(*_completeness_system(ops))[0]


def greedy_svd_independent_subset(ops: Sequence[np.ndarray],
                                  rank_factor: float = RANK_FACTOR) -> list[int]:
    """Indices of a maximal linearly independent subset, greedy in input order.

    The library's original rule, one SVD of the whole candidate stack per
    candidate: rank is decided from the singular values of the vectorized
    stack with cutoff ``max(rows, cols) * sigma_max * rank_factor``.  A list
    of zero operators yields an empty index list.
    """
    if len(ops) == 0:
        raise ValueError("empty operator list")
    shape = np.shape(ops[0])
    vecs = np.stack([np.asarray(op, dtype=np.complex128).ravel() for op in ops])
    if any(np.shape(op) != shape for op in ops):
        raise DimensionMismatchError("operators have mixed dimensions")
    chosen: list[int] = []
    for i in range(len(ops)):
        stack = vecs[chosen + [i]]
        sigma = np.linalg.svd(stack, compute_uv=False)
        cutoff = rank_threshold(stack.shape, float(sigma[0]), rank_factor)
        rank = int(np.sum(sigma > cutoff))
        if rank == len(chosen) + 1:
            chosen.append(i)
    return chosen


def _dense_duals(ops: np.ndarray) -> np.ndarray:
    """Dual operators of a (k, d, d) stack, formed densely from its Gram matrix."""
    flat = ops.reshape(len(ops), -1)
    gram = (flat.conj() @ flat.T).real
    sigma = np.linalg.svd(gram, compute_uv=False)
    if sigma[-1] <= 0 or sigma[0] / sigma[-1] > GRAM_CONDITION_LIMIT:
        raise DegenerateBasisError("Gram matrix is ill-conditioned")
    coeffs = np.linalg.solve(gram, np.eye(len(ops)))
    return np.einsum("kj,jab->kab", coeffs, ops)


def bystander_operator(ctx) -> np.ndarray:
    """Abar of a node, up to scale: the partial trace of the dense node
    operator over the acting party, with the other parties in declaration
    order.  For a product node X (x) Abar it is Tr(X) Abar."""
    m, p = ctx.measurement, ctx.acting_party
    dims = m.dims
    op = reconstruct(m, ctx.coeffs).reshape(dims * 2)
    rest = m.total_dim // dims[p]
    return np.trace(op, axis1=p, axis2=len(dims) + p).reshape(rest, rest)


def dense_build_q(ctx, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """The constraint matrix built from dense operators, as the library first did.

    Abar is the partial trace of the node operator, and a node operator that
    is not X (x) Abar is refused.  The bystander basis is formed as
    operators: Abar, then the complement span's elements chosen by the
    greedy-SVD rule and orthogonalized against Abar.  Both bases' duals are
    formed as operators and paired with the factors of the outcomes in the
    context's support, the columns the library builds.  Only the spans, the
    support and the node operator come from the library.
    """
    m = ctx.measurement
    p = ctx.acting_party
    support = ctx.support
    abar = bystander_operator(ctx)
    if not np.any(abar):
        raise InconsistentNodeError("node operator is zero")
    op = reconstruct(m, ctx.coeffs)
    _, residual = project_factor(op, abar, p, m.dims)
    if residual > tol.residual * max(1.0, float(np.abs(op).max())):
        raise InconsistentNodeError(
            f"node operator is not a product across the cut (residual {residual:.3e})")
    span = complement_span(m, p)
    acting = local_span(m, p)

    norm2 = float(np.vdot(abar, abar).real)
    candidates = [abar] + list(span)
    elements = [abar] + [
        candidates[i] - (np.vdot(abar, candidates[i]).real / norm2) * abar
        for i in greedy_svd_independent_subset(candidates, tol.rank_factor) if i > 0]
    if len(elements) != len(span):
        raise InconsistentNodeError("bystander span completion has wrong dimension")

    acting_duals = _dense_duals(acting)
    bystander_duals = _dense_duals(np.stack(elements))[1:]
    if len(bystander_duals) == 0:
        return np.zeros((0, len(support)))
    t_act = np.einsum("aij,nij->an", acting_duals.conj(), m.local_factors(p)[support])
    t_bys = np.einsum("bij,nij->bn", bystander_duals.conj(),
                      m.complement_factors(p)[support])
    rows = np.einsum("an,bn->abn", t_act, t_bys).reshape(-1, len(support))
    scale = max(1.0, float(np.abs(rows).max()))
    assert float(np.abs(rows.imag).max()) <= 1e-10 * scale
    q = rows.real
    return q[np.abs(q).max(axis=1) > 1e-13 * scale]


def whole_cone_rays(ctx, tol: Tolerances = DEFAULT_TOL) -> list[np.ndarray]:
    """Extreme rays of the context's whole cone, on every outcome column
    whatever the node's support: Q on all n columns from the library's
    party tables (with the complement of Abar's coordinates taken from an
    SVD, not the library's Householder step), its nullspace under the
    library's rank policy, then the library's double description."""
    from locc_forge.cones import extreme_rays
    from locc_forge.feasibility import _bystander_coords, party_tables

    n = ctx.measurement.n_outcomes
    tables = party_tables(ctx.measurement, ctx.acting_party)
    y = _bystander_coords(tables, ctx.coeffs)
    perp = np.linalg.svd(y[None, :])[2][1:]
    q = (tables.acting[:, None, :] * (perp @ tables.coords)[None, :, :]).reshape(-1, n)
    q = q[np.abs(q).max(axis=1) > 1e-13 * max(1.0, float(np.abs(q).max()))]
    return extreme_rays(q, rank_cutoff_nullspace(q, n, tol.rank_factor), tol)


def dense_leaf_outcome(m, coeffs, tol: Tolerances = DEFAULT_TOL):
    """The library's leaf test without its bound: a coefficient vector on a
    single outcome, or else the first outcome j whose best scale s =
    <O_j, X> / |O_j|^2 is positive and leaves every entry of X - s O_j
    within ``tol.residual * max(1, max |X|)``, compared densely for every
    outcome."""
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
    flat = ops.reshape(m.n_outcomes, -1).view(np.float64)
    dots = flat @ op.reshape(-1).view(np.float64)
    norms2 = np.einsum("ij,ij->i", flat, flat)
    for j in np.flatnonzero(norms2 != 0.0):
        s = float(dots[j] / norms2[j])
        if s > 0 and float(np.abs(op - s * ops[j]).max()) <= tol.residual * scale:
            return int(j), s
    return None


def per_node_product_and_positivity(tree, m) -> tuple[tuple[float, str], tuple[float, str]]:
    """The verifier's product-structure and positivity worsts, one node and
    one SVD or eigendecomposition at a time: for each node the largest
    second/first operator-Schmidt coefficient ratio over the party cuts, and
    the negativity of its smallest eigenvalue relative to max(1, |eig|max).
    Returns (value, path) of the first node attaining each maximum.  The
    node operators are formed as the verifier forms them, so only the
    decompositions are done differently."""
    dims = m.dims
    n = len(dims)
    nodes = list(tree.walk())
    ops = m.outcome_operators
    coeffs = np.stack([np.asarray(node.coeffs, float) for node, _ in nodes])
    stacked = (coeffs @ ops.reshape(len(ops), -1)).reshape(len(nodes), *ops.shape[1:])
    products, negs = [], []
    for (node, path), op in zip(nodes, stacked):
        ratios = []
        for slot in range(n):
            others = [p for p in range(n) if p != slot]
            t = op.reshape(dims * 2).transpose(
                [slot, n + slot] + others + [n + p for p in others])
            sigma = np.linalg.svd(t.reshape(dims[slot] ** 2, -1), compute_uv=False)
            ratios.append(0.0 if sigma[0] == 0 or sigma.size == 1
                          else float(sigma[1] / sigma[0]))
        products.append((max(ratios), path))
        eigs = np.linalg.eigvalsh(op)
        negs.append((max(0.0, -float(eigs[0])) / max(1.0, float(np.abs(eigs).max())), path))
    return max(products, key=lambda t: t[0]), max(negs, key=lambda t: t[0])


def _dense_schmidt_second(ops: np.ndarray, slot: int, dims: tuple[int, ...]) -> np.ndarray:
    """Relative second operator-Schmidt coefficient across (slot | rest), for
    each operator of a (nodes, D, D) stack, from the full realignments."""
    n = len(dims)
    dp = dims[slot]
    dc = ops.shape[1] // dp
    t = ops.reshape((len(ops),) + dims * 2)
    others = [p for p in range(n) if p != slot]
    legs = [slot, n + slot] + others + [n + p for p in others]
    t = t.transpose([0] + [1 + leg for leg in legs])
    sigma = np.linalg.svd(t.reshape(-1, dp * dp, dc * dc), compute_uv=False)
    if sigma.shape[1] == 1:
        return np.zeros(len(ops))
    top = sigma[:, 0]
    return np.divide(sigma[:, 1], top, out=np.zeros(len(ops)), where=top != 0)


def dense_verify_tree(tree, m, tol: Tolerances = DEFAULT_TOL) -> VerificationReport:
    """The library's first verifier, on dense D x D node operators: the same
    checks, quantities and tolerances as ``verify.verify_tree``, with
    product structure from SVDs of each node's full realignment across every
    party cut, the edge check from ``project_factor`` one edge at a time
    down the tree, and positivity from the eigenvalues of every node
    operator.  Only the structural pass and the report types are shared."""
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
    worst_slot = np.max([_dense_schmidt_second(stacked, slot, dims)
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
