"""Independent reference computations used only by the test suite.

These deliberately avoid the library's own code paths: the Kronecker
product is written with explicit loops, extreme rays are enumerated by
facet sign patterns instead of double description (and a one-column
nullspace through the double description's generic half-line route, a
two-column one through the double description itself, instead of the
library's closed forms), completeness
weights come from an unconstrained least-squares solve or scipy's
nonnegative one on the whole realified system, factor positivity from one
eigvalsh per factor, a measurement's refusals from one ``as_hermitian``
call per factor in (outcome, party) order, independent
subsets are chosen with one SVD of the whole candidate stack per candidate,
the constraint matrix is built from dense dual operators and a bystander
operator taken as a partial trace of the node operator, ray splits
are found by trying every combination of rays, trees are walked by
recursion, leaves are found by comparing the node operator densely with
every outcome, and protocol trees are verified on dense D x D node
operators.  The verifier's product-structure and edge values are also
checked against one full SVD of every node's core on every cut, the route
the verifier's rank-one certificate replaced.  A cone is also built the
full way, from the whole Q, its nullspace and ``extreme_rays``, for the
cones the library reads class by class.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import nnls

from locc_forge import cones
from locc_forge.cones import ConeError
from locc_forge.errors import (
    DimensionMismatchError,
    InconsistentNodeError,
)
from locc_forge.feasibility import FeasibleCone, build_q, nullspace
from locc_forge.measurement import reconstruct
from locc_forge.measurement import complement_span, local_span
from locc_forge.operators import as_hermitian, khatri_rao, project_factor, tensor
from locc_forge.tolerances import (
    DUPLICATE_TOL,
    MARGINAL_RANK_BAND,
    NULLSPACE_RESIDUAL_TOL,
    PSD_TOL,
    RANK_FACTOR,
    RESIDUAL_TOL,
    SCALE_TOL,
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


def complement_factors(m, party: int) -> np.ndarray:
    """(n, D/d_p, D/d_p) stack of the joint factors of all parties but one,
    each a ``numpy.kron`` of the other parties' factors in party order (the
    1 x 1 identity when there are none)."""
    stack = []
    for outcome in m.outcomes:
        joint = np.eye(1, dtype=complex)
        for q, f in enumerate(outcome.factors):
            if q != party:
                joint = np.kron(joint, f)
        stack.append(joint)
    return np.stack(stack)


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


def rank_cutoff_nullspace(q: np.ndarray, n_cols: int) -> np.ndarray:
    """Nullspace basis under the library-wide rank cutoff.

    The cutoff formula max(rows, cols) * sigma_max * RANK_FACTOR is the
    published policy; the oracle shares it on purpose so that only the ray
    *enumeration* differs between the two routes.
    """
    if q.shape[0] == 0:
        return np.eye(n_cols)
    _, sigma, vh = np.linalg.svd(q)
    cutoff = max(q.shape) * float(sigma[0]) * RANK_FACTOR
    rank = int(np.sum(sigma > cutoff))
    return vh[rank:].T


def rank_cutoff_marginal(q: np.ndarray) -> bool:
    """Whether a singular value of ``q``, from its direct SVD, lies within
    the marginal band around the library-wide rank cutoff."""
    _, sigma, _ = np.linalg.svd(q)
    cutoff = max(q.shape) * float(sigma[0]) * RANK_FACTOR
    return bool(np.any((sigma > cutoff / MARGINAL_RANK_BAND)
                       & (sigma < cutoff * MARGINAL_RANK_BAND)))


def half_line_rays(q: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The one extreme ray of {c >= 0 : Q c = 0} for a one-column nullspace
    basis N, the generic way: the double description's subcone is the
    half-line of the largest live row's sign, which the loop keeps or
    empties, and its ray goes through the generic post-processing (activity
    zeroing, sign and roundoff filters, L1 scaling, residual filter)."""
    a = np.asarray(basis, dtype=float)
    assert a.shape[1] == 1
    row_norms = np.linalg.norm(a, axis=1)
    vanishing = row_norms <= cones._VANISHING_TOL * float(row_norms.max())
    if vanishing.all():
        raise ConeError("all constraint rows vanish")
    cuts = cones._ACTIVITY_TOL * row_norms
    cuts[vanishing] = np.inf
    col = a[:, 0]
    sign = float(np.sign(col[np.argmax(np.abs(col))]))
    if np.any(sign * col < -cuts):
        raise ConeError("cone is trivial")
    cs = np.array([[sign]]) @ a.T
    cs[np.abs(cs) <= cuts] = 0.0
    cs = cs[(cs.min(axis=1) > -1e-9) & (cs.max(axis=1) > 0)]
    np.maximum(cs, 0.0, out=cs)
    cs /= cs.sum(axis=1, keepdims=True)
    cs = cs[np.abs(cs @ np.asarray(q, dtype=float).T).max(axis=1, initial=0.0)
            <= NULLSPACE_RESIDUAL_TOL]
    if not len(cs):
        raise ConeError("no nonnegative ray found; cone is {0}")
    return cs


def planar_double_description_rays(q: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The extreme rays of {c >= 0 : Q c = 0} for a two-column nullspace
    basis N, the generic way: the double description of {y : N y >= 0} and
    the generic post-processing (activity zeroing, sign and roundoff
    filters, L1 scaling, residual filter, deduplication, lexicographic
    sort)."""
    a = np.asarray(basis, dtype=float)
    assert a.shape[1] == 2
    ys, cuts = cones._double_description(a)
    cs = ys @ a.T
    cs[np.abs(cs) <= cuts] = 0.0
    cs = cs[(cs.min(axis=1) > -1e-9) & (cs.max(axis=1) > 0)]
    np.maximum(cs, 0.0, out=cs)
    cs /= cs.sum(axis=1, keepdims=True)
    cs = cs[np.abs(cs @ np.asarray(q, dtype=float).T).max(axis=1, initial=0.0)
            <= NULLSPACE_RESIDUAL_TOL]
    if not len(cs):
        raise ConeError("no nonnegative ray found; cone is {0}")
    unique: list[np.ndarray] = []
    for c in cs:
        if all(1.0 - c @ u / (np.linalg.norm(c) * np.linalg.norm(u)) >= DUPLICATE_TOL
               for u in unique):
            unique.append(c)
    return np.array(sorted(unique, key=lambda c: tuple(np.round(c, 12))))


def generic_tail_rays(q: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``cones.extreme_rays`` for a one- or two-column nullspace basis N,
    with every ray through the tail that the double description's rays
    take: the one-column half-line, or the ends of ``cones._arc_ends`` with
    activity zeroing and sign and roundoff filters, then L1 scaling, the
    residual filter on (rows, n) arrays, deduplication by the full cosine
    matrix and ``numpy.lexsort`` of the rows rounded to 12 digits.  The
    library's own two short tails must return the same bytes."""
    q = np.asarray(q, dtype=float)
    basis = np.asarray(basis, dtype=float)
    k = basis.shape[1]
    assert k in (1, 2) and q.shape[0] > 0
    if k == 1:
        col = basis[:, 0]
        mags = np.abs(col)
        top = int(mags.argmax())
        cs = col[None, :] * (1.0 if col[top] > 0 else -1.0)
        cs[:, mags <= cones._VANISHING_TOL * mags[top]] = 0.0
        if cs.min() < 0:
            raise ConeError("cone is trivial")
    else:
        ys, cuts = cones._arc_ends(basis)
        cs = ys @ basis.T
        cs[np.abs(cs) <= cuts] = 0.0
        cs = cs[(cs.min(axis=1) > -1e-9) & (cs.max(axis=1) > 0)]
        np.maximum(cs, 0.0, out=cs)
    cs /= cs.sum(axis=1, keepdims=True)
    cs = cs[np.abs(cs @ q.T).max(axis=1, initial=0.0) <= NULLSPACE_RESIDUAL_TOL]
    if not len(cs):
        raise ConeError("no nonnegative ray found; cone is {0}")
    if len(cs) > 1:
        norms = np.linalg.norm(cs, axis=1)
        close = ((1.0 - (cs @ cs.T) / np.outer(norms, norms)) < DUPLICATE_TOL).tolist()
        unique: list[int] = []
        for i in range(len(cs)):
            if not any(close[i][j] for j in unique):
                unique.append(i)
        cs = cs[unique]
        cs = cs[np.lexsort(np.round(cs, 12).T[::-1])]
    return cs


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
                          residual_tol: float = RESIDUAL_TOL
                          ) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Exact splits of ``parent`` by trying every combination of two or more
    rays not proportional to it, one NNLS solve each, with no size cap.

    A combination counts when every scale exceeds ``SCALE_TOL`` and the
    max-norm residual is within ``residual_tol * max(1, max(parent))``.
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
                    float(np.abs(mat @ scales - parent).max()) <= residual_tol * floor:
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


def per_factor_validation(m) -> tuple[list[tuple[str, str, float]], float]:
    """What the ``SeparableMeasurement`` constructor checks, as (kind,
    location, magnitude) violations in (outcome, party) order and the
    completeness residual, from one eigvalsh per factor under ``is_psd``'s
    rule and the Frobenius norm of the dense sum_j w_j O_j - I.  The
    constructor refuses the first violation; run on a measurement built
    without it (``conftest.unchecked``) this lists them all."""
    violations = []
    total = -np.eye(m.total_dim, dtype=complex)
    for j, (o, w) in enumerate(zip(m.outcomes, m.weights)):
        for k, f in enumerate(o.factors):
            eigs = np.linalg.eigvalsh(f)
            if not eigs[0] >= -PSD_TOL * max(1.0, float(np.abs(eigs).max())):
                violations.append(("negative factor", f"outcomes[{j}].factors[{k}]",
                                   float(eigs[0])))
        op = o.factors[0]
        for f in o.factors[1:]:
            op = hand_kron(op, f)
        total += w * op
    residual = float(np.linalg.norm(total))
    if not residual <= RESIDUAL_TOL:
        violations.append(("incomplete", "outcomes", residual))
    return violations, residual


def per_factor_refusal(parties, outcomes) -> tuple[str, str] | None:
    """The first refusal of the measurement constructor's checks of its
    outcomes, as (location, message), from one ``as_hermitian`` call per
    factor: for each outcome in order its factor count, then each factor's
    ``as_hermitian`` and its party's dimension, then its label; after all
    outcomes, positivity in (outcome, party) order, one eigvalsh per factor.
    None when every one passes."""
    first_with: dict[str, int] = {}
    checked = []
    for j, (label, factors) in enumerate(outcomes):
        where = f"outcomes[{j}]"
        if len(factors) != len(parties):
            return f"{where}.factors", f"{len(factors)} factors for {len(parties)} parties"
        row = []
        for k, (party, f) in enumerate(zip(parties, factors)):
            try:
                f = as_hermitian(f)
            except ValueError as exc:
                return f"{where}.factors[{k}]", str(exc)
            if f.shape[0] != party.dim:
                return (f"{where}.factors[{k}]", f"dimension {f.shape[0]} does not match party "
                        f"{party.name!r} (dim {party.dim})")
            row.append(f)
        label = str(label)
        if label in first_with:
            return (f"{where}.label",
                    f"outcomes {first_with[label]} and {j} share the label {label!r}")
        first_with[label] = j
        checked.append(row)
    if not checked:
        return "outcomes", "at least one outcome required"
    for j, row in enumerate(checked):
        for k, f in enumerate(row):
            eigs = np.linalg.eigvalsh(f)
            if not eigs[0] >= -PSD_TOL * max(1.0, float(np.abs(eigs).max())):
                return (f"outcomes[{j}].factors[{k}]", f"factor is not positive semidefinite "
                        f"(smallest eigenvalue {eigs[0]:.3e})")
    return None


def greedy_svd_independent_subset(ops: Sequence[np.ndarray]) -> list[int]:
    """Indices of a maximal linearly independent subset, greedy in input order.

    The library's original rule, one SVD of the whole candidate stack per
    candidate: rank is decided from the singular values of the vectorized
    stack with cutoff ``max(rows, cols) * sigma_max * RANK_FACTOR``.  A list
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
        cutoff = rank_threshold(stack.shape, float(sigma[0]))
        rank = int(np.sum(sigma > cutoff))
        if rank == len(chosen) + 1:
            chosen.append(i)
    return chosen


def _dense_duals(ops: np.ndarray) -> np.ndarray:
    """Dual operators of a (k, d, d) stack, formed densely from its Gram matrix."""
    flat = ops.reshape(len(ops), -1)
    gram = (flat.conj() @ flat.T).real
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


def dense_build_q(ctx, residual_tol: float = RESIDUAL_TOL) -> np.ndarray:
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
    if residual > residual_tol * max(1.0, float(np.abs(op).max())):
        raise InconsistentNodeError(
            f"node operator is not a product across the cut (residual {residual:.3e})")
    span = complement_span(m, p)
    acting = local_span(m, p)

    norm2 = float(np.vdot(abar, abar).real)
    candidates = [abar] + list(span)
    elements = [abar] + [
        candidates[i] - (np.vdot(abar, candidates[i]).real / norm2) * abar
        for i in greedy_svd_independent_subset(candidates) if i > 0]
    if len(elements) != len(span):
        raise InconsistentNodeError("bystander span completion has wrong dimension")

    acting_duals = _dense_duals(acting)
    bystander_duals = _dense_duals(np.stack(elements))[1:]
    if len(bystander_duals) == 0:
        return np.zeros((0, len(support)))
    t_act = np.einsum("aij,nij->an", acting_duals.conj(), m.local_factors(p)[support])
    t_bys = np.einsum("bij,nij->bn", bystander_duals.conj(),
                      complement_factors(m, p)[support])
    rows = np.einsum("an,bn->abn", t_act, t_bys).reshape(-1, len(support))
    scale = max(1.0, float(np.abs(rows).max()))
    assert float(np.abs(rows.imag).max()) <= 1e-10 * scale
    q = rows.real
    return q[np.abs(q).max(axis=1) > 1e-13 * scale]


def search_frames(m, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tables ``build_q`` reads for party p from the measurement's
    frames: acting = R_p[:, :n], coords = R_c[:, :n] and the identity's
    coordinates R_c[:, n], R_c the side of p's cut."""
    n, side = m.n_outcomes, m.cut_r(p)
    return m.party_rs[p][:, :n], side[:, :n], side[:, n]


def whole_cone_rays(ctx) -> list[np.ndarray]:
    """Extreme rays of the context's whole cone, on every outcome column
    whatever the node's support: Q on all n columns from the measurement's
    frames (with the complement of Abar's coordinates taken from an SVD,
    not the library's Householder step), its nullspace under the library's
    rank policy, then the library's double description."""
    from locc_forge.cones import extreme_rays
    from locc_forge.feasibility import _bystander_coords

    n = ctx.measurement.n_outcomes
    acting, coords, _ = search_frames(ctx.measurement, ctx.acting_party)
    y = _bystander_coords(acting, coords, ctx.coeffs)
    perp = np.linalg.svd(y[None, :])[2][1:]
    q = (acting[:, None, :] * (perp @ coords)[None, :, :]).reshape(-1, n)
    q = q[np.abs(q).max(axis=1) > 1e-13 * max(1.0, float(np.abs(q).max()))]
    return extreme_rays(q, rank_cutoff_nullspace(q, n))


def face_qmatrix(ctx) -> np.ndarray:
    """The whole constraint matrix of the context's face, on all n outcome
    columns: the library's Q on the support's columns, plus a unit row e_j
    for each outcome j off the support."""
    from locc_forge.feasibility import build_q

    n = ctx.measurement.n_outcomes
    face_q = build_q(ctx)
    off = np.setdiff1d(np.arange(n), ctx.support)
    q = np.zeros((len(face_q) + len(off), n))
    q[:len(face_q), ctx.support] = face_q
    q[len(face_q) + np.arange(len(off)), off] = 1.0
    return q


def _mixing_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random invertible n x n matrix: an orthogonal one with rescaled columns."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q * rng.uniform(0.5, 2.0, size=n)


def mixed_basis_q(ctx, rng: np.random.Generator) -> np.ndarray:
    """The constraint matrix on the context's support in randomly mixed span
    bases: the measurement's frames and Abar coordinates y (the cut's
    identity column at the root), the complement of y taken from an SVD as
    in :func:`whole_cone_rays`, and both sides' rows recombined by random
    invertible matrices.  Its rows differ from ``build_q``'s; its nullspace
    must not."""
    from locc_forge.feasibility import _bystander_coords

    acting, coords, identity = search_frames(ctx.measurement, ctx.acting_party)
    support = ctx.support
    y = identity if ctx.root else _bystander_coords(acting, coords, ctx.coeffs)
    perp = np.linalg.svd(y[None, :])[2][1:]
    if len(perp) == 0:
        return np.zeros((0, len(support)))
    t_act = _mixing_matrix(len(acting), rng) @ acting[:, support]
    t_bys = _mixing_matrix(len(perp), rng) @ perp @ coords[:, support]
    return (t_act[:, None, :] * t_bys[None, :, :]).reshape(-1, len(support))


def recursive_walk(node, path: str = "root"):
    """(node, path) pairs of a protocol tree in preorder, children in order,
    by recursion."""
    yield node, path
    for i, child in enumerate(node.children):
        yield from recursive_walk(child, f"{path}.{i}")


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


def svd_cut_values(tree, m) -> tuple[np.ndarray, np.ndarray]:
    """Product-structure ratios per cut and node, (cuts, nodes), and each
    child's edge residual, in walk order, from one full SVD of every core
    on every cut.  The cores are the verifier's, R_A diag(c) R_B^T from the
    party's frame and the cut's other-parties side; two parties have one
    cut, where a child measuring at party 1 reads the transposed cores and
    its parent's top left singular vector.  A node with fewer than two
    nonzero coefficients, an exact product, gets the ratio 0."""
    t = _structural_pass(tree, m)
    coeffs, n, rs = t.coeffs, m.n_outcomes, m.party_rs
    multi = np.count_nonzero(coeffs, axis=1) >= 2
    parent = t.parent[1:]
    cuts = len(rs) if len(rs) > 2 else 1
    ratios, edges = np.zeros((cuts, len(coeffs))), np.zeros(len(parent))

    def edge(cores, tops, kids):
        c, b = cores[kids + 1], tops[parent[kids]]
        off = c - (c @ b[:, :, None]) * b[:, None, :]
        return np.linalg.norm(off, axis=(1, 2)) / np.maximum(1.0, np.linalg.norm(c, axis=(1, 2)))

    for p in range(cuts):
        r_b = m.cut_r(p)
        w = khatri_rao([rs[p][:, :n], r_b[:, :n]], n)
        cut = (coeffs @ w.T).reshape(len(coeffs), len(rs[p]), len(r_b))
        u, sigma, vh = np.linalg.svd(cut, full_matrices=False)
        if sigma.shape[1] > 1:
            top = sigma[:, 0]
            ratios[p] = np.where(multi, np.divide(sigma[:, 1], top, out=np.zeros(len(top)),
                                                  where=top != 0), 0.0)
        kids = np.flatnonzero(t.slots == p)
        edges[kids] = edge(cut, vh[:, 0], kids)
        if len(rs) == 2:
            kids = np.flatnonzero(t.slots == 1)
            edges[kids] = edge(cut.transpose(0, 2, 1), u[:, :, 0], kids)
    return ratios, edges


def _realignments(ops: np.ndarray, slot: int, dims: tuple[int, ...]) -> np.ndarray:
    """(nodes, d_slot^2, (D/d_slot)^2) realignments of a (nodes, D, D) stack
    across the cut (slot | rest): rows index the slot's matrix entries,
    columns the other parties' in declaration order."""
    n = len(dims)
    others = [p for p in range(n) if p != slot]
    legs = [slot, n + slot] + others + [n + p for p in others]
    t = ops.reshape((len(ops),) + dims * 2).transpose([0] + [1 + leg for leg in legs])
    return t.reshape(len(ops), dims[slot] ** 2, -1)


def _dense_schmidt_second(ops: np.ndarray, slot: int, dims: tuple[int, ...]) -> np.ndarray:
    """Relative second operator-Schmidt coefficient across (slot | rest), for
    each operator of a (nodes, D, D) stack, from the full realignments."""
    sigma = np.linalg.svd(_realignments(ops, slot, dims), compute_uv=False)
    if sigma.shape[1] == 1:
        return np.zeros(len(ops))
    top = sigma[:, 0]
    return np.divide(sigma[:, 1], top, out=np.zeros(len(ops)), where=top != 0)


def frobenius(x: np.ndarray) -> float:
    return float(np.linalg.norm(x))


def max_norm(x: np.ndarray) -> float:
    return float(np.abs(x).max())


def dense_check_values(tree, m, norm=frobenius) -> dict[str, list[tuple[float, str]]]:
    """Every check's (residual, location) pairs, in walk order, on dense
    D x D node operators.  Root completeness, node-sum, descendant-leaf-sum
    and leaf-match are ``norm`` (by default the Frobenius norm, as the
    verifier reports) of sum_j d_j O_j for each check's coefficient
    difference d, minus the identity at the root.  Product structure comes
    from SVDs of each node's full realignment across every party cut, the
    edge check from each child's full realignment projected off the top
    right singular vector of its parent's, in the Frobenius norm relative
    to max(1, |child|_F), and positivity from the eigenvalues of every node
    operator.  Only the structural pass is shared with the verifier."""
    _structural_pass(tree, m)
    ops = m.outcome_operators
    nodes = list(tree.walk())
    paths = [path for _, path in nodes]
    coeffs = np.stack([np.asarray(n.coeffs, float) for n, _ in nodes])
    stacked = (coeffs @ ops.reshape(m.n_outcomes, -1)).reshape(len(nodes), *ops.shape[1:])
    node_op = dict(zip(paths, stacked))
    dims = m.dims
    inner = [(node, path) for node, path in nodes if not node.is_leaf]

    def residual(d: np.ndarray) -> float:
        return norm(np.einsum("j,jab->ab", d, ops))

    def edge(child, cpath: str) -> float:
        both = np.stack([node_op[cpath.rpartition(".")[0]], node_op[cpath]])
        up, kid = _realignments(both, child.acting_party, dims)
        v = np.linalg.svd(up)[2][0]
        return frobenius(kid - np.outer(kid @ v.conj(), v)) / max(1.0, frobenius(kid))

    def leaf_match(node) -> float:
        j, scale = node.leaf_outcome
        d = np.array(node.coeffs, float)
        d[j] -= scale
        return residual(d)

    per_outcome = np.zeros(m.n_outcomes)
    for node, _ in tree.leaves():
        j, scale = node.leaf_outcome
        per_outcome[j] += scale
    gaps = np.abs(per_outcome - m.weights) / max(1.0, float(m.weights.max()))
    product = np.max([_dense_schmidt_second(stacked, slot, dims)
                      for slot in range(len(dims))], axis=0)
    eigs = np.linalg.eigvalsh(stacked)
    neg = np.maximum(0.0, -eigs[:, 0]) / np.maximum(1.0, np.abs(eigs).max(axis=1))
    return {
        "root-completeness": [(norm(node_op["root"] - np.eye(m.total_dim)), "root")],
        "node-sum": [(residual(node.coeffs - sum(c.coeffs for c in node.children)), path)
                     for node, path in inner],
        "descendant-leaf-sum": [
            (residual(node.coeffs - sum(leaf.coeffs for leaf, _ in node.leaves(path))), path)
            for node, path in inner],
        "product-structure": list(zip(product.tolist(), paths)),
        "single-party-change": [(edge(child, cpath), cpath) for child, cpath in nodes[1:]],
        "leaf-match": [(leaf_match(node), path) for node, path in tree.leaves()],
        "outcome-weights": list(zip(gaps.tolist(), m.labels())),
        "positivity": list(zip(neg.tolist(), paths)),
    }


def dense_verify_tree(tree, m, residual_tol: float = RESIDUAL_TOL) -> VerificationReport:
    """The verifier's report from :func:`dense_check_values`: each check's
    first worst residual, and its location only where the check fails."""
    def worst(pairs: Iterable[tuple[float, str]], tol: float) -> CheckResult:
        worst_r, worst_at = 0.0, ""
        for r, at in pairs:
            if not r <= worst_r:            # a NaN residual is the worst
                worst_r, worst_at = r, at
                if np.isnan(r):
                    break
        passed = worst_r <= tol
        return CheckResult(passed, worst_r, "" if passed else worst_at)

    values = dense_check_values(tree, m)
    checks = {name: worst(pairs, residual_tol) for name, pairs in values.items()}
    checks["positivity"] = worst(values["positivity"], PSD_TOL)
    return VerificationReport(checks)


def chain_edge_values(tree, m) -> list[tuple[float, str]]:
    """The first verifier's edge check, as (residual, location) per child in
    walk order: each child's ``project_factor`` against the tensor product of
    the other parties' factors, followed down the tree from identities at the
    root (every edge replaces the acting party's factor by its fit), in the
    max norm relative to max(1, |child|_max).  It reads no singular vector,
    so it checks the edge condition apart from the product structure that
    the verifier's check leans on."""
    _structural_pass(tree, m)
    ops = m.outcome_operators
    dims = m.dims
    edges = []

    def descend(node, path: str, factors: tuple[np.ndarray, ...]):
        for i, child in enumerate(node.children):
            cpath = f"{path}.{i}"
            slot = child.acting_party
            op = np.einsum("j,jab->ab", np.asarray(child.coeffs, float), ops)
            rest = [f for q, f in enumerate(factors) if q != slot]
            abar = tensor(rest) if rest else np.eye(1, dtype=complex)
            x, residual = project_factor(op, abar, slot, dims)
            edges.append((residual / max(1.0, float(np.abs(op).max())), cpath))
            descend(child, cpath, tuple(x if q == slot else f for q, f in enumerate(factors)))

    descend(tree, "root", tuple(np.eye(d, dtype=complex) for d in dims))
    return edges


def full_route_cone(ctx) -> FeasibleCone:
    """The context's cone the full way, with no factor classes: Q, the
    nullspace of the whole Q and ``extreme_rays``, the rays embedded in
    n-outcome space.  Raises where ``feasibility.feasible_cone``'s full
    route would, on a parent outside the cone or an empty nullspace."""
    n, support = ctx.measurement.n_outcomes, ctx.support
    q = build_q(ctx)
    c = np.asarray(ctx.coeffs, dtype=float)[support]
    if q.shape[0] and float(np.abs(q @ (c / np.abs(c).sum())).max()) > RESIDUAL_TOL:
        raise InconsistentNodeError("parent coefficients violate the node constraints")
    basis, marginal = nullspace(q, len(support))
    if not basis.shape[1]:
        raise InconsistentNodeError("empty nullspace contradicts completeness")
    found = cones.extreme_rays(q, basis)
    rays = np.zeros((len(found), n))
    rays[:, support] = found
    return FeasibleCone(basis.shape[1], rays, marginal)
