"""Per-node feasibility analysis: the constraint matrix, its nullspace, and
reconstruction/factorization of candidate node operators.

At a node of a protocol tree the joint operator is a product A (x) Abar,
where A acts on the party about to measure and Abar is the fixed joint
operator of the bystanders.  The party's admissible next outcomes are the
coefficient vectors c >= 0 for which sum_j c_j O_j again has the form
A' (x) Abar.  Writing the outcome operators in a product basis of the two
operator spans, that condition says every component along directions
"anything (x) (not Abar)" vanishes.  Those directions are extracted in
coordinates: the party's factors and the bystander factors are written in
orthonormal bases of their spans (isometric coordinates), Abar's coordinates
are read off the node's own coefficients, an orthonormal basis of Abar's
orthogonal complement in the complement span comes from one Householder
reflection, and the products of the two sides' coordinates give the rows of
a real matrix Q.  The admissible c are then exactly the nonnegative
nullspace vectors of Q, a basis-independent set, and |Q c| is the Frobenius
norm of the part of sum_j c_j O_j off span_A (x) Abar.

Below the root only the node's support S = {j : c_j != 0} is searched.
Every child is a multiple of a ray from an exact nonnegative split of its
parent, so a whole subtree lives on the face of the cone where c_j = 0 off
S, and that face's extreme rays are exactly the cone's rays lying in it.
So Q is built on the columns of S, the nullspace and the double
description run on |S| columns, and the rays are embedded back into
n-outcome space.  The root keeps every outcome, so root dimensions are
those of the whole cone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBasisError, InconsistentNodeError, NotProductError
from .measurement import SeparableMeasurement
from .measurement import complement_span, local_span  # noqa: F401  (wrapped by name by the benchmark tracer)
from .operators import independent_subset, project_factor
from .tolerances import DEFAULT_TOL, GRAM_CONDITION_LIMIT, MARGINAL_RANK_BAND, Tolerances


class MarginalRankWarning(UserWarning):
    """A singular value fell within a decade of the rank cutoff; the computed
    nullspace dimension is tolerance-sensitive."""


@dataclass(frozen=True)
class NodeContext:
    """A (node, measuring party) pair ready for feasibility analysis.

    ``coeffs`` are the node's coefficients against the unweighted outcome
    operators.  They fix the node operator, and with it the joint operator
    Abar of every party except ``acting_party`` (the identity at the root).

    ``support`` holds the outcomes the node's cone is built on: those with
    c_j != 0, and those of zero weight.  Every child is a multiple of a ray
    from an exact nonnegative split of its parent, so every descendant of a
    node lies in its support, and the search loses nothing by working on
    that face of the cone.  Keeping the zero-weight outcomes makes the root
    (c = weights) keep every outcome, so root dimensions are those of the
    whole cone.
    """

    measurement: SeparableMeasurement
    acting_party: int
    coeffs: np.ndarray
    support: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        support = np.flatnonzero(self.coeffs)
        if len(support) < len(self.coeffs):
            support = np.flatnonzero((np.asarray(self.coeffs) != 0)
                                     | (self.measurement.weights == 0))
        object.__setattr__(self, "support", support)


def root_context(m: SeparableMeasurement, party: int) -> NodeContext:
    return NodeContext(m, party, np.asarray(m.weights, dtype=float))


@dataclass(frozen=True)
class FeasibleCone:
    """The face {c >= 0 : Q c = 0, c_j = 0 off ``support``} of the cone at
    one context, in n-outcome coordinates.

    Q is built on the support's columns only (``face_q``); ``qmatrix`` is
    the face's whole constraint matrix, so that ``qmatrix``,
    ``nullspace_basis`` and ``extreme_rays`` describe the same set.
    """

    support: np.ndarray                   # outcome indices, increasing
    face_q: np.ndarray                    # Q on the support's columns
    nullspace_basis: np.ndarray           # (n_outcomes, dim), orthonormal columns
    extreme_rays: tuple[np.ndarray, ...]  # L1-normalized, entrywise >= 0
    marginal_rank: bool = field(default=False, compare=False)

    @property
    def nullspace_dim(self) -> int:
        return self.nullspace_basis.shape[1]

    @property
    def qmatrix(self) -> np.ndarray:
        """Q on the support, plus a unit row e_j for each outcome j off it."""
        n = len(self.nullspace_basis)
        if len(self.support) == n:
            return self.face_q
        off = np.setdiff1d(np.arange(n), self.support)
        rows = len(self.face_q)
        q = np.zeros((rows + len(off), n))
        q[:rows, self.support] = self.face_q
        q[rows + np.arange(len(off)), off] = 1.0
        return q


@dataclass(frozen=True)
class PartyTables:
    """What :func:`build_q` needs about one measuring party, in orthonormal
    coordinates of its two spans.

    With L_n the party's outcome factors and C_n the outcomes' complement
    factors:

    * ``acting`` holds, in column n, the coordinates of L_n in an
      orthonormal basis of the local span, so acting^T acting = [Tr(L_m L_n)];
    * ``coords`` holds, in column n, the coordinates of C_n in an
      orthonormal basis of the complement span, so
      coords^T coords = [Tr(C_m C_n)].
    """

    acting: np.ndarray
    coords: np.ndarray


def _orthonormal_frame(ops: np.ndarray) -> np.ndarray:
    """The real coordinates of every operator of a (n, d, d) stack, one column
    per operator, in the orthonormal basis L^-1 e of the stack's span e, with
    e chosen by :func:`independent_subset` (greedy in stack order, as
    :func:`local_span` and :func:`complement_span` choose it) and L the
    Cholesky factor of its Gram matrix.

    Refuses a span whose Gram matrix is worse conditioned than
    ``GRAM_CONDITION_LIMIT``, and pairings with a non-negligible imaginary
    part (the operators are nominally Hermitian).
    """
    span = ops[independent_subset(list(ops))]
    flat = span.reshape(-1, span.shape[-1] ** 2)
    gram = (flat.conj() @ flat.T).real
    sigma = np.linalg.svd(gram, compute_uv=False)
    if len(sigma) == 0 or not sigma[0] <= GRAM_CONDITION_LIMIT * sigma[-1]:
        raise DegenerateBasisError(
            f"Gram matrix condition number exceeds {GRAM_CONDITION_LIMIT:.0e}")
    basis = np.linalg.solve(np.linalg.cholesky(gram), flat)
    t = basis.conj() @ ops.reshape(len(ops), -1).T
    if float(np.abs(t.imag).max()) > 1e-10 * max(1.0, float(np.abs(t).max())):
        raise ValueError("trace pairings have non-negligible imaginary parts")
    return np.ascontiguousarray(t.real)


def party_tables(m: SeparableMeasurement, party: int) -> PartyTables:
    """The party's tables, built once and cached on the measurement; each
    side's operator stack is built once."""
    cached = m._pairing_cache.get(party)
    if cached is None:
        cached = m._pairing_cache[party] = PartyTables(
            _orthonormal_frame(m.local_factors(party)),
            _orthonormal_frame(m.complement_factors(party)))
    return cached


def _mixing_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random invertible n x n matrix: an orthogonal one with rescaled columns."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q * rng.uniform(0.5, 2.0, size=n)


def _bystander_coords(tables: PartyTables, coeffs) -> np.ndarray:
    """Abar's coordinates y, up to scale: a product node X (x) Abar has the
    realignment core acting diag(c) coords^T = x y^T, whose largest-norm row
    is taken."""
    core = (tables.acting * np.asarray(coeffs, dtype=float)) @ tables.coords.T
    return core[np.argmax(np.einsum("ij,ij->i", core, core))]


def build_q(ctx: NodeContext, tol: Tolerances = DEFAULT_TOL,
            basis_rng: np.random.Generator | None = None) -> np.ndarray:
    """Constraint matrix whose nullspace parametrizes the party's next outcomes.

    Column n of the matrix holds the coordinates of L_n (x) (C_n - P C_n),
    where P projects onto the node's bystander operator Abar, in the
    orthonormal product basis of the party's local span and of the bystander
    span's directions trace-orthogonal to Abar.  So Q c holds the
    coordinates of the part of sum_n c_n O_n off span_A (x) Abar, and Q^T Q
    is the Gram matrix of those parts.  Identically zero rows are dropped.
    Only the columns of the context's support are built (every outcome at
    the root), with the party tables sliced to them before the product.
    No operator is formed: in the party's cached :class:`PartyTables`, Abar
    has coordinates y (see :func:`_bystander_coords`), and rows 1.. of the
    Householder reflector that maps y onto the first axis are such a basis.
    When ``basis_rng`` is given, both sides' rows are randomly recombined;
    the resulting matrix differs row by row but its nullspace does not.
    """
    tables = party_tables(ctx.measurement, ctx.acting_party)
    support = ctx.support
    coeffs = ctx.coeffs
    if len(support) < len(coeffs):
        tables = PartyTables(tables.acting[:, support], tables.coords[:, support])
        coeffs = np.asarray(coeffs, dtype=float)[support]
    y = _bystander_coords(tables, coeffs)
    norm = float(np.linalg.norm(y))
    if norm == 0.0:
        raise InconsistentNodeError("node operator is zero")
    if len(y) == 1:
        return np.zeros((0, len(support)))
    u = y.copy()
    u[0] += norm if y[0] >= 0 else -norm                    # same sign: no cancellation
    u /= np.linalg.norm(u)
    t_bys = (tables.coords - 2.0 * np.outer(u, u @ tables.coords))[1:]
    t_act = tables.acting
    if basis_rng is not None:
        t_act = _mixing_matrix(len(t_act), basis_rng) @ t_act
        t_bys = _mixing_matrix(len(t_bys), basis_rng) @ t_bys
    q = (t_act[:, None, :] * t_bys[None, :, :]).reshape(-1, len(support))
    scale = max(1.0, float(np.abs(q).max()))
    keep = np.abs(q).max(axis=1) > 1e-13 * scale
    return q[keep]


def nullspace(q: np.ndarray, n_cols: int,
              tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, bool]:
    """Orthonormal nullspace basis of ``q`` and a marginal-rank flag."""
    if q.shape[0] == 0:
        return np.eye(n_cols), False
    # V is needed whole; U is only computed, small, when rows < cols
    _, sigma, vh = np.linalg.svd(q, full_matrices=q.shape[0] < q.shape[1])
    cutoff = tol.rank_threshold(q.shape, float(sigma[0]))
    marginal = bool(np.any((sigma > cutoff / MARGINAL_RANK_BAND)
                           & (sigma < cutoff * MARGINAL_RANK_BAND)))
    rank = int(np.sum(sigma > cutoff))
    basis = vh[rank:].conj().T
    return np.ascontiguousarray(basis.real), marginal


def feasible_cone(ctx: NodeContext, tol: Tolerances = DEFAULT_TOL) -> FeasibleCone:
    """Nullspace plus extreme rays of {c >= 0 : Q c = 0} on the context's
    support (see :attr:`NodeContext.support`), embedded in n-outcome space.

    The parent coefficient vector must itself lie in the cone; a node that
    fails this, such as one that is not a product across the party's cut, is
    inconsistent with the measurement.  That is tested first, so an empty
    nullspace is blamed on the measurement only at a consistent node.
    """
    from .cones import extreme_rays  # looked up per call: the benchmark tracer wraps it

    n = ctx.measurement.n_outcomes
    support = ctx.support
    q = build_q(ctx, tol)
    c = np.asarray(ctx.coeffs, dtype=float)
    if len(support) < n:
        c = c[support]
    l1 = float(np.abs(c).sum())
    if l1 > 0 and q.shape[0] > 0:
        parent_residual = float(np.abs(q @ (c / l1)).max())
        if parent_residual > tol.residual:
            raise InconsistentNodeError(
                f"parent coefficients violate the node constraints "
                f"(residual {parent_residual:.3e})")
    basis, marginal = nullspace(q, len(support), tol)
    if basis.shape[1] == 0:
        raise InconsistentNodeError("empty nullspace contradicts completeness")
    if marginal:
        warnings.warn("nullspace dimension decided near the rank cutoff",
                      MarginalRankWarning, stacklevel=2)
    rays = extreme_rays(q, nullspace_basis=basis, tol=tol)
    if len(support) < n:
        basis, rays = _embed(basis.T, support, n).T, _embed(np.array(rays), support, n)
    return FeasibleCone(support, q, basis, tuple(rays), marginal)


def _embed(rows: np.ndarray, support: np.ndarray, n: int) -> np.ndarray:
    """Each row of ``rows``, whose entries belong to the outcomes in
    ``support``, as an n-outcome vector that is zero off the support."""
    out = np.zeros((len(rows), n))
    out[:, support] = rows
    return out


def reconstruct(m: SeparableMeasurement, coeffs) -> np.ndarray:
    """The joint operator sum_j c_j O_j."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (m.n_outcomes,):
        raise ValueError(f"expected {m.n_outcomes} coefficients, got shape {c.shape}")
    ops = m.outcome_operators
    return (c @ ops.reshape(m.n_outcomes, -1)).reshape(ops.shape[1:])


def factorize(op: np.ndarray, abar: np.ndarray, slot: int, dims: tuple[int, ...],
              tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Extract the measuring party's factor from a product node operator.

    Cone membership guarantees the product form, so a residual above
    tolerance signals an analyzer bug and raises :class:`NotProductError`.
    """
    x, residual = project_factor(op, abar, slot, dims)
    if residual > tol.residual * max(1.0, float(np.abs(op).max())):
        raise NotProductError(
            f"operator is not a product with the given bystander factor "
            f"(residual {residual:.3e})")
    return x
