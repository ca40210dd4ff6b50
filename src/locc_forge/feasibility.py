"""Per-node feasibility analysis: the constraint matrix, its nullspace, and
reconstruction/factorization of candidate node operators.

At a node of a protocol tree the joint operator is a product A (x) Abar,
where A acts on the party about to measure and Abar is the fixed joint
operator of the bystanders.  The party's admissible next outcomes are the
coefficient vectors c >= 0 for which sum_j c_j O_j again has the form
A' (x) Abar.  Writing the outcome operators in a product basis of the two
operator spans, that condition says every component along directions
"anything (x) (not Abar)" vanishes.  Those directions are extracted in
coordinates: the bystander factors and Abar are written in an orthonormal
basis of the complement span (isometric coordinates), an orthonormal basis
of Abar's orthogonal complement there comes from one Householder
reflection, and pairing every dual element of the measuring party's span
with every element of that basis gives the rows of a real matrix Q.  The
admissible c are then exactly the nonnegative nullspace vectors of Q, a
basis-independent set.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import prod

import numpy as np

from .errors import InconsistentNodeError, NotProductError
from .measurement import SeparableMeasurement, complement_span, local_span
from .operators import OperatorBasis, project_factor
from .operators import independent_subset  # noqa: F401  (wrapped by name by the benchmark tracer)
from .tolerances import DEFAULT_TOL, MARGINAL_RANK_BAND, Tolerances


class MarginalRankWarning(UserWarning):
    """A singular value fell within a decade of the rank cutoff; the computed
    nullspace dimension is tolerance-sensitive."""


@dataclass(frozen=True)
class NodeContext:
    """A (node, measuring party) pair ready for feasibility analysis.

    ``coeffs`` are the node's coefficients against the unweighted outcome
    operators; ``abar`` is the joint operator of every party except
    ``acting_party`` (the identity at the root), expressed on the complement
    space with parties kept in declaration order.
    """

    measurement: SeparableMeasurement
    acting_party: int
    coeffs: np.ndarray
    abar: np.ndarray


def root_context(m: SeparableMeasurement, party: int) -> NodeContext:
    comp_dim = prod(d for i, d in enumerate(m.dims) if i != party) or 1
    return NodeContext(m, party, np.asarray(m.weights, dtype=float),
                       np.eye(comp_dim, dtype=complex))


@dataclass(frozen=True)
class FeasibleCone:
    """Nullspace and extreme rays of the constraint matrix at one context."""

    qmatrix: np.ndarray
    nullspace_basis: np.ndarray           # (n_outcomes, dim), orthonormal columns
    extreme_rays: tuple[np.ndarray, ...]  # L1-normalized, entrywise >= 0
    marginal_rank: bool = field(default=False, compare=False)

    @property
    def nullspace_dim(self) -> int:
        return self.nullspace_basis.shape[1]


@dataclass(frozen=True)
class PartyTables:
    """What :func:`build_q` needs about one measuring party, in span coefficients.

    With e_i the party's local span, L_n its outcome factors, c_i the
    complement span and C_n the outcomes' complement factors:

    * ``acting`` is G_A^-1 [Tr(e_i^dag L_n)]: row a pairs the a-th dual
      element of the local span with every local factor;
    * ``complement`` is the complement span, with its Gram matrix G_C;
    * ``cholesky`` is the real L with G_C = L L^T, so the span element with
      coefficients x has coordinates L^T x in the orthonormal basis L^-1 c;
    * ``coords`` is L^T G_C^-1 [Tr(c_i^dag C_n)]: column n holds C_n's
      coordinates in that basis, so coords^T coords = [Tr(C_m^dag C_n)].
    """

    acting: np.ndarray
    complement: OperatorBasis
    cholesky: np.ndarray
    coords: np.ndarray


def party_tables(m: SeparableMeasurement, party: int) -> PartyTables:
    """The party's tables, built once and cached on the measurement."""
    cached = m._pairing_cache.get(party)
    if cached is None:
        acting = local_span(m, party)
        span = complement_span(m, party)
        coeffs = span.solve_gram(span.pairings(m.complement_factors(party)))
        cholesky = np.linalg.cholesky(span.gram)    # after solve_gram's condition check
        cached = PartyTables(
            acting=acting.solve_gram(acting.pairings(m.local_factors(party))),
            complement=span,
            cholesky=cholesky,
            coords=cholesky.T @ coeffs)
        m._pairing_cache[party] = cached
    return cached


def _mixing_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random invertible n x n matrix: an orthogonal one with rescaled columns."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q * rng.uniform(0.5, 2.0, size=n)


def build_q(ctx: NodeContext, tol: Tolerances = DEFAULT_TOL,
            basis_rng: np.random.Generator | None = None) -> np.ndarray:
    """Constraint matrix whose nullspace parametrizes the party's next outcomes.

    Rows pair each dual element of the measuring party's span with each
    element of an orthonormal basis of the bystander span's directions
    trace-orthogonal to ``ctx.abar``; columns run over measurement outcomes.
    Identically zero rows are dropped.  No operator is formed: in the
    orthonormal coordinates of the party's cached :class:`PartyTables`,
    Abar is a vector y, and rows 1.. of the Householder reflector that maps
    y onto the first axis are such a basis.  When ``basis_rng`` is given,
    the acting duals and the bystander rows are randomly recombined; the
    resulting matrix differs row by row but its nullspace does not.
    """
    m = ctx.measurement
    tables = party_tables(m, ctx.acting_party)
    span = tables.complement
    v = np.ravel(ctx.abar)
    x = span.solve_gram((span.vectors @ v.conj()).real)     # Abar's span coefficients
    residual = float(np.abs(v - x @ span.vectors).max())
    if residual > 10 * tol.residual * max(1.0, float(np.abs(v).max())):
        raise InconsistentNodeError(
            f"bystander operator lies outside its span (residual {residual:.3e})")
    y = tables.cholesky.T @ x
    norm = float(np.linalg.norm(y))
    if norm == 0.0:
        raise InconsistentNodeError("bystander operator is zero")
    if len(y) == 1:
        return np.zeros((0, m.n_outcomes))
    u = y.copy()
    u[0] += norm if y[0] >= 0 else -norm                    # same sign: no cancellation
    u /= np.linalg.norm(u)
    t_bys = (tables.coords - 2.0 * np.outer(u, u @ tables.coords))[1:]
    t_act = tables.acting
    if basis_rng is not None:
        # the duals of the recombined basis M e are M^-T times the old duals
        t_act = np.linalg.solve(_mixing_matrix(len(t_act), basis_rng).T, t_act)
        t_bys = _mixing_matrix(len(t_bys), basis_rng) @ t_bys
    q = (t_act[:, None, :] * t_bys[None, :, :]).reshape(-1, m.n_outcomes)
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
    """Nullspace plus extreme rays of {c >= 0 : Q c = 0} for a context.

    The parent coefficient vector must itself lie in the cone; a node that
    fails this is inconsistent with the measurement.
    """
    from .cones import extreme_rays  # deferred: cones must stay import-light

    q = build_q(ctx, tol)
    basis, marginal = nullspace(q, ctx.measurement.n_outcomes, tol)
    if basis.shape[1] == 0:
        raise InconsistentNodeError("empty nullspace contradicts completeness")
    if marginal:
        warnings.warn("nullspace dimension decided near the rank cutoff",
                      MarginalRankWarning, stacklevel=2)

    c = np.asarray(ctx.coeffs, dtype=float)
    l1 = float(np.abs(c).sum())
    if l1 > 0 and q.shape[0] > 0:
        parent_residual = float(np.abs(q @ (c / l1)).max())
        if parent_residual > tol.residual:
            raise InconsistentNodeError(
                f"parent coefficients violate the node constraints "
                f"(residual {parent_residual:.3e})")
    rays = extreme_rays(q, nullspace_basis=basis, tol=tol)
    return FeasibleCone(q, basis, tuple(rays), marginal)


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
