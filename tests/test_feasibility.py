import numpy as np
import pytest

from conftest import EYE2, P0, P1
from locc_forge import (
    Party,
    SeparableMeasurement,
    conditional_basis,
    phase_five,
    qubit_pair,
    rotated_dominoes,
    seven_outcome_family,
    synthesize,
)
from locc_forge.errors import DegenerateBasisError, InconsistentNodeError, NotProductError
from locc_forge.feasibility import (
    NodeContext,
    build_q,
    factorize,
    feasible_cone,
    nullspace,
    party_tables,
    reconstruct,
    root_context,
)
from locc_forge.measurement import complement_span, local_span
from locc_forge.operators import project_factor
from locc_forge.tolerances import DEFAULT_TOL
from oracles import (
    bystander_operator,
    dense_build_q,
    nullspace_projector,
    projector_of,
    whole_cone_rays,
)

SEVEN_WEIGHTS = np.array([2.0, 2.0, 3.0, 2.0, 6.0, 1.0, 1.0])


def my_nullspace_projector(q, n):
    basis, _ = nullspace(q, n)
    return basis @ basis.T


class TestBuildQ:
    def test_qubit_pair_second_party_root(self, m_pair):
        q = build_q(root_context(m_pair, 1))
        assert q.shape == (3, 4)
        # single nullspace direction along (1, 1, 1, 1)
        target = projector_of([np.ones(4)])
        assert np.abs(my_nullspace_projector(q, 4) - target).max() < 1e-10
        assert np.abs(nullspace_projector(q, 4) - target).max() < 1e-10

    def test_qubit_pair_first_party_root(self, m_pair):
        q = build_q(root_context(m_pair, 0))
        target = projector_of([[1, 1, 0, 0], [0, 0, 1, 1]])
        assert np.abs(my_nullspace_projector(q, 4) - target).max() < 1e-10

    def test_phase_five_root_shape_and_nullspace(self, m_phase):
        q = build_q(root_context(m_phase, 0))
        assert q.shape == (6, 5)
        target = projector_of([np.ones(5)])
        assert np.abs(my_nullspace_projector(q, 5) - target).max() < 1e-10

    def test_entries_real_matrix(self, m_phase):
        q = build_q(root_context(m_phase, 1))
        assert q.dtype == np.float64

    def test_inconsistent_bystander_rejected(self, catalog_all):
        # a node that is not a product across the party's cut has no
        # consistent bystander operator; the node is blamed, not the
        # measurement's completeness
        for ctx in _non_product_contexts(catalog_all):
            with pytest.raises(InconsistentNodeError,
                               match="parent coefficients violate the node constraints"):
                feasible_cone(ctx)

    def test_zero_bystander_rejected(self, catalog_all):
        for m in catalog_all.values():
            for party in range(len(m.parties)):
                ctx = NodeContext(m, party, np.zeros(m.n_outcomes))
                with pytest.raises(InconsistentNodeError, match="zero"):
                    build_q(ctx)

    def test_basis_independence_across_catalog(self, catalog_all):
        rng = np.random.default_rng(2024)
        for m in catalog_all.values():
            for party in range(len(m.parties)):
                ctx = root_context(m, party)
                reference = my_nullspace_projector(build_q(ctx), m.n_outcomes)
                for _ in range(10):
                    q = build_q(ctx, basis_rng=rng)
                    proj = my_nullspace_projector(q, m.n_outcomes)
                    assert np.abs(proj - reference).max() < 1e-8

    def test_basis_independence_below_root(self, m_seven):
        rng = np.random.default_rng(99)
        ctx = NodeContext(m_seven, 0, np.array([1., 0, 3, 0, 6, 0, 1]))  # I (x) B7
        # Q is built on the node's support, outcomes 1, 3, 5 and 7
        assert ctx.support.tolist() == [0, 2, 4, 6]
        reference = my_nullspace_projector(build_q(ctx), 4)
        target = projector_of([[1, 3, 6, 0], [0, 0, 0, 1]])
        assert np.abs(reference - target).max() < 1e-8
        for _ in range(10):
            proj = my_nullspace_projector(build_q(ctx, basis_rng=rng), 4)
            assert np.abs(proj - reference).max() < 1e-8


class TestPartyTables:
    def test_built_once_per_party(self, catalog_all):
        for m in catalog_all.values():
            for p in range(len(m.parties)):
                assert party_tables(m, p) is party_tables(m, p)

    def test_each_factor_stack_built_once_per_table_build(self, monkeypatch):
        built = []
        for side in ("local_factors", "complement_factors"):
            original = getattr(SeparableMeasurement, side)

            def counted(self, party, side=side, original=original):
                built.append((side, party))
                return original(self, party)

            monkeypatch.setattr(SeparableMeasurement, side, counted)
        for m in (conditional_basis(3, 4, 0), conditional_basis(5, 2, 0),
                  seven_outcome_family(0)):
            for p in range(len(m.parties)):
                built.clear()
                party_tables(m, p)
                assert sorted(built) == [("complement_factors", p), ("local_factors", p)]

    def test_tables_match_their_definitions(self, catalog_all):
        for m in catalog_all.values():
            for p in range(len(m.parties)):
                t = party_tables(m, p)
                local = m.local_factors(p)
                want = np.einsum("mij,nij->mn", local.conj(), local).real
                assert np.abs(t.acting.T @ t.acting - want).max() < 1e-10
                comp = m.complement_factors(p)
                want = np.einsum("mij,nij->mn", comp.conj(), comp).real
                assert np.abs(t.coords.T @ t.coords - want).max() < 1e-10
                assert len(t.coords) == len(complement_span(m, p))
                assert len(t.acting) == len(local_span(m, p))

    def test_ill_conditioned_span_refused(self):
        # both pairs of factors pass the rank cutoff of independent_subset,
        # but their Gram matrices have condition number about 1e15
        near = EYE2 + 1e-7 * np.diag([1.0, -1.0])
        m = SeparableMeasurement([Party("A", 2), Party("B", 2)],
                                 [("0", (EYE2, P0)), ("1", (near, P1))], [1.0, 1.0])
        for p in range(2):
            assert len(local_span(m, p)) == 2
            with pytest.raises(DegenerateBasisError, match="condition number"):
                party_tables(m, p)
            with pytest.raises(DegenerateBasisError):
                build_q(root_context(m, 1 - p))
        # a party whose factors are all zero has an empty span
        zero = SeparableMeasurement([Party("A", 2), Party("B", 2)],
                                    [("0", (0 * EYE2, P0)), ("1", (0 * EYE2, P1))],
                                    [1.0, 1.0])
        assert len(local_span(zero, 0)) == 0
        with pytest.raises(DegenerateBasisError):
            party_tables(zero, 0)


def _below_root(ctx) -> bool:
    """Whether the node's bystander operator is not a multiple of the identity."""
    abar = bystander_operator(ctx)
    eye = np.eye(len(abar))
    return len(abar) > 1 and not np.allclose(abar * len(abar) / np.trace(abar), eye)


def _non_product_contexts(catalog_all) -> list:
    """Contexts at random coefficient vectors whose dense node operator is
    clearly not X (x) Abar across the acting party's cut."""
    rng = np.random.default_rng(7)
    out = []
    for m in [*catalog_all.values(), conditional_basis(2, 3, 4), conditional_basis(3, 3, 17)]:
        for party in range(len(m.parties)):
            for _ in range(3):
                ctx = NodeContext(m, party, rng.uniform(0.0, 1.0, m.n_outcomes))
                op = reconstruct(m, ctx.coeffs)
                _, residual = project_factor(op, bystander_operator(ctx), party, m.dims)
                if residual > 1e-3 * np.abs(op).max():
                    out.append(ctx)
    assert len(out) >= 20
    return out


def _search_contexts(monkeypatch, measurements) -> list:
    """The context of every build_q call made by synthesizing each measurement."""
    import locc_forge.feasibility as feasibility

    original = feasibility.build_q
    contexts = []

    def recorded(ctx, tol=DEFAULT_TOL, basis_rng=None):
        contexts.append(ctx)
        return original(ctx, tol, basis_rng)

    monkeypatch.setattr(feasibility, "build_q", recorded)
    for m in measurements:
        synthesize(m)
    return contexts


class TestBystanderCoords:
    """y, read from the node's coefficients, against the dense partial trace."""

    def test_parallel_to_dense_abar_at_every_node(self, monkeypatch, catalog_all):
        from locc_forge.feasibility import _bystander_coords

        measurements = [*catalog_all.values(), conditional_basis(3, 4, 0),
                        conditional_basis(5, 2, 0), conditional_basis(3, 3, 17)]
        contexts = _search_contexts(monkeypatch, measurements)
        assert any(map(_below_root, contexts))
        for ctx in contexts:
            m, p = ctx.measurement, ctx.acting_party
            tables = party_tables(m, p)
            y = _bystander_coords(tables, ctx.coeffs)
            # the oracle's Abar in the same coordinates, from its pairings
            # Tr(Abar C_n) with the complement factors: coords^T y = pairings
            abar = bystander_operator(ctx)
            pairings = np.einsum("ij,nij->n", abar.conj(), m.complement_factors(p)).real
            want, *_ = np.linalg.lstsq(tables.coords.T, pairings, rcond=None)
            y, want = y / np.linalg.norm(y), want / np.linalg.norm(want)
            assert np.abs(y - np.sign(y @ want) * want).max() <= 1e-10


def _dense_off_span_gram(ctx) -> np.ndarray:
    """[Tr(N_m N_n)] for N_n = L_n (x) (C_n - <Abar, C_n> Abar / |Abar|^2),
    formed from dense operators."""
    m, p, abar = ctx.measurement, ctx.acting_party, bystander_operator(ctx)
    comp = m.complement_factors(p)
    along = np.einsum("ij,nij->n", abar.conj(), comp) / np.vdot(abar, abar)
    perp = comp - along[:, None, None] * abar
    ops = np.stack([np.kron(a, c) for a, c in zip(m.local_factors(p), perp)])
    flat = ops.reshape(len(ops), -1)
    return (flat.conj() @ flat.T).real


class TestIsometricQ:
    """Q c holds coordinates of the part of sum_n c_n O_n off span_A (x) Abar."""

    def test_gram_of_q_is_the_off_span_gram_at_every_node(self, monkeypatch):
        contexts = _search_contexts(monkeypatch, (qubit_pair(), seven_outcome_family(0),
                                                  conditional_basis(3, 3, 17)))
        assert any(map(_below_root, contexts))
        for ctx in contexts:
            q = build_q(ctx)
            # Q holds the support's columns; the tolerance keeps the scale
            # of the whole Gram, whose support block can be pure roundoff
            gram = _dense_off_span_gram(ctx)
            want = gram[np.ix_(ctx.support, ctx.support)]
            assert np.abs(q.T @ q - want).max() <= 1e-10 * np.abs(gram).max()


def _oracle_measurements():
    return [qubit_pair(), phase_five(), rotated_dominoes(),
            seven_outcome_family(0), conditional_basis(3, 3, 17),
            conditional_basis(2, 5, 17)]


class TestAgainstDenseOracle:
    """The coefficient-space build_q against the dense-operator reference."""

    def test_nullspaces_match_at_every_node(self, monkeypatch):
        import locc_forge.feasibility as feasibility

        original = feasibility.build_q
        contexts = []

        def compared(ctx, tol=DEFAULT_TOL, basis_rng=None):
            q = original(ctx, tol, basis_rng)
            n = len(ctx.support)
            want = my_nullspace_projector(dense_build_q(ctx, tol), n)
            assert np.abs(my_nullspace_projector(q, n) - want).max() < 1e-8
            contexts.append(ctx)
            return q

        monkeypatch.setattr(feasibility, "build_q", compared)
        measurements = _oracle_measurements()
        for m in measurements:
            synthesize(m)
        below_root = [c for c in contexts if _below_root(c)]
        assert len(contexts) > 4 * len(measurements) and below_root

    def test_same_off_span_bystander_rejected(self, catalog_all):
        # a non-product node lies off span_A (x) Abar for every Abar
        for ctx in _non_product_contexts(catalog_all):
            for analyze in (feasible_cone, dense_build_q):
                with pytest.raises(InconsistentNodeError):
                    analyze(ctx)
        m = seven_outcome_family(0)
        for ctx in (NodeContext(m, 0, np.array([1.0, 0, 3, 0, 6, 0, 1])),
                    NodeContext(m, 0, np.array([1.0, 0, 3, 0, 0, 0, 0]))):
            feasible_cone(ctx)
            dense_build_q(ctx)

    def test_trees_match_search_on_oracle(self, monkeypatch):
        import locc_forge.feasibility as feasibility

        def flatten(node):
            return [(n.acting_party, len(n.children),
                     None if n.leaf_outcome is None else n.leaf_outcome[0],
                     np.asarray(n.coeffs, float)) for n, _ in node.walk()]

        found = [synthesize(m) for m in _oracle_measurements()]
        monkeypatch.setattr(feasibility, "build_q", dense_build_q)
        for cert, m in zip(found, _oracle_measurements()):
            ref = synthesize(m)
            assert cert.verdict == ref.verdict
            assert cert.root_dims == ref.root_dims
            assert (cert.tree is None) == (ref.tree is None)
            if ref.tree is None:
                continue
            got, want = flatten(cert.tree), flatten(ref.tree)
            assert [g[:3] for g in got] == [w[:3] for w in want]
            for g, w in zip(got, want):
                assert np.abs(g[3] - w[3]).max() <= 1e-9 * max(1.0, np.abs(w[3]).max())


class TestFaceRestriction:
    """Below the root a cone is built on its node's support: the face of the
    whole cone where every other coefficient is 0."""

    def test_rays_are_the_whole_cone_rays_on_the_support(self, monkeypatch, catalog_all):
        measurements = [*catalog_all.values(), conditional_basis(3, 4, 0),
                        conditional_basis(5, 2, 0), conditional_basis(3, 3, 17)]
        contexts = list(_search_contexts(monkeypatch, measurements))
        restricted = 0
        for ctx in contexts:
            n = ctx.measurement.n_outcomes
            cone = feasible_cone(ctx)
            off = np.setdiff1d(np.arange(n), ctx.support)
            restricted += len(off) > 0
            want = [r for r in whole_cone_rays(ctx) if np.abs(r[off]).max(initial=0.0) <= 1e-10]
            got = np.array(cone.extreme_rays)
            assert got.shape == (len(want), n)
            gap = np.abs(got[:, None, :] - np.array(want)[None, :, :]).max(axis=2)
            assert np.all(gap.min(axis=1) <= 1e-10)
            assert len(set(gap.argmin(axis=1).tolist())) == len(want)
            # exact zeros off the support, and no roundoff residue on it
            assert not np.any(got[:, off])
            assert not np.any((got > 0) & (got < 1e-12 * got.max(axis=1, keepdims=True)))
        assert restricted > len(contexts) / 2

    def test_root_keeps_every_outcome(self, catalog_all):
        for m in catalog_all.values():
            for party in range(len(m.parties)):
                cone = feasible_cone(root_context(m, party))
                assert cone.support.tolist() == list(range(m.n_outcomes))
                assert cone.qmatrix is cone.face_q

    def test_face_matrix_describes_the_face(self, m_seven):
        ctx = NodeContext(m_seven, 0, np.array([1.0, 0, 3, 0, 6, 0, 1]))
        cone = feasible_cone(ctx)
        q = cone.qmatrix
        assert q.shape[1] == 7
        # the unit rows pin outcomes 2, 4 and 6 to zero
        assert np.abs(q @ cone.nullspace_basis).max() < 1e-12
        assert np.abs(my_nullspace_projector(q, 7)
                      - cone.nullspace_basis @ cone.nullspace_basis.T).max() < 1e-10


class TestFeasibleCone:
    def test_qubit_pair_first_party(self, m_pair):
        cone = feasible_cone(root_context(m_pair, 0))
        assert cone.nullspace_dim == 2
        rays = sorted(tuple(np.round(r, 9)) for r in cone.extreme_rays)
        assert rays == [(0, 0, 0.5, 0.5), (0.5, 0.5, 0, 0)]

    def test_qubit_pair_second_party(self, m_pair):
        cone = feasible_cone(root_context(m_pair, 1))
        assert cone.nullspace_dim == 1
        assert len(cone.extreme_rays) == 1

    def test_seven_outcome_second_party(self, m_seven):
        cone = feasible_cone(root_context(m_seven, 1))
        assert cone.nullspace_dim == 2
        # the completeness vector lies in the nullspace
        coords = cone.nullspace_basis.T @ (SEVEN_WEIGHTS / SEVEN_WEIGHTS.sum())
        back = cone.nullspace_basis @ coords
        assert np.abs(back - SEVEN_WEIGHTS / SEVEN_WEIGHTS.sum()).max() < 1e-10

    def test_weights_in_nullspace_for_all_parties(self, catalog_all):
        for m in catalog_all.values():
            w = m.weights / m.weights.sum()
            for party in range(len(m.parties)):
                cone = feasible_cone(root_context(m, party))
                if cone.qmatrix.shape[0]:
                    assert np.abs(cone.qmatrix @ w).max() < 1e-9

    def test_rays_satisfy_constraints(self, catalog_all):
        for m in catalog_all.values():
            for party in range(len(m.parties)):
                cone = feasible_cone(root_context(m, party))
                for ray in cone.extreme_rays:
                    assert ray.min() >= 0
                    assert abs(ray.sum() - 1.0) < 1e-12
                    if cone.qmatrix.shape[0]:
                        assert np.abs(cone.qmatrix @ ray).max() < 1e-9

    def test_product_guarantee(self, catalog_all):
        # all cone vectors reconstruct to (acting factor) x (bystander)
        rng = np.random.default_rng(42)
        for m in catalog_all.values():
            dims = m.dims
            for party in range(len(m.parties)):
                ctx = root_context(m, party)
                cone = feasible_cone(ctx)
                for _ in range(5):
                    mix = rng.uniform(0.1, 1.0, size=len(cone.extreme_rays))
                    vec = sum(t * r for t, r in zip(mix, cone.extreme_rays))
                    op = reconstruct(m, vec)
                    factorize(op, bystander_operator(ctx), party, dims)  # raises on failure

    def test_parent_outside_cone_rejected(self, m_pair):
        ctx = NodeContext(m_pair, 1, np.array([1.0, 0.5, 0.25, 0.1]))
        with pytest.raises(InconsistentNodeError):
            feasible_cone(ctx)


class TestReconstruct:
    def test_weights_give_identity(self, catalog_all):
        for m in catalog_all.values():
            op = reconstruct(m, m.weights)
            assert np.abs(op - np.eye(m.total_dim)).max() < 1e-10

    def test_unit_vector_gives_outcome(self, m_pair):
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1.0
            assert np.array_equal(reconstruct(m_pair, e),
                                  m_pair.outcome_operators[j])

    def test_seven_outcome_branch_operator(self, m_seven):
        # coefficients (1,0,3,0,6,0,1) collapse to I (x) B7
        b7 = m_seven.outcomes[6].factors[1]
        op = reconstruct(m_seven, np.array([1.0, 0, 3, 0, 6, 0, 1]))
        assert np.abs(op - np.kron(EYE2, b7)).max() < 1e-12


class TestFactorize:
    def test_identity(self, m_pair):
        out = factorize(np.eye(4, dtype=complex), EYE2, 0, (2, 2))
        assert np.abs(out - EYE2).max() < 1e-12

    def test_diagonal_first_factor(self, m_pair):
        c3 = 0.7
        op = reconstruct(m_pair, np.array([1.0, 1.0, c3, c3]))
        out = factorize(op, EYE2, 0, (2, 2))
        assert np.abs(out - (P0 + c3 * P1)).max() < 1e-12

    def test_seven_outcome_interior_node(self, m_seven):
        a = [o.factors[0] for o in m_seven.outcomes]
        b1 = m_seven.outcomes[0].factors[1]
        op = reconstruct(m_seven, np.array([1.0, 0, 3, 0, 0, 0, 0]))
        out = factorize(op, b1, 0, (2, 2))
        assert np.abs(out - 3 * a[4]).max() < 1e-10   # 3 A5 = A1 + A3

    def test_non_product_raises(self):
        ent = np.zeros((4, 4), dtype=complex)
        ent[0, 0] = ent[0, 3] = ent[3, 0] = ent[3, 3] = 0.5
        with pytest.raises(NotProductError):
            factorize(ent, EYE2, 0, (2, 2))
