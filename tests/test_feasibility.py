import numpy as np
import pytest

from conftest import EYE2, P0, P1
from locc_forge import (
    conditional_basis,
    phase_five,
    qubit_pair,
    rotated_dominoes,
    seven_outcome_family,
    synthesize,
)
from locc_forge.errors import InconsistentNodeError, NotProductError
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
from locc_forge.tolerances import DEFAULT_TOL
from oracles import dense_build_q, nullspace_projector, projector_of

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

    def test_inconsistent_bystander_rejected(self, m_pair):
        # sigma_x never appears among party A's factors
        bad = np.array([[0, 1], [1, 0]], dtype=complex)
        ctx = NodeContext(m_pair, 1, m_pair.weights, bad)
        with pytest.raises(InconsistentNodeError):
            build_q(ctx)

    def test_zero_bystander_rejected(self, catalog_all):
        for m in catalog_all.values():
            for party in range(len(m.parties)):
                abar = np.zeros_like(root_context(m, party).abar)
                with pytest.raises(InconsistentNodeError, match="zero"):
                    build_q(NodeContext(m, party, m.weights, abar))

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
        b7 = m_seven.outcomes[6].factors[1]
        ctx = NodeContext(m_seven, 0, np.array([1., 0, 3, 0, 6, 0, 1]), b7)
        reference = my_nullspace_projector(build_q(ctx), 7)
        target = projector_of([[1, 0, 3, 0, 6, 0, 0], [0, 0, 0, 0, 0, 0, 1]])
        assert np.abs(reference - target).max() < 1e-8
        for _ in range(10):
            proj = my_nullspace_projector(build_q(ctx, basis_rng=rng), 7)
            assert np.abs(proj - reference).max() < 1e-8


class TestPartyTables:
    def test_built_once_per_party(self, catalog_all):
        for m in catalog_all.values():
            for p in range(len(m.parties)):
                assert party_tables(m, p) is party_tables(m, p)

    def test_tables_match_their_definitions(self, catalog_all):
        for m in catalog_all.values():
            for p in range(len(m.parties)):
                t = party_tables(m, p)
                acting = np.stack(local_span(m, p).elements)
                span = np.stack(complement_span(m, p).elements)
                flat = acting.reshape(len(acting), -1)
                duals = np.einsum("kj,jab->kab",
                                  np.linalg.inv((flat.conj() @ flat.T).real), acting)
                want = np.einsum("aij,nij->an", duals.conj(), m.local_factors(p))
                assert np.abs(t.acting - want).max() < 1e-10
                gram = np.einsum("aij,bij->ab", span.conj(), span).real
                assert np.abs(t.cholesky @ t.cholesky.T - gram).max() < 1e-10
                comp = m.complement_factors(p)
                want = np.einsum("mij,nij->mn", comp.conj(), comp).real
                assert np.abs(t.coords.T @ t.coords - want).max() < 1e-10


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
            n = ctx.measurement.n_outcomes
            want = my_nullspace_projector(dense_build_q(ctx, tol), n)
            assert np.abs(my_nullspace_projector(q, n) - want).max() < 1e-8
            contexts.append(ctx)
            return q

        monkeypatch.setattr(feasibility, "build_q", compared)
        measurements = _oracle_measurements()
        for m in measurements:
            synthesize(m)
        below_root = [c for c in contexts if c.abar.shape[0] > 1
                      and not np.allclose(c.abar, np.eye(c.abar.shape[0]))]
        assert len(contexts) > 4 * len(measurements) and below_root

    def test_same_off_span_bystander_rejected(self, m_pair):
        bad = np.array([[0, 1], [1, 0]], dtype=complex)
        ctx = NodeContext(m_pair, 1, m_pair.weights, bad)
        for build in (build_q, dense_build_q):
            with pytest.raises(InconsistentNodeError):
                build(ctx)

        # the 2x3 complement span has 7 of the 9 Hermitian dimensions
        m = conditional_basis(2, 3, 4)
        rng = np.random.default_rng(5)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        off_span = NodeContext(m, 0, m.weights, g + g.conj().T)
        in_span = NodeContext(m, 0, m.weights, m.outcomes[4].factors[1])
        for build in (build_q, dense_build_q):
            with pytest.raises(InconsistentNodeError):
                build(off_span)
            build(in_span)

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
                    factorize(op, ctx.abar, party, dims)  # raises on failure

    def test_parent_outside_cone_rejected(self, m_pair):
        ctx = NodeContext(m_pair, 1, np.array([1.0, 0.5, 0.25, 0.1]),
                          np.eye(2, dtype=complex))
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
