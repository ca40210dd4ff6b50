import numpy as np
import pytest

from locc_forge import (
    check_root,
    conditional_basis,
    rotated_dominoes,
    seven_outcome_family,
)
from locc_forge import catalog
from locc_forge.errors import IncompleteMeasurementError
from locc_forge.measurement import local_span
from oracles import per_factor_validation

SEVEN_WEIGHTS = np.array([2.0, 2.0, 3.0, 2.0, 6.0, 1.0, 1.0])


class TestConditionalBasis:
    @pytest.mark.parametrize("n_parties, dim", [(2, 3), (3, 2), (2, 5)])
    def test_shape_and_root_dims(self, n_parties, dim):
        m = conditional_basis(n_parties, dim, seed=5)
        assert m.dims == (dim,) * n_parties
        assert m.n_outcomes == dim ** n_parties
        assert np.abs(m.outcome_operators.sum(axis=0)
                      - np.eye(dim ** n_parties)).max() < 1e-12
        dims = [r.nullspace_dim for r in check_root(m)]
        assert dims == [dim] + [1] * (n_parties - 1)

    def test_an_incomplete_member_is_refused_at_construction(self, monkeypatch):
        # the generator's projectors on bases that are not unitary miss the
        # identity: the constructor refuses them as it refuses a file
        monkeypatch.setattr(catalog, "_haar_unitary", lambda dim, rng: 1.01 * np.eye(dim))
        with pytest.raises(IncompleteMeasurementError, match="incomplete") as err:
            conditional_basis(2, 2, 0)
        assert err.value.location == "outcomes"

    def test_reproducible_per_seed(self):
        a, b = conditional_basis(2, 3, 11), conditional_basis(2, 3, 11)
        c = conditional_basis(2, 3, 12)
        assert np.array_equal(a.outcome_operators, b.outcome_operators)
        assert not np.allclose(a.outcome_operators, c.outcome_operators)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            conditional_basis(1, 3)
        with pytest.raises(ValueError):
            conditional_basis(2, 1)


class TestQubitPair:
    def test_outcomes_sum_to_identity(self, m_pair):
        total = m_pair.outcome_operators.sum(axis=0)
        assert np.abs(total - np.eye(4)).max() < 1e-12

    def test_root_dims(self, m_pair):
        roots = check_root(m_pair)
        assert roots[0].nullspace_dim == 2
        assert roots[1].nullspace_dim == 1


class TestPhaseFive:
    def test_weighted_sum_is_identity(self, m_phase):
        total = np.einsum("j,jab->ab", m_phase.weights,
                          m_phase.outcome_operators)
        assert np.abs(total - np.eye(4)).max() < 1e-12

    def test_factors_are_rank_one_projectors(self, m_phase):
        for outcome in m_phase.outcomes:
            for f in outcome.factors:
                eigs = np.linalg.eigvalsh(f)
                assert np.abs(np.sort(eigs) - np.array([0.0, 1.0])).max() < 1e-12

    def test_both_root_dims_one(self, m_phase):
        assert [r.nullspace_dim for r in check_root(m_phase)] == [1, 1]


class TestBennettThreeQubit:
    def test_eight_orthogonal_product_projectors(self):
        m = catalog.bennett_three_qubit()
        assert m.dims == (2, 2, 2) and m.n_outcomes == 8
        assert np.array_equal(m.weights, np.ones(8))
        ops = m.outcome_operators
        assert np.abs(ops.sum(axis=0) - np.eye(8)).max() < 1e-12
        overlaps = np.einsum("iab,jba->ij", ops, ops).real
        assert np.abs(overlaps - np.eye(8)).max() < 1e-12

    def test_no_party_can_measure_first(self):
        m = catalog.bennett_three_qubit()
        assert [r.nullspace_dim for r in check_root(m)] == [1, 1, 1]
        assert catalog.CATALOG["bennett-three-qubit"] == (catalog.bennett_three_qubit, None, "")


class TestRotatedDominoes:
    def test_original_angles_blocked(self, m_dominoes):
        assert [r.nullspace_dim for r in check_root(m_dominoes)] == [1, 1]

    def test_sum_identity_for_random_angles(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            thetas = rng.uniform(1e-3, np.pi / 4, size=4)
            m = rotated_dominoes(*thetas)
            total = m.outcome_operators.sum(axis=0)
            assert np.abs(total - np.eye(9)).max() < 1e-12

    def test_angle_range_enforced(self):
        with pytest.raises(ValueError):
            rotated_dominoes(0.0, 0.3, 0.3, 0.3)
        with pytest.raises(ValueError):
            rotated_dominoes(0.3, 0.3, 0.3, np.pi / 2)

    def test_off_diagonal_block_tracks_coefficient_difference(self):
        # the block coupling the first party's |0>,|1> rows carries the
        # factor (c8 - c9) sin(2 theta8) [2]_B and vanishes only at c8 = c9
        theta8 = 0.4
        m = rotated_dominoes(0.3, 0.35, 0.2, theta8)
        base = np.zeros(9)
        base[7] = 1.7
        base[8] = 0.6
        op = np.einsum("j,jab->ab", base, m.outcome_operators)
        block = op[0:3, 3:6]
        expected = 0.5 * (1.7 - 0.6) * np.sin(2 * theta8) * np.diag([0.0, 0, 1.0])
        assert np.abs(block - expected).max() < 1e-12
        balanced = base.copy()
        balanced[8] = 1.7
        op2 = np.einsum("j,jab->ab", balanced, m.outcome_operators)
        assert np.abs(op2[0:3, 3:6]).max() < 1e-12


class TestSevenOutcomeFamily:
    @pytest.mark.parametrize("seed", range(5))
    def test_class_facts_across_seeds(self, seed):
        m = seven_outcome_family(seed)
        assert per_factor_validation(m)[0] == []
        assert np.array_equal(m.weights, SEVEN_WEIGHTS)
        roots = check_root(m)
        assert roots[0].nullspace_dim == 1
        assert roots[1].nullspace_dim == 2
        # second party's cone contains the completeness vector
        found = False
        w = SEVEN_WEIGHTS / SEVEN_WEIGHTS.sum()
        rays = np.column_stack(roots[1].extreme_rays)
        coeffs, *_ = np.linalg.lstsq(rays, w, rcond=None)
        found = np.abs(rays @ coeffs - w).max() < 1e-8 and np.all(coeffs > 0)
        assert found

    def test_reproducible_per_seed(self):
        a = seven_outcome_family(5)
        b = seven_outcome_family(5)
        for oa, ob in zip(a.outcomes, b.outcomes):
            for fa, fb in zip(oa.factors, ob.factors):
                assert np.array_equal(fa, fb)

    def test_defining_relations_hold(self):
        m = seven_outcome_family(9)
        a = [o.factors[0] for o in m.outcomes]
        b = [o.factors[1] for o in m.outcomes]
        eye = np.eye(2)
        assert np.abs(b[0] - 2 * b[1]).max() < 1e-12
        assert np.abs(b[0] - 3 * b[2]).max() < 1e-12
        assert np.abs(2 * b[4] - (eye - 2 * b[0] - b[3])).max() < 1e-12
        assert np.abs(b[5] - (b[0] + b[3])).max() < 1e-12
        assert np.abs(b[6] - (eye - b[0] - b[3])).max() < 1e-12
        assert np.abs(2 * a[3] - (a[0] + a[1])).max() < 1e-12
        assert np.abs(3 * a[4] - (a[0] + a[2])).max() < 1e-12
        assert np.abs(a[5] - (eye - a[0] - a[1])).max() < 1e-12
        assert np.abs(a[6] - (eye - a[0] - a[2])).max() < 1e-12

    def test_local_spans_full(self):
        m = seven_outcome_family(4)
        assert len(local_span(m, 0)) == 4
        assert len(local_span(m, 1)) == 3


class TestCatalogValidity:
    def test_every_entry_validates(self, catalog_all):
        for m in catalog_all.values():
            assert per_factor_validation(m)[0] == []

    def test_twenty_random_domino_angle_sets(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            thetas = rng.uniform(1e-2, np.pi / 4, size=4)
            m = rotated_dominoes(*thetas)
            assert per_factor_validation(m)[0] == []
            assert [r.nullspace_dim for r in check_root(m)] == [1, 1]

    def test_twenty_seeds_reproduce_root_dims(self):
        for seed in range(20):
            m = seven_outcome_family(seed)
            assert [r.nullspace_dim for r in check_root(m)] == [1, 2]
