import numpy as np
import pytest

from conftest import EYE2, P0, P1, PMINUS, PPLUS
from locc_forge import (
    Verdict,
    check_root,
    conditional_basis,
    rotated_dominoes,
    seven_outcome_family,
    synthesize,
    verify_tree,
)
from locc_forge.engine import leaf_outcome
from locc_forge.io import tree_to_dict
from locc_forge.measurement import Party, SeparableMeasurement
from locc_forge.tolerances import DEFAULT_TOL, LEAF_SUPPORT_TOL
from oracles import dense_leaf_outcome


class TestCheckRoot:
    def test_phase_five_blocked(self, m_phase):
        roots = check_root(m_phase)
        assert [r.nullspace_dim for r in roots] == [1, 1]

    def test_dominoes_blocked(self, m_dominoes):
        roots = check_root(m_dominoes)
        assert [r.nullspace_dim for r in roots] == [1, 1]

    def test_qubit_pair_first_party_open(self, m_pair):
        roots = check_root(m_pair)
        assert [r.nullspace_dim for r in roots] == [2, 1]
        assert roots[0].party == "A" and roots[1].party == "B"

    @pytest.mark.parametrize("factors, dims", [((P0, EYE2), (3, 2)), ((EYE2, PPLUS), (2, 2))])
    def test_zero_weight_outcome_counts_at_the_root(self, m_pair, factors, dims):
        # the root cone is built on every outcome, weighted or not, so an
        # unused outcome still widens it; a root built on the weights'
        # support would report (2, 1)
        outcomes = [(o.label, o.factors) for o in m_pair.outcomes] + [("z", factors)]
        m = SeparableMeasurement(m_pair.parties, outcomes, [*m_pair.weights, 0.0])
        assert tuple(r.nullspace_dim for r in check_root(m)) == dims
        cert = synthesize(m)
        assert cert.verdict == Verdict.PROTOCOL_FOUND
        assert cert.root_dims == dims


class TestSynthesizeQubitPair:
    def test_two_round_tree(self, m_pair):
        cert = synthesize(m_pair)
        assert cert.verdict == Verdict.PROTOCOL_FOUND
        assert cert.tree.depth() == 2
        assert cert.root_dims == (2, 1)

    def test_leaves_are_the_four_outcomes_with_unit_scales(self, m_pair):
        cert = synthesize(m_pair)
        seen = {}
        for node, _ in cert.tree.leaves():
            j, s = node.leaf_outcome
            seen[j] = s
        assert sorted(seen) == [0, 1, 2, 3]
        assert all(abs(s - 1.0) < 1e-8 for s in seen.values())
        # operators really are [0]x[0], [0]x[1], [1]x[+], [1]x[-]
        expected = [np.kron(P0, P0), np.kron(P0, P1),
                    np.kron(P1, PPLUS), np.kron(P1, PMINUS)]
        for j, op in enumerate(expected):
            assert np.abs(m_pair.outcome_operators[j] - op).max() < 1e-12

    def test_first_measurement_by_first_party(self, m_pair):
        cert = synthesize(m_pair)
        assert all(c.acting_party == 0 for c in cert.tree.children)
        for child in cert.tree.children:
            assert all(g.acting_party == 1 for g in child.children)

    def test_determinism(self, m_pair):
        one = tree_to_dict(synthesize(m_pair).tree, m_pair)
        two = tree_to_dict(synthesize(m_pair).tree, m_pair)
        assert one == two


class TestSynthesizeSevenOutcome:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_four_round_structure(self, seed):
        m = seven_outcome_family(seed)
        cert = synthesize(m)
        assert cert.verdict == Verdict.PROTOCOL_FOUND
        assert cert.root_dims == (1, 2)
        assert cert.tree.depth() == 4
        # first measurement belongs to the second party
        assert all(c.acting_party == 1 for c in cert.tree.children)

    def test_leaf_multiset_accounting(self, m_seven):
        cert = synthesize(m_seven)
        acc = np.zeros(7)
        for node, _ in cert.tree.leaves():
            j, s = node.leaf_outcome
            acc[j] += s
        assert np.abs(acc - m_seven.weights).max() < 1e-8

    def test_branch_outcome_sets(self, m_seven):
        cert = synthesize(m_seven)
        by_branch = {}
        for child in cert.tree.children:
            c7 = child.coeffs[6]
            key = "b7" if c7 > 0.5 else "b6"
            by_branch[key] = {n.leaf_outcome[0] + 1 for n, _ in child.leaves()}
        assert by_branch["b7"] == {7, 5, 1, 3}
        assert by_branch["b6"] == {6, 4, 1, 2}


class TestSynthesizeImpossible:
    def test_dominoes(self, m_dominoes):
        cert = synthesize(m_dominoes)
        assert cert.verdict == Verdict.IMPOSSIBLE_AT_ROOT
        assert cert.tree is None
        assert cert.root_dims == (1, 1)

    def test_phase_five(self, m_phase):
        cert = synthesize(m_phase)
        assert cert.verdict == Verdict.IMPOSSIBLE_AT_ROOT

    def test_random_dominoes(self):
        rng = np.random.default_rng(17)
        for _ in range(3):
            thetas = rng.uniform(0.05, np.pi / 4, size=4)
            cert = synthesize(rotated_dominoes(*thetas))
            assert cert.verdict == Verdict.IMPOSSIBLE_AT_ROOT


class TestWideOneWay:
    """Root cones with more rays than any fixed support cap."""

    @pytest.mark.parametrize("dim", [7, 8, 10, 12])
    def test_found_at_defaults(self, dim):
        m = conditional_basis(2, dim, 0)
        cert = synthesize(m)
        assert cert.verdict is Verdict.PROTOCOL_FOUND
        assert cert.root_dims == (dim, 1)
        assert cert.tree.depth() == 2
        assert verify_tree(cert.tree, m).passed


class TestInconclusive:
    def test_round_budget_exhausted(self, m_seven):
        cert = synthesize(m_seven, max_rounds=3)
        assert cert.verdict == Verdict.INCONCLUSIVE
        assert cert.tree is None
        assert cert.search_stats.dead_ends > 0

    def test_round_budget_validation(self, m_pair):
        with pytest.raises(ValueError):
            synthesize(m_pair, max_rounds=0)


class TestLeafDetection:
    def test_single_support(self, m_pair):
        assert leaf_outcome(m_pair, np.array([0, 0, 2.5, 0.0])) == (2, 2.5)

    def test_not_a_leaf(self, m_pair):
        assert leaf_outcome(m_pair, np.array([1.0, 1, 0, 0])) is None

    def test_operator_route_with_dependent_outcomes(self):
        # duplicate outcome operators: a mixed coefficient vector still
        # reconstructs to a multiple of one outcome
        m = SeparableMeasurement(
            [Party("A", 2), Party("B", 2)],
            [("a", (P0, P0)), ("b", (P0, P0)), ("c", (P1, np.eye(2, dtype=complex)))],
            np.array([0.5, 0.5, 1.0]))
        got = leaf_outcome(m, np.array([0.5, 0.5, 0.0]))
        assert got is not None
        assert got[0] == 0
        assert got[1] == pytest.approx(1.0, abs=1e-10)

    def test_agrees_with_the_dense_oracle_at_every_search_node(self, monkeypatch, catalog_all):
        import locc_forge.engine as engine

        original = engine.leaf_outcome
        operator_route = []

        def compared(m, coeffs, tol=DEFAULT_TOL):
            got = original(m, coeffs, tol)
            assert got == dense_leaf_outcome(m, coeffs, tol)
            top, second = np.sort(coeffs)[[-1, -2]]
            if second > LEAF_SUPPORT_TOL * top:
                operator_route.append(got)
            return got

        monkeypatch.setattr(engine, "leaf_outcome", compared)
        for m in (*catalog_all.values(), conditional_basis(3, 4, 0), conditional_basis(5, 2, 0)):
            synthesize(m)
        assert len(operator_route) > 50


class TestCoefficientSearch:
    def test_warm_search_forms_no_product_operator(self, monkeypatch):
        # a node's bystander operator comes from its coefficients, so once the
        # party tables and outcome operators are cached the search and its
        # verification build no Kronecker product and factorize no node
        import locc_forge.engine as engine
        import locc_forge.feasibility as feasibility
        import locc_forge.measurement as measurement
        import locc_forge.operators as operators

        m = conditional_basis(3, 4, 0)
        cold = synthesize(m)
        calls = []

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        for module in (operators, measurement, feasibility, engine):
            for name in ("tensor", "factorize"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name,
                                        counted(name, getattr(module, name)))
        warm = synthesize(m)
        assert warm.verdict == cold.verdict == Verdict.PROTOCOL_FOUND
        assert calls == []


class TestStats:
    def test_stats_populated(self, m_seven):
        cert = synthesize(m_seven)
        assert cert.search_stats.nodes_expanded > 0
        assert cert.search_stats.wall_time > 0
        assert cert.tolerances.rank_factor == pytest.approx(1e-11)


@pytest.fixture(scope="module")
def cascade():
    eye = np.eye(2, dtype=complex)
    return SeparableMeasurement(
        [Party("A", 2), Party("B", 2), Party("C", 2)],
        [("000", (P0, P0, P0)), ("001", (P0, P0, P1)),
         ("01x", (P0, P1, eye)), ("1xx", (P1, eye, eye))],
        np.ones(4))


class TestThreeParties:

    def test_cascade_protocol(self, cascade):
        roots = check_root(cascade)
        assert [r.nullspace_dim for r in roots] == [2, 1, 1]
        cert = synthesize(cascade)
        assert cert.verdict == Verdict.PROTOCOL_FOUND
        assert cert.tree.depth() == 3
        # measurement order cascades A, then B, then C
        order = []
        node = cert.tree
        while node.children:
            order.append(node.children[0].acting_party)
            node = next(c for c in node.children if not c.is_leaf) \
                if any(not c.is_leaf for c in node.children) else node.children[0]
            if node.is_leaf:
                break
        assert order[0] == 0 and set(order) <= {0, 1, 2}

    def test_cascade_verifies_and_simulates(self, cascade):
        from locc_forge import simulate, verify_tree
        cert = synthesize(cascade)
        assert verify_tree(cert.tree, cascade).passed
        result = simulate(cert.tree, cascade, np.eye(8) / 8)
        assert abs(result.total_probability - 1.0) < 1e-12
        assert np.abs(result.outcome_probabilities
                      - result.direct_probabilities).max() < 1e-10
