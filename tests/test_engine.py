import numpy as np
import pytest

from conftest import EYE2, P0, P1, PMINUS, PPLUS, SIGMA_Z
from locc_forge import (
    Verdict,
    check_root,
    conditional_basis,
    qubit_pair,
    random_density_matrix,
    rotated_dominoes,
    seven_outcome_family,
    simulate,
    synthesize,
    verify_tree,
)
from locc_forge import engine
from locc_forge.catalog import _haar_unitary
from locc_forge.engine import impossible_at_root, leaf_outcome
from locc_forge.feasibility import feasible_cone, root_context
from locc_forge.io import tree_to_dict
from locc_forge.measurement import Party, SeparableMeasurement, validate
from locc_forge.tolerances import LEAF_SUPPORT_TOL, RESIDUAL_TOL
from oracles import recursive_walk


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
        # one cone per party, in the order of m.parties, which names them
        assert [p.name for p in m_pair.parties] == ["A", "B"]
        for p, root in enumerate(roots):
            assert np.array_equal(root.extreme_rays,
                                  feasible_cone(root_context(m_pair, p)).extreme_rays)

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


class TestWeightError:
    """The root's bystander operator is the identity, whatever the weights,
    so a weight error that validation accepts moves no root rank decision."""

    @pytest.mark.parametrize("eps", [1e-10, 1e-9])
    @pytest.mark.parametrize("build", [
        qubit_pair, lambda: seven_outcome_family(0),
        lambda: conditional_basis(3, 2, 0), lambda: conditional_basis(2, 3, 0)],
        ids=["qubit-pair", "seven-outcome-0", "conditional-3x2", "conditional-2x3"])
    def test_verdict_and_root_dims_are_the_exact_weights(self, build, eps):
        exact = build()
        weights = exact.weights.copy()
        weights[0] *= 1 + eps
        m = SeparableMeasurement(exact.parties, exact.outcomes, weights)
        assert validate(m).ok
        want = synthesize(exact)
        cert = synthesize(m)
        assert cert.verdict == want.verdict == Verdict.PROTOCOL_FOUND
        assert cert.root_dims == want.root_dims
        assert [r.nullspace_dim for r in check_root(m)] == list(want.root_dims)


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

    def test_each_node_split_once_per_party(self, monkeypatch):
        # the depth-2 tree takes two deepening passes, and the second one
        # reuses the root's splits from the first; a node's rays name the
        # party whose cone they span
        calls = []
        decompose = engine.decompose

        def counted(coeffs, rays, *args):
            calls.append((coeffs.tobytes(), np.asarray(rays).tobytes()))
            return decompose(coeffs, rays, *args)

        monkeypatch.setattr(engine, "decompose", counted)
        cert = synthesize(conditional_basis(2, 5, 0))
        assert cert.tree.depth() == 2
        assert len(calls) == len(set(calls)) == 6     # the root, then its 5 children

    def test_memo_keys_are_python_floats_and_hit_as_before(self, monkeypatch):
        # a key of Python floats equals and hashes like the numpy-scalar
        # key it replaces, so the cone cache finds the same entries
        m = conditional_basis(3, 4, [0, 3, 4])
        key = engine._coeff_key(np.asarray(m.weights, dtype=float))
        assert all(type(x) is float for x in key)

        def run(coeff_key):
            monkeypatch.setattr(engine, "_coeff_key", coeff_key)
            lookups, analysed = [], []
            cone_at, cone = engine._Search.cone_at, engine.feasible_cone
            monkeypatch.setattr(engine._Search, "cone_at",
                                lambda self, *a: lookups.append(1) or cone_at(self, *a))
            monkeypatch.setattr(engine, "feasible_cone",
                                lambda *a: analysed.append(1) or cone(*a))
            cert = synthesize(m)
            monkeypatch.undo()
            return cert.verdict, len(lookups), len(analysed), cert.search_stats.nodes_expanded

        def numpy_scalar_key(coeffs):
            l1 = float(np.abs(coeffs).sum())
            return (0,) if l1 == 0 else tuple(np.round(coeffs / l1, 9))

        new, old = run(engine._coeff_key), run(numpy_scalar_key)
        assert new == old
        assert new[0] is Verdict.PROTOCOL_FOUND and new[1] > new[2]   # the cache is hit


def _nearly_parallel(delta: float, n_parties: int) -> SeparableMeasurement:
    """B measures P0/P1; on 0, A measures (I +- delta Z)/2; on 1, with three
    parties, C measures P0/P1.  The three-party outcomes are conjugated by
    fixed Haar-random local unitaries."""
    outcomes = [("+", ((EYE2 + delta * SIGMA_Z) / 2, P0, EYE2)),
                ("-", ((EYE2 - delta * SIGMA_Z) / 2, P0, EYE2))]
    if n_parties == 2:
        outcomes = [(label, fs[:2]) for label, fs in outcomes] + [("1", (EYE2, P1))]
        return SeparableMeasurement([Party("A", 2), Party("B", 2)], outcomes, [1.0] * 3)
    outcomes += [("10", (EYE2, P1, P0)), ("11", (EYE2, P1, P1))]
    rng = np.random.default_rng(0)
    us = [_haar_unitary(2, rng) for _ in range(3)]
    outcomes = [(label, tuple(u @ f @ u.conj().T for u, f in zip(us, fs)))
                for label, fs in outcomes]
    return SeparableMeasurement([Party("A", 2), Party("B", 2), Party("C", 2)],
                                outcomes, [1.0] * 4)


class TestNearlyParallelFactors:
    """A's two factors differ by delta Z, so the spans are ill conditioned,
    yet the two-round protocol is found: no conditioning limit refuses the
    span, and roundoff in the root's identity coordinates moves no rank."""

    @pytest.mark.parametrize("n_parties", [2, 3])
    @pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-5, 1e-7])
    def test_protocol_found(self, delta, n_parties):
        m = _nearly_parallel(delta, n_parties)
        cert = synthesize(m)
        assert cert.verdict is Verdict.PROTOCOL_FOUND
        assert cert.root_dims == (1, 2, 1)[:n_parties]
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
    def test_single_support(self):
        assert leaf_outcome(np.array([0, 0, 2.5, 0.0])) == (2, 2.5)

    def test_not_a_leaf(self):
        assert leaf_outcome(np.array([1.0, 1, 0, 0])) is None

    def test_operator_route_with_dependent_outcomes(self):
        # with duplicate outcome operators O_a = O_b, the node (1/2, 1/2, 0)
        # is the operator O_a, yet no leaf: labelled a, it would report b's
        # share as a's
        assert leaf_outcome(np.array([0.5, 0.5, 0.0])) is None

    @pytest.mark.parametrize("coeffs, want", [
        ([0.0, 3.0, -1e-13], (1, 3.0)),
        ([2.0, -1e-13, 1.0], None),
        ([-1e-13, 0.0, 0.0], None),
        ([0.0, 0.0], None),
        ([2.0], (0, 2.0)),
        ([0.5, 0.5, -1e-13], None),
        ([4.0, 0.0, 0.9 * LEAF_SUPPORT_TOL * 4.0], (0, 4.0)),
        ([4.0, 0.0, 1.1 * LEAF_SUPPORT_TOL * 4.0], None),
    ])
    def test_support_rule(self, coeffs, want):
        assert leaf_outcome(np.array(coeffs)) == want

    def test_non_leaf_forms_no_operator(self):
        # the leaf test reads the coefficients alone, so a search through
        # nodes on several outcomes builds no outcome operator stack
        cb = conditional_basis(3, 4, 0)
        m = SeparableMeasurement(cb.parties, cb.outcomes, cb.weights)
        c = np.zeros(m.n_outcomes)
        c[[0, 5, 17]] = [1.0, 2.0, 0.5]
        assert leaf_outcome(c) is None
        tree = engine._Search(m, RESIDUAL_TOL).run(m.weights, None, 3)
        assert tree is not None and tree.depth() == 3
        assert "outcome_operators" not in m.__dict__

    def test_validation_search_verification_and_simulation_form_no_operator(self):
        # every step reads the factor stacks, so a fresh measurement taken
        # from validation to simulation builds no outcome operator stack
        m = conditional_basis(4, 3, 0)
        assert validate(m).ok
        cert = synthesize(m)                # verifies the tree it returns
        assert cert.verdict is Verdict.PROTOCOL_FOUND
        assert verify_tree(cert.tree, m).passed
        rho = random_density_matrix(m.total_dim, np.random.default_rng(0))
        result = simulate(cert.tree, m, rho)
        assert abs(result.total_probability - 1.0) < 1e-9
        assert np.abs(result.outcome_probabilities - result.direct_probabilities).max() < 1e-12
        assert "outcome_operators" not in m.__dict__


def leaf_scales_per_outcome(tree, m) -> np.ndarray:
    sums = np.zeros(m.n_outcomes)
    for node, _ in tree.leaves():
        j, scale = node.leaf_outcome
        sums[j] += scale
    return sums


class TestOutcomeShares:
    """The leaves labelled j add up to w_j, also when outcome operators are
    linearly dependent."""

    def test_coin_flip(self):
        eye = np.eye(2, dtype=complex)
        m = SeparableMeasurement([Party("A", 2), Party("B", 2)],
                                 [("h", (eye, eye)), ("t", (eye, eye))], [0.5, 0.5])
        cert = synthesize(m)
        assert cert.verdict == Verdict.PROTOCOL_FOUND
        assert cert.tree.depth() == 1
        assert np.abs(leaf_scales_per_outcome(cert.tree, m) - m.weights).max() <= 1e-12

    def test_zero_weight_outcome_keeps_its_zero_share(self, m_pair):
        outcomes = [(o.label, o.factors) for o in m_pair.outcomes] + [("z", (P0, EYE2))]
        m = SeparableMeasurement(m_pair.parties, outcomes, [*m_pair.weights, 0.0])
        cert = synthesize(m)
        assert cert.verdict == Verdict.PROTOCOL_FOUND
        assert cert.tree.depth() == 2
        assert np.abs(leaf_scales_per_outcome(cert.tree, m) - m.weights).max() <= 1e-12


class TestNoMeasurementNeeded:
    """A single outcome I (x) I of weight one is implemented by doing
    nothing, although no party's root cone has room for a first measurement."""

    @pytest.mark.parametrize("idle", [0, 1, 2])
    def test_root_leaf(self, idle):
        eye = np.eye(2, dtype=complex)
        outcomes = [("1", (eye, eye)), ("z0", (P0, P1)), ("z1", (P1, P0))][:1 + idle]
        m = SeparableMeasurement([Party("A", 2), Party("B", 2)], outcomes,
                                 [1.0] + [0.0] * idle)
        roots = check_root(m)
        assert [r.nullspace_dim for r in roots] == [1, 1]
        assert not impossible_at_root(m, roots)
        cert = synthesize(m)
        assert cert.verdict == Verdict.PROTOCOL_FOUND
        assert cert.tree.depth() == 0 and cert.tree.leaf_outcome == (0, 1.0)
        assert verify_tree(cert.tree, m).passed


class TestCoefficientSearch:
    def test_warm_search_forms_no_product_operator(self, monkeypatch):
        # a node's bystander operator comes from its coefficients, so once the
        # frames and outcome operators are cached the search and its
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
        assert cert.residual_tol == RESIDUAL_TOL
        assert synthesize(m_seven, residual_tol=1e-6).residual_tol == 1e-6


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


class TestWalk:
    """``walk`` keeps its stack itself, with the preorder and paths of the
    recursive walk; ``leaves`` reads it."""

    @staticmethod
    def assert_walks_agree(tree, path="root"):
        got, want = list(tree.walk(path)), list(recursive_walk(tree, path))
        assert [p for _, p in got] == [p for _, p in want]
        assert all(a is b for (a, _), (b, _) in zip(got, want))
        leaves = tree.leaves(path)
        assert [p for _, p in leaves] == [p for n, p in want if n.is_leaf]
        assert all(a is b for (a, _), (b, _) in zip(leaves, [(n, p) for n, p in want
                                                               if n.is_leaf]))

    def test_hand_tree(self, hand_tree):
        self.assert_walks_agree(hand_tree)
        self.assert_walks_agree(hand_tree.children[1], "root.1")
        assert [p for _, p in hand_tree.walk()][:6] == [
            "root", "root.0", "root.0.0", "root.0.0.0", "root.0.0.0.0", "root.0.0.0.1"]

    def test_synthesized_five_party_tree(self):
        tree = synthesize(conditional_basis(5, 2, 0)).tree
        assert tree.depth() == 5
        self.assert_walks_agree(tree)

    def test_leaf_root(self):
        self.assert_walks_agree(engine.ProtocolNode(np.ones(1), None, (), (0, 1.0)))
