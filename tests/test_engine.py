import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    EYE2,
    P0,
    P1,
    PMINUS,
    PPLUS,
    SIGMA_Z,
    audit_instances,
    benchmark_instances,
    catalog_instances,
    flag_dominoes,
    split_outcome,
)
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
from locc_forge.errors import LoccForgeError
from locc_forge.feasibility import FeasibleCone, NodeContext, feasible_cone, root_context
from locc_forge.io import tree_to_dict
from locc_forge.measurement import Party, SeparableMeasurement
from locc_forge.tolerances import (
    LEAF_SUPPORT_TOL,
    RESIDUAL_TOL,
    SPLIT_BOUND_MARGIN,
    rank_threshold,
)
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
        # party A's cone is built from Q; party B's half-line is certified
        # from the frames and agrees with Q's to roundoff
        assert [r.certified for r in roots] == [False, True]
        for p, root in enumerate(roots):
            full = feasible_cone(root_context(m_pair, p))
            assert root.extreme_rays.shape == full.extreme_rays.shape
            assert np.abs(root.extreme_rays - full.extreme_rays).max() <= 1e-15
        assert roots[0].extreme_rays.tobytes() == \
            feasible_cone(root_context(m_pair, 0)).extreme_rays.tobytes()

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
    so a weight error that the constructor accepts moves no root rank
    decision."""

    @pytest.mark.parametrize("eps", [1e-10, 1e-9])
    @pytest.mark.parametrize("build", [
        qubit_pair, lambda: seven_outcome_family(0),
        lambda: conditional_basis(3, 2, 0), lambda: conditional_basis(2, 3, 0)],
        ids=["qubit-pair", "seven-outcome-0", "conditional-3x2", "conditional-2x3"])
    def test_verdict_and_root_dims_are_the_exact_weights(self, build, eps):
        exact = build()
        weights = exact.weights.copy()
        weights[0] *= 1 + eps
        m = SeparableMeasurement(exact.parties, exact.outcomes, weights)   # accepted
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

    def test_a_tampered_weight_fails_the_self_check(self, m_phase):
        # phase-five with outcome 0 a million times larger and its weight a
        # million times smaller is the same complete measurement.  Root rays
        # whose weight on outcome 0 is 5e-9 too large pass the ray test, yet
        # sum_j c_j O_j misses the identity by about 1.6e-2, so the check
        # refuses to certify
        big = 1e6
        w = m_phase.weights.copy()
        w[0] /= big
        m = SeparableMeasurement(m_phase.parties, [
            (o.label, (o.factors[0] * (big if j == 0 else 1.0), o.factors[1]))
            for j, o in enumerate(m_phase.outcomes)], w)
        ray = w / w.sum()
        ray[0] += 5e-9
        roots = [FeasibleCone(1, ray[None], False) for _ in m.parties]
        with pytest.raises(LoccForgeError, match="does not reconstruct the identity"):
            impossible_at_root(m, roots)
        assert impossible_at_root(m_phase, check_root(m_phase))


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
        # party whose cone they span.  The root is split by decompose, its
        # children, whose outcomes B resolves, in closed form
        calls = []
        decompose, final_split = engine.decompose, engine.final_split

        def counted(coeffs, rays, *args):
            calls.append((coeffs.tobytes(), np.asarray(rays).tobytes()))
            return decompose(coeffs, rays, *args)

        def closed_form(coeffs, rays):
            split = final_split(coeffs, rays)
            if split is not None:
                calls.append((coeffs.tobytes(), "final"))
            return split

        monkeypatch.setattr(engine, "decompose", counted)
        monkeypatch.setattr(engine, "final_split", closed_form)
        cert = synthesize(conditional_basis(2, 5, 0))
        assert cert.tree.depth() == 2
        assert len(calls) == len(set(calls)) == 6     # the root, then its 5 children
        assert cert.search_stats.final_splits == 5

    def test_one_memo_key_per_node(self, monkeypatch):
        # a node's key serves its memo entry and every party's cone lookup;
        # synthesize keys the root cones once more
        keys, memo_runs = [], []
        coeff_key, run = engine._coeff_key, engine._Search.run

        def counted_run(self, coeffs, produced_by, remaining):
            if remaining > 0 and engine.leaf_outcome(coeffs) is None:
                memo_runs.append(1)
            return run(self, coeffs, produced_by, remaining)

        monkeypatch.setattr(engine, "_coeff_key", lambda c: keys.append(1) or coeff_key(c))
        monkeypatch.setattr(engine._Search, "run", counted_run)
        cert = synthesize(conditional_basis(3, 4, [0, 3, 4]))
        assert cert.verdict is Verdict.PROTOCOL_FOUND
        assert memo_runs and len(keys) <= len(memo_runs) + 1

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


class TestExhaustion:
    """INCONCLUSIVE means the extreme-ray search ran out.  Every child's
    support is a strict subset of its parent's, so no tree is deeper than
    n_outcomes - 1 and deepening stops at the first pass that cuts nothing."""

    def test_flag_dominoes_exhaust_after_two_passes(self):
        cert = synthesize(flag_dominoes())
        assert cert.verdict is Verdict.INCONCLUSIVE
        assert cert.tree is None
        # pass 1 expands the root and cuts its children at depth 1; pass 2
        # expands the root and the dominoes under the flag, which no party
        # can split, and cuts nothing
        assert cert.search_stats.nodes_expanded == 3

    def test_children_shrink_the_support(self):
        found = 0
        for m in benchmark_instances():
            cert = synthesize(m)
            if cert.tree is None:
                continue
            found += 1
            assert cert.tree.depth() <= m.n_outcomes - 1
            for node, _ in cert.tree.walk():
                support = node.coeffs > 0
                for child in node.children:
                    inner = child.coeffs > 0
                    assert (inner <= support).all() and inner.sum() < support.sum()
        assert found == 22


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
        tree = engine._Search(m).run(m.weights, None, 3)
        assert tree is not None and tree.depth() == 3
        assert "outcome_operators" not in m.__dict__

    def test_validation_search_verification_and_simulation_form_no_operator(self):
        # every step reads the factor stacks, so a fresh measurement taken
        # from its constructor's checks to simulation builds no outcome
        # operator stack
        m = conditional_basis(4, 3, 0)
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


def _trivial_move_measurements():
    """The benchmark's measurements at seeds 0-2 and the library's
    conditional bases."""
    out = [m for seed in range(3) for m in benchmark_instances(seed)]
    return out + [conditional_basis(n, d, 0)
                  for n, d in ((2, 5), (3, 3), (4, 2), (4, 3), (5, 2), (3, 5))]


def _full_route(self, party, coeffs):
    """A pair's cone the full way: Q, its nullspace and its rays."""
    return feasible_cone(NodeContext(self.m, party, coeffs))


def _no_final_split(coeffs, rays):
    """Every split through decompose."""
    return None


def _same_tree(got, want, rel=1e-15):
    """Equal acting parties, child counts and leaf outcomes; coefficients
    and leaf scales within ``rel`` relative."""
    pairs = list(zip(got.walk(), want.walk()))
    assert len(pairs) == len(list(want.walk()))
    for (g, _), (w, _) in pairs:
        assert (g.acting_party, len(g.children)) == (w.acting_party, len(w.children))
        assert (g.leaf_outcome is None) == (w.leaf_outcome is None)
        assert np.array_equal(g.coeffs != 0, w.coeffs != 0)
        assert np.abs(g.coeffs - w.coeffs).max() <= rel * np.abs(w.coeffs).max()
        if w.leaf_outcome is not None:
            assert g.leaf_outcome[0] == w.leaf_outcome[0]
            assert abs(g.leaf_outcome[1] - w.leaf_outcome[1]) <= rel * w.leaf_outcome[1]


class TestTrivialMoves:
    """Below the root, a party that cannot move is skipped, a final mover
    gets its orthant, and a party that resolves every outcome splits the
    node into leaves, all without Q."""

    def test_every_skipped_party_has_a_one_dimensional_cone(self, monkeypatch):
        skipped = []
        analyse = engine._Search.analyse

        def checked(self, party, coeffs):
            before = self.stats.parties_skipped
            cone = analyse(self, party, coeffs)
            if self.stats.parties_skipped > before:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    full = _full_route(self, party, coeffs)
                assert full.nullspace_dim == cone.nullspace_dim == 1
                assert not full.marginal_rank and not cone.marginal_rank
                skipped.append(1)
            return cone

        monkeypatch.setattr(engine._Search, "analyse", checked)
        for m in _trivial_move_measurements():
            synthesize(m)
        assert len(skipped) > 100

    def test_every_orthant_equals_the_full_route(self, monkeypatch):
        met = []
        analyse = engine._Search.analyse

        def checked(self, party, coeffs):
            before = self.stats.orthants
            cone = analyse(self, party, coeffs)
            if self.stats.orthants > before:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    full = _full_route(self, party, coeffs)
                assert cone.nullspace_dim == full.nullspace_dim == np.count_nonzero(coeffs)
                assert cone.extreme_rays.tobytes() == full.extreme_rays.tobytes()
                assert cone.extreme_rays.shape == full.extreme_rays.shape
                assert not cone.marginal_rank and not full.marginal_rank
                met.append(1)
            return cone

        monkeypatch.setattr(engine._Search, "analyse", checked)
        for m in _trivial_move_measurements():
            synthesize(m)
        assert len(met) > 100

    def test_a_factor_one_ulp_off_takes_the_full_route(self):
        # after A's outcome 0 of 2x3, B is the final mover on outcomes 0-2;
        # A's factor on outcome 1 moved by one ulp is no longer the same,
        # so B's cone is built from Q
        m = conditional_basis(2, 3, 0)
        coeffs = np.array([1.0, 1.0, 1.0, 0, 0, 0, 0, 0, 0])
        search = engine._Search(m)
        closed = search.analyse(1, coeffs)
        assert (search.stats.orthants, search.stats.cones_built) == (1, 0)
        outcomes = [(o.label, list(o.factors)) for o in m.outcomes]
        f = outcomes[1][1][0].copy()
        f[0, 0] = np.nextafter(f[0, 0].real, 2.0)
        outcomes[1][1][0] = f
        moved = SeparableMeasurement(m.parties, outcomes, m.weights)
        search = engine._Search(moved)
        full = search.analyse(1, coeffs)
        assert (search.stats.orthants, search.stats.cones_built) == (0, 1)
        assert full.nullspace_dim == closed.nullspace_dim == 3
        assert full.extreme_rays.tobytes() == closed.extreme_rays.tobytes()

    def test_each_miss_below_the_root_is_counted_once(self, monkeypatch):
        analyse = engine._Search.analyse
        misses = []
        monkeypatch.setattr(engine._Search, "analyse",
                            lambda self, *a: misses.append(1) or analyse(self, *a))
        for m in _trivial_move_measurements():
            misses.clear()
            s = synthesize(m).search_stats
            assert len(misses) == s.cones_built + s.parties_skipped + s.orthants

    def test_closed_form_splits_are_decompose_splits(self, monkeypatch):
        met = []
        splits_at = engine._Search.splits_at

        def checked(self, party, coeffs, rays):
            before = self.stats.final_splits
            splits = splits_at(self, party, coeffs, rays)
            if self.stats.final_splits > before:
                # the orthant's rays are the unit vectors of the node's
                # support, last first, and the closed form is decompose's
                # one split on them
                support = np.flatnonzero(coeffs)
                assert rays.tobytes() == np.eye(len(coeffs))[support[::-1]].tobytes()
                want = engine.decompose(coeffs, rays)
                assert len(splits) == len(want) == 1
                got, want = splits[0], want[0]
                assert got.rays_used == want.rays_used
                # the closed form's scales are the coefficients themselves;
                # decompose's least-squares ones miss them by up to 2 ulps
                assert got.scales.tobytes() == coeffs[coeffs != 0][::-1].tobytes()
                gap = np.abs(got.scales - want.scales)
                assert np.all(gap <= 2 * np.spacing(np.minimum(got.scales, want.scales)))
                met.append(1)
            return splits

        monkeypatch.setattr(engine._Search, "splits_at", checked)
        for m in _trivial_move_measurements():
            synthesize(m)
        assert len(met) > 100

    def test_trees_equal_the_full_route(self, monkeypatch):
        ms = [conditional_basis(5, 2, 0), conditional_basis(3, 4, 1), seven_outcome_family(0)]
        fast = [synthesize(m) for m in ms]
        monkeypatch.setattr(engine._Search, "analyse", _full_route)
        monkeypatch.setattr(engine, "final_split", _no_final_split)
        for m, cert in zip(ms, fast):
            ref = synthesize(m)
            assert (cert.search_stats.nodes_expanded, cert.search_stats.dead_ends) == \
                (ref.search_stats.nodes_expanded, ref.search_stats.dead_ends)
            _same_tree(cert.tree, ref.tree)

    def test_dependent_outcomes_refuse_the_skip(self, monkeypatch):
        # outcome 0 of 3x2 in two equal halves: A's factor is the same on
        # both, and the certificate refuses, so no party is skipped; forced
        # to accept, it would skip parties whose cones are not half-lines.
        # A final mover's orthant needs no certificate, and its tree is the
        # full route's, byte for byte
        m = split_outcome(conditional_basis(3, 2, 0), 0)
        assert not m.outcomes_independent
        cert = synthesize(m)
        assert cert.verdict is Verdict.PROTOCOL_FOUND
        stats = cert.search_stats
        assert stats.parties_skipped == 0 and stats.orthants > 0 and stats.final_splits > 0
        with monkeypatch.context() as patched:
            patched.setattr(engine._Search, "analyse", _full_route)
            ref = synthesize(m)
            patched.setattr(engine, "final_split", _no_final_split)
            _same_tree(cert.tree, synthesize(m).tree)
        assert (stats.nodes_expanded, stats.dead_ends) == \
            (ref.search_stats.nodes_expanded, ref.search_stats.dead_ends)
        got, want = list(cert.tree.walk()), list(ref.tree.walk())
        assert [p for _, p in got] == [p for _, p in want]
        for (g, _), (w, _) in zip(got, want):
            assert (g.acting_party, g.leaf_outcome) == (w.acting_party, w.leaf_outcome)
            assert g.coeffs.tobytes() == w.coeffs.tobytes()
        forced = split_outcome(conditional_basis(3, 2, 0), 0)
        forced.__dict__["outcomes_independent"] = True
        assert synthesize(forced).search_stats.parties_skipped > 0

    def test_a_coefficient_below_the_subset_bound_goes_through_decompose(self, monkeypatch):
        # A measured outcome 0; B resolves outcomes 0-2, the orthant, but
        # 3e-8 is below twice decompose's subset bound 2 sqrt(9) 1e-8
        m = conditional_basis(2, 3, 0)
        calls = []
        decompose = engine.decompose
        monkeypatch.setattr(engine, "decompose",
                            lambda *a: calls.append(1) or decompose(*a))
        coeffs = np.array([1.0, 0.5, 3e-8, 0, 0, 0, 0, 0, 0])
        rays = np.eye(9)[[2, 1, 0]]
        assert engine.final_split(coeffs, rays) is None
        search = engine._Search(m)
        node = search.run(coeffs, 0, 1)
        assert len(calls) == 1 and search.stats.final_splits == 0
        (split,) = decompose(coeffs, np.eye(9)[[2, 1, 0]])
        assert [c.leaf_outcome for c in node.children] == [
            (j, float(s)) for j, s in zip((2, 1, 0), split.scales)]
        # at twice the bound and above, the closed form answers
        coeffs[2] = 1.3e-7
        assert engine.final_split(coeffs, rays).rays_used == (0, 1, 2)

    def test_final_split_needs_the_unit_vectors_of_the_support(self):
        coeffs = np.array([0.5, 0.25, 0.25, 0.0])
        eye = np.eye(4)
        assert engine.final_split(coeffs, eye[[2, 1, 0]]).scales.tolist() == [0.25, 0.25, 0.5]
        # a simplicial cone that is no orthant, rays missing an outcome of
        # the support, a ray off it, and a unit ray not scaled to 1
        for rays in (np.array([[0.5, 0.5, 0, 0], [0, 0, 1, 0]]), eye[[1, 0]],
                     eye[[3, 2, 1, 0]], np.diag([0.5, 1.0, 1.0, 0.0])[:3]):
            assert engine.final_split(coeffs, rays) is None

    def test_stats_count_the_trivial_moves(self, m_dominoes):
        stats = synthesize(conditional_basis(5, 2, 0)).search_stats
        assert stats.cones_built > 0 and stats.parties_skipped > 0 and stats.final_splits > 0
        assert stats.orthants > 0
        stats = synthesize(m_dominoes).search_stats
        assert stats.cones_built == stats.parties_skipped == stats.orthants == 0
        assert stats.final_splits == 0


@st.composite
def two_ray_nodes(draw):
    """(kind, node, rays): two L1-normalized nonnegative rays in R^n, with
    zeros drawn on their supports, and a node inside the arc they span
    (scales across twelve decades), parallel to one ray, outside the cone
    (a negative scale) or off its plane; or rays parallel to within a
    factor of 0.01 to 100 of the margin below which decompose no longer
    trusts least squares, with a node between them on comparable scales."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 9))
    kind = draw(st.sampled_from(["inside", "parallel", "outside", "off-plane", "near-margin"]))
    rays = rng.uniform(0.0, 1.0, (2, n)) * (rng.random((2, n)) < 0.7)
    rays[:, 0] += 0.1                   # no ray is zero
    if kind == "near-margin":
        sigma = draw(st.floats(-2.0, 2.0))
        gap = 10.0 ** sigma * SPLIT_BOUND_MARGIN * rank_threshold((n, 2), 1.0)
        rays[1] = rays[0] + gap * rng.standard_normal(n) * rays[0]
    rays /= rays.sum(axis=1, keepdims=True)
    s = 10.0 ** rng.uniform(-9.0, 3.0, 2)
    if kind == "near-margin":           # comparable scales: the rays stay usable
        s = 10.0 ** rng.uniform(-1.0, 3.0) * np.array([1.0, rng.uniform(0.5, 2.0)])
    if kind == "parallel":
        s[1] = 0.0
    if kind == "outside":
        s[1] = -s[1]
    node = s @ rays
    if kind == "off-plane":
        node += 10.0 ** rng.uniform(-9.0, 0.0) * rng.uniform(0.0, 1.0, n)
    return kind, node, rays[rng.permutation(2)]


class TestPlanarSplits:
    """A two-ray cone splits a node in closed form (``engine.planar_split``)
    where every test of ``decompose`` is decided with room, and gives
    decompose's one split there; anywhere else decompose splits it."""

    def test_planar_splits_are_decompose_splits_on_the_audit(self, monkeypatch):
        met = []
        splits_at = engine._Search.splits_at

        def checked(self, party, coeffs, rays):
            before = self.stats.planar_splits
            splits = splits_at(self, party, coeffs, rays)
            if self.stats.planar_splits > before:
                assert rays.shape == (2, len(coeffs))
                want = engine.decompose(coeffs, rays)
                assert len(splits) == len(want) == 1
                got, want = splits[0], want[0]
                assert got.rays_used == want.rays_used == (0, 1)
                assert np.abs(got.scales - want.scales).max() <= 1e-15 * want.scales.max()
                met.append(1)
            return splits

        monkeypatch.setattr(engine._Search, "splits_at", checked)
        for m in audit_instances():
            synthesize(m)
        assert len(met) > 200

    @given(two_ray_nodes())
    @settings(max_examples=400, deadline=None)
    def test_closed_form_answers_as_decompose(self, case):
        kind, node, rays = case
        got = engine.planar_split(node, rays)
        want = engine.decompose(node, rays)
        sigma = np.linalg.svd(rays.T, compute_uv=False)
        n = len(node)
        if got is None:
            # decompose decides; the closed form leaves out only splits
            # within a factor 2 of its margin or of its scale bound
            if kind == "inside" and len(want) == 1:
                bound = np.sqrt(n) * RESIDUAL_TOL * max(1.0, node.max())
                assert (sigma[1] <= 2 * SPLIT_BOUND_MARGIN * rank_threshold((n, 2), sigma[0])
                        or want[0].scales.min() <= 8 * bound / sigma[1])
            return
        assert kind in ("inside", "off-plane", "near-margin"), kind
        assert len(want) == 1 and want[0].rays_used == got.rays_used == (0, 1)
        tol = 4 * n * np.finfo(float).eps * sigma[0] / sigma[1]
        assert np.abs(got.scales - want[0].scales).max() <= tol * want[0].scales.max()

    def test_each_fallback_rule(self):
        rays = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
        assert engine.planar_split(np.array([1.0, 2.0, 1.0]), rays).scales.tolist() == \
            pytest.approx([2.0, 2.0], rel=1e-15)
        # parallel to one ray, outside the cone, off its plane: decompose
        # finds no split
        for node in ([1.0, 1.0, 0.0], [1.0, 0.5, -0.5], [1.0, 2.0, 1.1]):
            assert engine.planar_split(np.array(node), rays) is None
            assert engine.decompose(np.array(node), rays) == []
        # a scale of 1e-7, under twice the subset bound 2 sqrt(3) 1e-8 / 0.5:
        # decompose's split, which the closed form leaves to it
        node = np.array([2.0, 1e-7]) @ rays
        assert engine.planar_split(node, rays) is None
        assert engine.decompose(node, rays)[0].scales.tolist() == pytest.approx([2.0, 1e-7])
        assert engine.planar_split(np.array([2.0, 3e-7]) @ rays, rays) is not None
        # rays apart by 0.8 and 1.25 times decompose's margin: below it the
        # scale test alone would pass, and decompose finds no split
        r0, d = np.full(9, 1 / 9), np.array([1.0, -1.0] * 4 + [0.0])
        for gap, splits in ((1.70e-8, False), (2.65e-8, True)):
            near = np.array([r0, r0 + gap * d])
            sigma = np.linalg.svd(near.T, compute_uv=False)
            ratio = sigma[1] / (SPLIT_BOUND_MARGIN * rank_threshold((9, 2), sigma[0]))
            assert 0.75 < ratio < 1.3 and (ratio > 1) == splits
            got, want = engine.planar_split(5 * near.sum(axis=0), near), \
                engine.decompose(5 * near.sum(axis=0), near)
            assert (got is not None) == splits == (len(want) == 1)

    def test_catalog_calls_no_decompose(self, monkeypatch):
        calls = []
        decompose = engine.decompose
        monkeypatch.setattr(engine, "decompose", lambda *a: calls.append(1) or decompose(*a))
        planar = 0
        for m in catalog_instances():
            planar += synthesize(m).search_stats.planar_splits
        assert calls == [] and planar == 51

    def test_trees_equal_decompose_trees(self, monkeypatch):
        ms = [seven_outcome_family(0), qubit_pair(), conditional_basis(5, 2, 0)]
        fast = [synthesize(m) for m in ms]
        assert all(c.search_stats.planar_splits > 0 for c in fast)
        monkeypatch.setattr(engine, "planar_split", lambda coeffs, rays: None)
        for m, cert in zip(ms, fast):
            ref = synthesize(m)
            assert ref.search_stats.planar_splits == 0
            assert (cert.search_stats.nodes_expanded, cert.search_stats.dead_ends) == \
                (ref.search_stats.nodes_expanded, ref.search_stats.dead_ends)
            # the closed form's scales miss decompose's by a few ulps
            _same_tree(cert.tree, ref.tree, rel=1e-14)
