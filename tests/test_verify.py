import numpy as np
import pytest

from locc_forge import conditional_basis, synthesize
from locc_forge import verify
from locc_forge.engine import ProtocolNode
from locc_forge.errors import TreeStructureError
from locc_forge.verify import random_density_matrix, simulate, verify_tree
from oracles import per_node_product_and_positivity


def node(c, party, children=(), leaf=None):
    return ProtocolNode(np.asarray(c, dtype=float), party, tuple(children), leaf)


@pytest.fixture(scope="module")
def hand_tree():
    """Known four-round protocol for the seven-outcome family, written out
    node by node rather than produced by the search."""
    A, B = 0, 1
    return node((2, 2, 3, 2, 6, 1, 1), None, [
        node((1, 0, 3, 0, 6, 0, 1), B, [
            node((1, 0, 3, 0, 6, 0, 0), A, [
                node((1, 0, 3, 0, 0, 0, 0), B, [
                    node((1, 0, 0, 0, 0, 0, 0), A, leaf=(0, 1.0)),
                    node((0, 0, 3, 0, 0, 0, 0), A, leaf=(2, 3.0)),
                ]),
                node((0, 0, 0, 0, 6, 0, 0), B, leaf=(4, 6.0)),
            ]),
            node((0, 0, 0, 0, 0, 0, 1), A, leaf=(6, 1.0)),
        ]),
        node((1, 2, 0, 2, 0, 1, 0), B, [
            node((1, 2, 0, 2, 0, 0, 0), A, [
                node((1, 2, 0, 0, 0, 0, 0), B, [
                    node((1, 0, 0, 0, 0, 0, 0), A, leaf=(0, 1.0)),
                    node((0, 2, 0, 0, 0, 0, 0), A, leaf=(1, 2.0)),
                ]),
                node((0, 0, 0, 2, 0, 0, 0), B, leaf=(3, 2.0)),
            ]),
            node((0, 0, 0, 0, 0, 1, 0), A, leaf=(5, 1.0)),
        ]),
    ])


class TestVerifyTree:
    def test_synthesized_trees_pass(self, m_pair, m_seven):
        for m in (m_pair, m_seven):
            cert = synthesize(m)
            report = verify_tree(cert.tree, m)
            assert report.passed
            assert report.checks["node-sum"].worst_residual < 1e-8

    def test_batched_checks_match_per_node_reference(self, hand_tree, m_seven):
        """Product structure and positivity, decided on stacks of nodes, give
        the values and locations of a node-by-node computation, also on a
        tree with more nodes than one SVD block and on a tampered one."""
        m3 = conditional_basis(3, 3, 7)
        tree3 = synthesize(m3).tree
        assert len(list(tree3.walk())) > 16
        bad = ProtocolNode(hand_tree.coeffs, None, (
            hand_tree.children[0],
            ProtocolNode(np.array([1.0, 0, 0, 2, 0, 1, 0]), 1,
                         hand_tree.children[1].children, None)), None)
        for tree, m in ((tree3, m3), (hand_tree, m_seven), (bad, m_seven)):
            report = verify_tree(tree, m)
            product, negative = per_node_product_and_positivity(tree, m)
            got = report.checks["product-structure"]
            assert (got.worst_residual, got.detail) == (
                product[0], product[1] if product[0] > 0 else "")
            got = report.checks["positivity"]
            assert got.worst_residual == negative[0]
            assert got.detail == (negative[1] if not got.passed else "")
        assert not verify_tree(bad, m_seven).checks["product-structure"].passed

    def test_hand_encoded_tree_passes(self, hand_tree, m_seven):
        report = verify_tree(hand_tree, m_seven)
        assert report.passed, report.lines()

    def test_perturbed_leaf_scale_detected(self, hand_tree, m_seven):
        def copy(n):
            return ProtocolNode(n.coeffs.copy(), n.acting_party,
                                tuple(copy(c) for c in n.children),
                                n.leaf_outcome)

        bad = copy(hand_tree)
        target = bad.children[0].children[0].children[1]   # the scale-6 leaf
        assert target.leaf_outcome == (4, 6.0)
        target.coeffs = target.coeffs * (1 + 1e-3)
        target.leaf_outcome = (4, 6.0 * (1 + 1e-3))
        report = verify_tree(bad, m_seven)
        assert not report.passed
        assert not report.checks["node-sum"].passed
        assert 1e-4 < report.checks["node-sum"].worst_residual < 1e-1

    def test_wrong_acting_party_detected(self, hand_tree, m_seven):
        def relabel(n):
            party = n.acting_party
            if party is not None:
                party = 1 - party
            return ProtocolNode(n.coeffs, party,
                                tuple(relabel(c) for c in n.children),
                                n.leaf_outcome)

        flipped = ProtocolNode(hand_tree.coeffs, None,
                               tuple(relabel(c) for c in hand_tree.children),
                               None)
        report = verify_tree(flipped, m_seven)
        assert not report.checks["single-party-change"].passed

    def test_structural_errors_name_the_path(self, hand_tree, m_seven):
        broken = ProtocolNode(hand_tree.coeffs, None,
                              (hand_tree.children[0],
                               ProtocolNode(hand_tree.children[1].coeffs, 1, ())),
                              None)
        with pytest.raises(TreeStructureError, match="root.1"):
            verify_tree(broken, m_seven)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficient_rejected(self, hand_tree, m_seven, value):
        bad_child = hand_tree.children[1]
        coeffs = bad_child.coeffs.copy()
        coeffs[1] = value
        broken = ProtocolNode(hand_tree.coeffs, None,
                              (hand_tree.children[0],
                               ProtocolNode(coeffs, bad_child.acting_party,
                                            bad_child.children)))
        with pytest.raises(TreeStructureError, match="root.1: non-finite"):
            verify_tree(broken, m_seven)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_leaf_scale_rejected(self, m_pair, value):
        tree = synthesize(m_pair).tree
        leaf, path = tree.leaves()[0]
        leaf.leaf_outcome = (leaf.leaf_outcome[0], value)
        with pytest.raises(TreeStructureError, match=f"{path}: leaf scale"):
            verify_tree(tree, m_pair)

    def test_nan_residual_fails_its_check(self, m_pair, monkeypatch):
        tree = synthesize(m_pair).tree
        project = verify.project_factor

        def nan_residual(*args):
            x, _ = project(*args)
            return x, float("nan")

        monkeypatch.setattr(verify, "project_factor", nan_residual)
        report = verify_tree(tree, m_pair)
        check = report.checks["single-party-change"]
        assert not check.passed and np.isnan(check.worst_residual)
        assert check.detail == "root.0"
        assert not report.passed

    def test_mixed_acting_parties_rejected(self, m_pair):
        kids = (node((1, 1, 0, 0), 0, leaf=None),
                node((0, 0, 1, 1), 1, leaf=None))
        bad = node(m_pair.weights, None, kids)
        with pytest.raises(TreeStructureError):
            verify_tree(bad, m_pair)


class TestSimulate:
    def test_maximally_mixed_uniform(self, m_pair):
        cert = synthesize(m_pair)
        result = simulate(cert.tree, m_pair, np.eye(4) / 4)
        assert len(result.leaves) == 4
        for leaf in result.leaves:
            assert leaf.probability == pytest.approx(0.25, abs=1e-12)
        assert result.total_probability == pytest.approx(1.0, abs=1e-12)

    def test_probabilities_sum_to_one(self, m_pair, m_seven):
        rng = np.random.default_rng(123)
        for m in (m_pair, m_seven):
            cert = synthesize(m)
            for _ in range(10):
                rho = random_density_matrix(m.total_dim, rng)
                result = simulate(cert.tree, m, rho)
                assert abs(result.total_probability - 1.0) < 1e-9

    def test_aggregation_matches_direct(self, hand_tree, m_seven):
        rng = np.random.default_rng(321)
        for _ in range(20):
            rho = random_density_matrix(4, rng)
            result = simulate(hand_tree, m_seven, rho)
            dev = np.abs(result.outcome_probabilities
                         - result.direct_probabilities).max()
            assert dev < 1e-8

    def test_mixed_state_aggregation(self, hand_tree, m_seven):
        result = simulate(hand_tree, m_seven, np.eye(4) / 4)
        traces = np.array([np.trace(op).real / 4
                           for op in m_seven.outcome_operators])
        assert np.abs(result.direct_probabilities
                      - m_seven.weights * traces).max() < 1e-12

    def test_sampling_reproducible(self, m_pair):
        cert = synthesize(m_pair)
        a = simulate(cert.tree, m_pair, np.eye(4) / 4, trials=500,
                     rng=np.random.default_rng(9))
        b = simulate(cert.tree, m_pair, np.eye(4) / 4, trials=500,
                     rng=np.random.default_rng(9))
        assert [l.count for l in a.leaves] == [l.count for l in b.leaves]
        assert sum(l.count for l in a.leaves) == 500

    def test_bad_state_rejected(self, m_pair):
        cert = synthesize(m_pair)
        with pytest.raises(ValueError):
            simulate(cert.tree, m_pair, np.eye(4))         # trace 4
        with pytest.raises(ValueError):
            simulate(cert.tree, m_pair, np.diag([1.5, -0.5, 0, 0]).astype(complex))
