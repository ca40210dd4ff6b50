import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import audit_instances, node, unchecked
from locc_forge import conditional_basis, qubit_pair, seven_outcome_family, synthesize
from locc_forge import measurement, operators, verify
from locc_forge.catalog import _haar_unitary
from locc_forge.engine import ProtocolNode
from locc_forge.errors import (
    IncompleteMeasurementError,
    MeasurementFormatError,
    TreeStructureError,
)
from locc_forge.measurement import SeparableMeasurement
from locc_forge.tolerances import PSD_TOL, RESIDUAL_TOL
from locc_forge.verify import (
    CheckResult,
    VerificationReport,
    random_density_matrix,
    simulate,
    verify_tree,
)
from oracles import (
    chain_edge_values,
    dense_check_values,
    dense_verify_tree,
    max_norm,
    per_node_product_and_positivity,
    svd_cut_values,
)

LINEAR_CHECKS = ("root-completeness", "node-sum", "descendant-leaf-sum", "leaf-match")


class TestVerifyTree:
    def test_synthesized_trees_pass(self, m_pair, m_seven):
        for m in (m_pair, m_seven):
            cert = synthesize(m)
            report = verify_tree(cert.tree, m)
            assert report.passed
            assert report.checks["node-sum"].worst_residual < 1e-8

    def test_batched_checks_match_per_node_reference(self, hand_tree, m_seven):
        """Product structure and positivity, decided from per-cut cores and
        a Weyl bound on stacks of nodes, give the values of a node-by-node
        computation within 1e-12, and its locations where a check fails,
        also on a three-party tree and on a tampered one."""
        m3 = conditional_basis(3, 3, 7)
        tree3 = synthesize(m3).tree
        bad = ProtocolNode(hand_tree.coeffs, None, (
            hand_tree.children[0],
            ProtocolNode(np.array([1.0, 0, 0, 2, 0, 1, 0]), 1,
                         hand_tree.children[1].children, None)), None)
        for tree, m in ((tree3, m3), (hand_tree, m_seven), (bad, m_seven)):
            report = verify_tree(tree, m)
            product, negative = per_node_product_and_positivity(tree, m)
            for got, (value, at) in ((report.checks["product-structure"], product),
                                     (report.checks["positivity"], negative)):
                assert abs(got.worst_residual - value) <= 1e-12
                if not got.passed:
                    assert got.detail == at
        got = verify_tree(bad, m_seven).checks["product-structure"]
        assert not got.passed and got.detail == "root.1"

    def test_single_outcome_nodes_are_exact_products(self, m_seven):
        """A node on one outcome is c_j O_j, whose Schmidt ratio is exactly 0
        on every cut, from the bound and from the SVD fallback alike, also
        where both leave roundoff."""
        for m in (m_seven, conditional_basis(3, 3, 7)):
            coeffs = np.diag(np.linspace(0.5, 3.0, m.n_outcomes))
            multi = np.count_nonzero(coeffs, axis=1) >= 2
            for p in range(len(m.parties) if len(m.parties) > 2 else 1):
                cut = verify._cut_cores(m, p, coeffs)
                sigma = np.linalg.svd(cut, compute_uv=False)
                assert np.array_equal(verify._schmidt_ratios(sigma, multi),
                                      np.zeros(m.n_outcomes))
                assert np.array_equal(verify._rank_one(cut, multi)[0], np.zeros(m.n_outcomes))
                assert (sigma[:, 1] > 0).any()
                assert (verify._rank_one(cut, ~multi)[0] > 0).any()

    def test_two_outcome_non_product_node_caught(self, hand_tree, m_seven):
        bad = copy_tree(hand_tree)
        target = bad.children[1].children[0].children[0]
        target.coeffs = np.array([0, 2.0, 0, 0, 6.0, 0, 0])
        report = verify_tree(bad, m_seven)
        got = report.checks["product-structure"]
        product, _ = per_node_product_and_positivity(bad, m_seven)
        assert not got.passed and got.detail == product[1] == "root.1.0.0"
        assert abs(got.worst_residual - product[0]) <= 1e-12

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

    def test_structural_error_names_the_first_bad_node_in_walk_order(self, hand_tree,
                                                                      m_seven):
        """With two bad nodes, the error names the one first in walk order,
        also where the later node fails a check that comes earlier at each
        node; one node failing two checks names the earlier check."""
        def broken(*edits):
            tree = copy_tree(hand_tree)
            for path, name, value in edits:
                target = tree
                for i in path:
                    target = target.children[i]
                setattr(target, name, value)
            return tree

        cases = [
            (broken(((0, 0, 0, 1), "leaf_outcome", (9, 3.0)),
                    ((1,), "coeffs", np.ones(3))),
             "root.0.0.0.1: leaf outcome index 9 out of range"),
            (broken(((0, 1), "acting_party", 1),
                    ((0, 0, 0, 0), "coeffs", -np.eye(7)[0])),
             "root.0: children disagree about who measured"),
            (broken(((0, 0, 0, 1), "leaf_outcome", None),
                    ((1, 0), "acting_party", 7), ((1, 1), "acting_party", 7)),
             "root.0.0.0.1: childless node lacks a leaf outcome"),
            (broken(((1,), "leaf_outcome", (1, 1.0)),
                    ((1,), "coeffs", np.full(7, np.inf))),
             "root.1: non-finite coefficient"),
            (broken(((0, 0), "coeffs", -np.eye(7)[0]), ((1, 1), "leaf_outcome", (9, 1.0))),
             "root.0.0: negative coefficient"),
            (broken(((0,), "coeffs", np.ones(3)), ((0, 1), "leaf_outcome", None)),
             "root.0: coefficient vector has shape (3,), expected (7,)"),
        ]
        for tree, message in cases:
            with pytest.raises(TreeStructureError) as raised:
                verify_tree(tree, m_seven)
            assert str(raised.value) == message

    def test_non_integral_indices_rejected(self, hand_tree, m_seven):
        """A leaf outcome index or acting party that is not an integer in
        range names its node, rather than being truncated to one; a NaN
        acting party shared by all the root's children names the first."""
        leaf = copy_tree(hand_tree)
        leaf.children[0].children[1].leaf_outcome = (5.5, 1.0)
        with pytest.raises(TreeStructureError, match=r"^root\.0\.1: leaf outcome index 5\.5"):
            verify_tree(leaf, m_seven)
        for value in (0.5, np.nan):
            party = copy_tree(hand_tree)
            for child in party.children:
                child.acting_party = value
            with pytest.raises(TreeStructureError,
                               match=r"^root\.0: missing or invalid acting party$"):
                verify_tree(party, m_seven)

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
        edge_residuals = verify._edge_residuals

        def nan_residual(*args):
            return np.full_like(edge_residuals(*args), np.nan)

        monkeypatch.setattr(verify, "_edge_residuals", nan_residual)
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


class TestOutcomeWeights:
    def test_share_filed_under_another_label(self, m_pair):
        """Qubit-pair plus z = P0 (x) I of weight 0: the node (1, 1, 0, 0, 0)
        is the operator O_z, so a leaf labelled z there passes every operator
        check, yet reports the shares of 0x0 and 0x1 as z's."""
        outcomes = [(o.label, o.factors) for o in m_pair.outcomes]
        outcomes.append(("z", (m_pair.outcomes[0].factors[0], np.eye(2))))
        m = SeparableMeasurement(m_pair.parties, outcomes, [*m_pair.weights, 0.0])
        A, B = 0, 1
        tree = node((1, 1, 1, 1, 0), None, [
            node((1, 1, 0, 0, 0), A, leaf=(4, 1.0)),
            node((0, 0, 1, 1, 0), A, [node((0, 0, 1, 0, 0), B, leaf=(2, 1.0)),
                                      node((0, 0, 0, 1, 0), B, leaf=(3, 1.0))]),
        ])
        report = verify_tree(tree, m)
        assert [k for k, c in report.checks.items() if not c.passed] == ["outcome-weights"]
        check = report.checks["outcome-weights"]
        assert check.detail == "0x0" and check.worst_residual == 1.0
        assert_reports_agree(report, dense_verify_tree(tree, m))


def copy_tree(n):
    return ProtocolNode(n.coeffs.copy(), n.acting_party,
                        tuple(copy_tree(c) for c in n.children), n.leaf_outcome)


def assert_reports_agree(got, want):
    """Same verdict on every check; on a failing check the same location and
    a worst residual within 1e-9 relative, on a passing one within 1e-12."""
    assert got.checks.keys() == want.checks.keys()
    for name, g in got.checks.items():
        w = want.checks[name]
        assert g.passed == w.passed, name
        if w.passed:
            assert abs(g.worst_residual - w.worst_residual) <= 1e-12, name
        else:
            assert g.detail == w.detail, name
            assert g.worst_residual == pytest.approx(w.worst_residual, rel=1e-9), name


@pytest.fixture(scope="module")
def indefinite(m_indefinite):
    """The measurement with an indefinite factor on A in two outcomes, which
    the constructor refuses, and the tree B-then-A that follows them.  Every
    check but positivity holds."""
    tree = node((1, 1, 1), None, [
        node((1, 1, 0), 1, [node((1, 0, 0), 0, leaf=(0, 1.0)),
                            node((0, 1, 0), 0, leaf=(1, 1.0))]),
        node((0, 0, 1), 1, leaf=(2, 1.0)),
    ])
    return m_indefinite, tree


def tampered_trees(hand_tree, m_seven, indefinite):
    """A non-product node, one that is a product across party 0's cut but
    not across the others, an edge that changes both factors, a wrong leaf
    scale and nodes with a negative eigenvalue."""
    non_product = ProtocolNode(hand_tree.coeffs, None, (
        hand_tree.children[0],
        ProtocolNode(np.array([1.0, 0, 0, 2, 0, 1, 0]), 1,
                     hand_tree.children[1].children, None)), None)
    m3 = conditional_basis(3, 2, 0)
    labels = m3.labels()
    eye = np.eye(m3.n_outcomes)
    groups = [[labels.index(a), labels.index(b)]
              for a, b in (("0-0-0", "0-1-1"), ("0-0-1", "0-1-0"))]
    groups.append([j for j in range(m3.n_outcomes) if labels[j][0] == "1"])
    across_rest = node(m3.weights, None, [
        node(eye[g].sum(axis=0), 0, [node(eye[j], 1, leaf=(j, 1.0)) for j in g])
        for g in groups])
    w = m_seven.weights
    one_round = node(w, None, [node(w[j] * np.eye(len(w))[j], 0, leaf=(j, w[j]))
                               for j in range(len(w))])
    wrong_scale = copy_tree(hand_tree)
    leaf = wrong_scale.children[0].children[0].children[1]
    leaf.leaf_outcome = (leaf.leaf_outcome[0], 6.5)
    return [(non_product, m_seven), (across_rest, m3), (one_round, m_seven),
            (wrong_scale, m_seven), indefinite[::-1]]


class TestAgainstDenseVerifier:
    """The factor-space verifier against the dense one it replaced."""

    @pytest.fixture(scope="class")
    def found(self):
        ms = [qubit_pair()] + [seven_outcome_family(s) for s in range(10)]
        for seed in (0, 1):
            ms += [conditional_basis(n, d, seed)
                   for n, d in ((3, 4), (5, 2), (2, 4), (2, 5), (2, 6))]
        ms += [conditional_basis(n, d, 0) for n, d in ((3, 3), (4, 2), (4, 3))]
        return [(synthesize(m).tree, m) for m in ms]

    def test_found_trees(self, found):
        assert len(found) == 24
        for tree, m in found:
            report = verify_tree(tree, m)
            assert report.passed, report.lines()
            assert_reports_agree(report, dense_verify_tree(tree, m))

    def test_tampered_trees(self, hand_tree, m_seven, indefinite):
        expected_failures = [("product-structure", "root.1"), ("product-structure", "root.0"),
                             ("single-party-change", "root.6"), ("leaf-match", "root.0.0.1"),
                             ("positivity", "root.0.0")]
        for i, ((tree, m), (check, at)) in enumerate(
                zip(tampered_trees(hand_tree, m_seven, indefinite), expected_failures)):
            report = verify_tree(tree, m)
            assert not report.checks[check].passed, check
            assert report.checks[check].detail == at
            want = dense_verify_tree(tree, m)
            if i == 1:          # across_rest
                want = with_tied_location(want, dense_check_values(tree, m), report,
                                          "single-party-change")
            assert_reports_agree(report, want)

    def test_edge_verdicts_match_the_chain_from_the_root(self, found, hand_tree, m_seven,
                                                         indefinite):
        """Product structure and node sums make each child's distance from
        its parent's other-parties side the LOCC edge condition.  Per edge,
        the verifier's check passes exactly where the first verifier's, a
        chain of factor fits from the root in the max norm, passes; in
        ``one_round`` that chain's worst edge is root.5, where the Frobenius
        distance's is root.6."""
        tampered = tampered_trees(hand_tree, m_seven, indefinite)
        for tree, m in found + tampered:
            edges = verify._cut_checks(verify._structural_pass(tree, m), m)[1]
            chain = chain_edge_values(tree, m)
            children = [path for _, path in tree.walk()][1:]
            assert [at for _, at in chain] == children
            assert len(edges) == len(children)
            assert ([e <= RESIDUAL_TOL for e in edges.tolist()]
                    == [r <= RESIDUAL_TOL for r, _ in chain]), children
        tree, m = tampered[2]
        assert max(chain_edge_values(tree, m), key=lambda t: t[0])[1] == "root.5"
        assert verify_tree(tree, m).checks["single-party-change"].detail == "root.6"

    def test_frobenius_residuals_bound_the_max_norm(self, found, hand_tree, m_seven,
                                                     indefinite):
        """The linear checks report Frobenius norms, which are at least the
        max-norm values they replaced."""
        for tree, m in found + tampered_trees(hand_tree, m_seven, indefinite):
            report = verify_tree(tree, m)
            before = dense_check_values(tree, m, norm=max_norm)
            for name in LINEAR_CHECKS:
                old = max((r for r, _ in before[name]), default=0.0)
                assert report.checks[name].worst_residual >= old, name


def svd_cores_sent(monkeypatch, fn, *args):
    """``fn(*args)``, and the matrices given to each ``np.linalg.svd`` call it
    made, as one stack per call."""
    sent, svd = [], np.linalg.svd

    def recording(a, *rest, **kwargs):
        sent.append(np.array(a))
        return svd(a, *rest, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", recording)
        return fn(*args), sent


def perturbed_node(tree, rng):
    """A copy of ``tree`` whose first depth-1 internal node has each
    coefficient scaled by its own factor in [1, 1.1), and that node's path."""
    bad = copy_tree(tree)
    i = next(i for i, child in enumerate(bad.children) if child.children)
    target = bad.children[i]
    target.coeffs = target.coeffs * (1 + 0.1 * rng.uniform(size=len(target.coeffs)))
    return bad, f"root.{i}"


class TestRankOneCertificate:
    """Product structure and the edge check read each core's rank-one bound,
    and take an SVD only of the cores whose bound exceeds RESIDUAL_TOL.
    Their values are those of one full SVD per core and cut
    (:func:`oracles.svd_cut_values`) within 1e-12, and every pass or fail
    is the SVD's."""

    @pytest.fixture(scope="class")
    def audited(self):
        out = []
        for m in audit_instances():
            tree = synthesize(m).tree
            if tree is not None:
                m.joint_r, m.extreme_eigenvalues        # frames built, not counted
                for p in range(len(m.parties)):
                    m.cut_r(p)
                out.append((tree, m))
        return out

    @staticmethod
    def tampered(audited):
        """Five tampered copies of every audited tree: four from
        :meth:`TestTrimmedFrames.variants` and one with a node perturbed."""
        rng = np.random.default_rng(28)
        for tree, m in audited:
            for bad in TestTrimmedFrames.variants(tree, len(m.dims))[1:]:
                yield bad, m
            yield perturbed_node(tree, rng)[0], m

    def test_honest_trees_take_no_svd(self, audited, monkeypatch):
        assert len(audited) == 97
        for tree, m in audited:
            report, sent = svd_cores_sent(monkeypatch, verify_tree, tree, m)
            assert report.passed, report.lines()
            assert sent == []
            ratios, edges = verify._cut_checks(verify._structural_pass(tree, m), m)
            want_ratios, want_edges = svd_cut_values(tree, m)
            assert np.abs(ratios - want_ratios.max(axis=0)).max() <= 1e-12
            assert np.abs(edges - want_edges).max(initial=0.0) <= 1e-12

    def test_tampered_trees_take_svds_where_they_fail(self, audited, hand_tree, m_seven,
                                                      indefinite, monkeypatch):
        """Every node's and edge's pass/fail is the SVD's, a failing one
        reads the SVD's value, the report names the SVD's failing location
        or one tied with it (moving every acting party leaves children at
        exactly equal distances, such as sqrt(1 - 1/d)), and only cores
        failing on their cut are sent to an SVD."""
        trees = list(self.tampered(audited)) + tampered_trees(hand_tree, m_seven, indefinite)
        failed = {"product-structure": 0, "single-party-change": 0}
        for tree, m in trees:
            t = verify._structural_pass(tree, m)
            for p in range(len(m.parties)):     # frames built, not counted
                m.cut_r(p)
            (ratios, edges), sent = svd_cores_sent(monkeypatch, verify._cut_checks, t, m)
            per_cut, want_edges = svd_cut_values(tree, m)
            assert sum(map(len, sent)) == np.count_nonzero(per_cut > RESIDUAL_TOL)
            report = verify_tree(tree, m)
            for name, got, want, paths in (
                    ("product-structure", ratios, per_cut.max(axis=0), t.paths),
                    ("single-party-change", edges, want_edges, t.paths[1:])):
                bad = want > RESIDUAL_TOL
                assert np.array_equal(got > RESIDUAL_TOL, bad), name
                assert np.abs(got - want)[bad].max(initial=0.0) <= 1e-12, name
                assert np.abs(got - want)[~bad].max(initial=0.0) <= 1e-12, name
                check, oracle = report.checks[name], verify._worst(zip(want.tolist(), paths))
                assert check.passed == oracle.passed, name
                assert abs(check.worst_residual - oracle.worst_residual) <= 1e-12, name
                if check.detail != oracle.detail:     # an exact tie, broken by roundoff
                    assert want[paths.index(check.detail)] == pytest.approx(
                        oracle.worst_residual, rel=1e-12), name
                failed[name] += not check.passed
        assert len(trees) == 97 * 5 + 5
        assert failed == {"product-structure": 157, "single-party-change": 294}

    def test_perturbed_node_fails_product_structure_at_its_path(self, audited):
        """With three or more parties, a depth-1 node whose coefficients are
        perturbed is no product across some cut, and is named; the bound
        leaves that node to the SVD."""
        rng = np.random.default_rng(28)
        wide = [(tree, m) for tree, m in audited if len(m.parties) > 2]
        assert len(wide) == 18
        for tree, m in wide:
            bad, path = perturbed_node(tree, rng)
            check = verify_tree(bad, m).checks["product-structure"]
            assert not check.passed and check.detail == path

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 6),
           st.integers(0, 2 ** 32 - 1), st.sampled_from(["dense", "rank-one", "along"]))
    @settings(max_examples=300, deadline=None)
    @example(8, 8, 2, 2, "dense")       # a core the bound leaves to the SVD, which passes it
    def test_bound_on_perturbed_products(self, a, b, k, seed, kind):
        """Cores x y^T + E with |E|_F / |x y^T|_F = 10^U(-16, -5), E dense,
        rank one, or along x and y: the reported ratio is at least the SVD's
        sigma_2 / sigma_1, less the roundoff of about eps both carry; the
        verdict on RESIDUAL_TOL is the SVD's; every core the SVD fails is
        sent to it and reads its ratio; a core the bound settles has the
        SVD's top vectors within 1e-13."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((k, a, 1)) * 10 ** rng.uniform(-3, 3, (k, 1, 1))
        y = rng.standard_normal((k, 1, b))
        e = {"dense": lambda: rng.standard_normal((k, a, b)),
             "rank-one": lambda: rng.standard_normal((k, a, 1)) * rng.standard_normal((k, 1, b)),
             "along": lambda: (x * rng.standard_normal((k, 1, b))
                               + rng.standard_normal((k, a, 1)) * y)}[kind]()
        c = x * y
        size = 10 ** rng.uniform(-16, -5, (k, 1, 1))
        cores = c + e * size * np.linalg.norm(c, axis=(1, 2), keepdims=True) / np.linalg.norm(
            e, axis=(1, 2), keepdims=True)
        multi = np.ones(k, dtype=bool)
        with pytest.MonkeyPatch.context() as patch:
            (ratios, left, right), sent = svd_cores_sent(patch, verify._rank_one, cores, multi)
        u, sigma, vh = np.linalg.svd(cores)
        exact = verify._schmidt_ratios(sigma, multi)
        assert (ratios >= exact - 4 * np.finfo(float).eps).all()
        assert np.array_equal(ratios <= RESIDUAL_TOL, exact <= RESIDUAL_TOL)
        svd = np.array([any(np.array_equal(core, c) for stack in sent for c in stack)
                        for core in cores])
        assert svd[exact > RESIDUAL_TOL].all()
        assert np.array_equal(ratios[svd], exact[svd])
        for got, want in ((right, vh[:, 0]), (left, u[:, :, 0])):
            sign = np.sign(np.sum(got * want, axis=1))[:, None]
            assert np.abs(got - sign * want)[~svd].max(initial=0.0) <= 1e-13

    def test_zero_core_goes_to_the_svd(self, monkeypatch):
        cores = np.zeros((2, 3, 4))
        cores[1, 0, 0] = 2.0
        (ratios, left, right), sent = svd_cores_sent(
            monkeypatch, verify._rank_one, cores, np.array([True, True]))
        assert len(sent) == 1 and np.array_equal(sent[0], cores[:1])
        assert np.array_equal(ratios, [0.0, 0.0])
        assert np.abs(right[1]).tolist() == [1.0, 0.0, 0.0, 0.0]


class TestTrimmedFrames:
    """Where a party's frame has fewer rows than min(d^2, n + 1), every
    check's residual is the dense verifier's within 1e-12, and a failing
    check's location is the dense one or ties with it (see
    :func:`with_tied_location`), on found trees and tampered ones."""

    @staticmethod
    def variants(tree, n_parties):
        """The tree, then: a leaf scale 1% high, every acting party moved to
        the next party, the root's first two children trading their second
        children (each a sum of two products) and the root's first child
        0.1% high."""
        scaled = copy_tree(tree)
        leaf = scaled.leaves()[0][0]
        leaf.leaf_outcome = (leaf.leaf_outcome[0], leaf.leaf_outcome[1] * 1.01)

        def moved(n):
            party = None if n.acting_party is None else (n.acting_party + 1) % n_parties
            return ProtocolNode(n.coeffs, party, tuple(moved(c) for c in n.children),
                                n.leaf_outcome)

        def regroup(n, kids):
            return ProtocolNode(sum(k.coeffs for k in kids), n.acting_party, kids)

        a, b, *rest = tree.children
        traded = ProtocolNode(tree.coeffs, None, (
            regroup(a, (a.children[0], b.children[1]) + a.children[2:]),
            regroup(b, (b.children[0], a.children[1]) + b.children[2:]), *rest))
        high = copy_tree(tree)
        high.children[0].coeffs = high.children[0].coeffs * 1.001
        return [tree, scaled, moved(tree), traded, high]

    @pytest.mark.parametrize("shape, rows", [((2, 5, 1), [5, 21]),
                                             ((5, 2, 0), [2, 3, 4, 4, 4])])
    def test_against_dense_verifier(self, shape, rows):
        m = conditional_basis(*shape)
        assert [len(r) for r in m.party_rs] == rows
        assert any(k < min(d * d, m.n_outcomes + 1) for k, d in zip(rows, m.dims))
        failing = []
        for tree in self.variants(synthesize(m).tree, len(m.dims)):
            got, want = verify_tree(tree, m), dense_verify_tree(tree, m)
            values = dense_check_values(tree, m)
            assert got.checks.keys() == want.checks.keys()
            for name, g in got.checks.items():
                w = want.checks[name]
                assert g.passed == w.passed, name
                assert abs(g.worst_residual - w.worst_residual) <= 1e-12, name
                if not w.passed:            # the same location, or a tie
                    with_tied_location(want, values, got, name)
            failing.append(sorted(name for name, g in got.checks.items() if not g.passed))
        assert failing == [[], ["leaf-match", "outcome-weights"], ["single-party-change"],
                           ["product-structure", "single-party-change"],
                           ["descendant-leaf-sum", "node-sum"]]

    @pytest.mark.parametrize("excess", [0.0, 0.01])
    def test_one_outcome_scaled_up(self, excess):
        """One outcome's factor 1e10 times larger and its weight 1e10 times
        smaller leave the measurement and, with that outcome's coefficients
        and leaf scales scaled down to match, the tree as they were: the
        completeness residual and every check read as the dense ones do,
        and the weights are inferred back.  With the scaled outcome's weight
        ``excess`` too high, the constructor refuses the measurement as
        incomplete, while the tree, whose root carries the complete weights,
        still passes against it (built without the constructor)."""
        m, j, big = conditional_basis(2, 5, 1), 3, 1e10
        tree = synthesize(m).tree
        weights = m.weights.copy()
        weights[j] *= (1 + excess) / big
        outcomes = [(o.label, (o.factors[0] * (big if i == j else 1.0),) + o.factors[1:])
                    for i, o in enumerate(m.outcomes)]
        scaled = unchecked(m.parties, outcomes, weights)
        down = np.where(np.arange(m.n_outcomes) == j, 1 / big, 1.0)

        def scaled_down(n):
            leaf = n.leaf_outcome and (n.leaf_outcome[0],
                                       n.leaf_outcome[1] * down[n.leaf_outcome[0]])
            return ProtocolNode(n.coeffs * down, n.acting_party,
                                tuple(scaled_down(c) for c in n.children), leaf)

        ops = scaled.outcome_operators
        dense = np.linalg.norm(np.einsum("j,jab->ab", weights, ops) - np.eye(len(ops[0])))
        residual = float(np.linalg.norm(scaled.joint_r @ np.append(weights, -1.0)))
        assert abs(residual - dense) <= 1e-12
        if excess:
            with pytest.raises(IncompleteMeasurementError, match=f"residual {residual:.3e}"):
                SeparableMeasurement(m.parties, outcomes, weights)
        else:
            scaled = SeparableMeasurement(m.parties, outcomes, weights)
            inferred = SeparableMeasurement(scaled.parties, scaled.outcomes).weights
            assert np.abs(inferred / down - m.weights).max() <= 1e-10
        tree = scaled_down(tree)
        got, want = verify_tree(tree, scaled), dense_verify_tree(tree, scaled)
        for name, g in got.checks.items():
            assert g.passed == want.checks[name].passed, name
            assert abs(g.worst_residual - want.checks[name].worst_residual) <= 1e-12, name
        assert got.passed, got.lines()


def with_tied_location(want, values, got, name):
    """``want`` with check ``name``'s location moved to ``got``'s, which must
    hold a dense residual equal to the dense worst within 1e-12 relative.
    Such a tie is exact, and roundoff breaks it either way: in
    ``across_rest`` six children are at distance 1/sqrt(2) from their
    parents' sides."""
    w, g = want.checks[name], got.checks[name]
    assert dict((at, r) for r, at in values[name])[g.detail] == pytest.approx(
        w.worst_residual, rel=1e-12)
    return VerificationReport({**want.checks, name: CheckResult(w.passed, w.worst_residual,
                                                                 g.detail)})


class TestLocalUnitaries:
    def test_residuals_and_locations_kept(self, hand_tree, m_seven, indefinite):
        """Conjugating every factor by a local unitary moves no check's worst
        residual (beyond roundoff) and no failing location: every operator
        check is a unitarily invariant norm."""
        rng = np.random.default_rng(11)
        us = [_haar_unitary(d, rng) for d in m_seven.dims]
        moved = SeparableMeasurement(
            m_seven.parties,
            [(o.label, [u @ f @ u.conj().T for u, f in zip(us, o.factors)])
             for o in m_seven.outcomes],
            m_seven.weights)
        trees = tampered_trees(hand_tree, m_seven, indefinite)
        for tree, _ in (trees[3], trees[2]):         # wrong_scale, one_round
            before, after = verify_tree(tree, m_seven), verify_tree(tree, moved)
            assert not before.passed
            for name, b in before.checks.items():
                a = after.checks[name]
                assert a.passed == b.passed, name
                assert a.worst_residual == pytest.approx(b.worst_residual, rel=1e-9,
                                                         abs=1e-12), name
                if not b.passed:
                    assert a.detail == b.detail, name


class TestFactorSpace:
    def test_no_joint_operator_formed(self, monkeypatch):
        """On conditional basis 4x3 the Weyl bound settles every node, so
        the verifier forms no D x D operator."""
        m = conditional_basis(4, 3, 0)
        tree = synthesize(m).tree
        calls = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        for module in (operators, measurement):
            monkeypatch.setattr(module, "tensor", counting("tensor", operators.tensor))
        monkeypatch.setattr(verify, "reconstruct", counting("reconstruct", verify.reconstruct))
        assert verify_tree(tree, m).passed
        assert calls == []
        assert "outcome_operators" not in m.__dict__


class TestPositivityBound:
    @staticmethod
    def run(tree, m, monkeypatch):
        """The report, and the number of operators whose eigenvalues it took."""
        sent = []
        negativity = verify._negativity

        def recording(ops):
            sent.append(len(ops))
            return negativity(ops)

        monkeypatch.setattr(verify, "_negativity", recording)
        return verify_tree(tree, m), sum(sent)

    @staticmethod
    def open_nodes(tree, m):
        """Nodes whose Weyl bound, from each dense outcome operator's
        extreme eigenvalues, does not prove positivity."""
        eigs = np.linalg.eigvalsh(m.outcome_operators)
        low, high = eigs[:, 0], eigs[:, -1]
        out = []
        for n, path in tree.walk():
            c = np.asarray(n.coeffs, float)
            if not -np.where(c >= 0, c * low, c * high).sum() <= PSD_TOL:
                out.append(path)
        return out

    def test_indefinite_factor_falls_back(self, indefinite, monkeypatch):
        m, tree = indefinite
        with pytest.raises(MeasurementFormatError, match="not positive semidefinite"):
            SeparableMeasurement(m.parties, m.outcomes, m.weights)
        report, sent = self.run(tree, m, monkeypatch)
        assert self.open_nodes(tree, m) == ["root", "root.0", "root.0.0", "root.0.1"]
        assert sent == 4
        got = report.checks["positivity"]
        want = dense_verify_tree(tree, m).checks["positivity"]
        assert not got.passed
        assert (got.worst_residual, got.detail) == (want.worst_residual, want.detail)
        assert got.detail == "root.0.0"
        assert got.worst_residual == pytest.approx(0.5 / 1.5, rel=1e-12)

    def test_large_outcome_reaches_the_exact_fallback(self, m_pair, monkeypatch):
        """On a measurement the constructor accepts, a coefficient of -1e-12
        on an outcome a million times larger leaves the Weyl bound open by
        1e-6, and the exact eigenvalues find the node negative: the fallback
        does not depend on input the constructor refuses."""
        big, j = 1e6, 1
        w = m_pair.weights.copy()
        w[j] /= big
        m = SeparableMeasurement(m_pair.parties, [
            (o.label, (o.factors[0] * (big if i == j else 1.0), o.factors[1]))
            for i, o in enumerate(m_pair.outcomes)], w)
        tree = synthesize(m).tree
        leaf, path = next((n, at) for n, at in tree.leaves() if n.leaf_outcome[0] == 0)
        leaf.coeffs[j] = -1e-12
        report, sent = self.run(tree, m, monkeypatch)
        assert self.open_nodes(tree, m) == [path]
        assert sent == 1
        got = report.checks["positivity"]
        want = dense_verify_tree(tree, m).checks["positivity"]
        assert not got.passed
        assert got.detail == want.detail == path
        assert got.worst_residual == pytest.approx(want.worst_residual, rel=1e-9)
        assert got.worst_residual == pytest.approx(1e-6, rel=1e-9)

    def test_slightly_negative_coefficient_closed_by_bound(self, m_pair, monkeypatch):
        tree = synthesize(m_pair).tree
        leaf, _ = tree.leaves()[0]
        j = leaf.leaf_outcome[0]
        leaf.coeffs[(j + 1) % len(leaf.coeffs)] = -1e-13
        report, sent = self.run(tree, m_pair, monkeypatch)
        assert self.open_nodes(tree, m_pair) == []
        assert sent == 0
        got = report.checks["positivity"]
        want = dense_verify_tree(tree, m_pair).checks["positivity"]
        assert got.passed and want.passed
        assert 0 < got.worst_residual <= 1e-12
        assert abs(got.worst_residual - want.worst_residual) <= 1e-12
        assert got.detail == want.detail == ""


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

    def test_probabilities_match_dense_traces(self):
        """Leaf and direct probabilities, taken from one contraction of the
        state with the factor stacks, equal Tr(O rho) on dense operators for
        complex factors on three parties."""
        m = conditional_basis(3, 2, 0)
        tree = synthesize(m).tree
        rho = random_density_matrix(m.total_dim, np.random.default_rng(5))
        result = simulate(tree, m, rho)
        ops = m.outcome_operators
        direct = m.weights * np.einsum("jab,ba->j", ops, rho).real
        assert np.abs(result.direct_probabilities - direct).max() < 1e-14
        for leaf, (node, _) in zip(result.leaves, tree.leaves()):
            want = np.einsum("j,jab,ba->", node.coeffs, ops, rho).real
            assert abs(leaf.probability - want) < 1e-14

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
