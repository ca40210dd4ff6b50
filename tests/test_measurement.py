import re

import numpy as np
import pytest

from conftest import EYE2, P0, P1, audit_instances, split_outcome, unchecked
from locc_forge import (
    Party,
    SeparableMeasurement,
    Verdict,
    check_root,
    conditional_basis,
    qubit_pair,
    synthesize,
)
from locc_forge.tolerances import HERMITICITY_TOL, MARGINAL_RANK_BAND, RANK_FACTOR, RESIDUAL_TOL
from locc_forge.verify import verify_tree
from locc_forge.errors import IncompleteMeasurementError, MeasurementFormatError
from locc_forge.io import measurement_from_dict, measurement_to_dict
from locc_forge.measurement import complement_span, identity_r, local_span
from locc_forge.operators import as_hermitian, tensor
from oracles import (
    complement_factors,
    greedy_svd_independent_subset,
    lstsq_completeness_weights,
    nnls_completeness_weights,
    per_factor_refusal,
    per_factor_validation,
)

SEVEN_WEIGHTS = np.array([2.0, 2.0, 3.0, 2.0, 6.0, 1.0, 1.0])


def factor_stacks(m):
    return [m.local_factors(q) for q in range(len(m.parties))]


def residual_of(m):
    """|sum_j w_j O_j - I| in the Frobenius norm, read through the joint R as
    the constructor reads it."""
    return float(np.linalg.norm(m.joint_r @ np.append(m.weights, -1.0)))


class TestValidate:
    """The constructor refuses a factor that is not positive semidefinite and
    a weighted outcome sum that misses the identity, and names where."""

    def test_catalog_measurements_valid(self, catalog_all):
        for name, m in catalog_all.items():
            violations, residual = per_factor_validation(m)
            assert violations == [], name
            assert residual < 1e-8 and residual_of(m) < 1e-8

    def test_seven_outcome_weights(self, m_seven):
        assert np.array_equal(m_seven.weights, SEVEN_WEIGHTS)
        assert per_factor_validation(m_seven)[0] == []

    def test_incomplete_weights_are_refused(self):
        # the given weights miss completeness, and with none given no
        # nonnegative weights reach it: both refused, located at outcomes
        parties, outcomes = [Party("A", 2), Party("B", 2)], [("x", (P0, P0)), ("y", (P1, EYE2))]
        for weights in ([1.0, 1.0], None):
            with pytest.raises(IncompleteMeasurementError, match="incomplete") as err:
                SeparableMeasurement(parties, outcomes, weights)
            assert isinstance(err.value, MeasurementFormatError)
            assert err.value.location == "outcomes"
            assert "residual 1.000e+00" in str(err.value)     # |P0 (x) P1|

    def test_all_zero_weights_are_incomplete(self, m_pair):
        # no separate "a weight must be positive" rule: completeness refuses
        # all-zero weights, whose sum misses I by |I| = sqrt(D)
        outcomes = [(o.label, o.factors) for o in m_pair.outcomes]
        with pytest.raises(IncompleteMeasurementError) as err:
            SeparableMeasurement(m_pair.parties, outcomes, np.zeros(m_pair.n_outcomes))
        assert err.value.location == "outcomes"
        assert f"residual {np.sqrt(m_pair.total_dim):.3e}" in str(err.value)

    def test_nan_residual_is_a_violation(self):
        # finite entries whose product overflows: 0 * inf puts NaN in the sum
        huge = 1e200 * EYE2
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IncompleteMeasurementError, match="residual nan") as err:
                SeparableMeasurement(
                    [Party("A", 2), Party("B", 2)],
                    [("x", (P0, EYE2)), ("y", (P1, EYE2)), ("z", (huge, huge))],
                    np.array([1.0, 1.0, 0.0]))
        assert err.value.location == "outcomes"

    def test_completeness_measured_as_the_verifier_does(self):
        """Weights scaled by 1 + delta leave delta I, whose Frobenius norm is
        2 delta on the qubit pair.  The constructor and the verifier's root
        check read the same residual, so a measurement that is accepted gets
        a verified tree, also where the max norm (delta) would have accepted
        it and the Frobenius norm does not."""
        m0 = qubit_pair()
        ok = []
        for delta in (0.3, 0.49, 0.51, 0.6, 1.0):
            delta *= RESIDUAL_TOL
            try:
                m = SeparableMeasurement(m0.parties, m0.outcomes, m0.weights * (1 + delta))
            except IncompleteMeasurementError as exc:
                assert f"residual {2 * delta:.3e}" in str(exc)
                ok.append(False)
                continue
            ok.append(True)
            assert residual_of(m) == pytest.approx(2 * delta, rel=1e-6)
            cert = synthesize(m)
            assert cert.verdict == Verdict.PROTOCOL_FOUND
            root = verify_tree(cert.tree, m).checks["root-completeness"].worst_residual
            assert root == pytest.approx(residual_of(m), rel=1e-12)
        assert ok == [True, True, False, False, False]

    def test_negative_factor_reported_with_magnitude(self):
        bad = np.array([[1.0, 0.0], [0.0, -0.5]], dtype=complex)
        for weights in ([1.0, 1.0], None):
            with pytest.raises(MeasurementFormatError,
                               match=r"smallest eigenvalue -5\.000e-01") as err:
                SeparableMeasurement([Party("A", 2), Party("B", 2)],
                                     [("x", (bad, EYE2)), ("y", (EYE2 - bad, EYE2))], weights)
            assert err.value.location == "outcomes[0].factors[0]"

    def test_reports_equal_the_per_factor_oracle(self, m_indefinite):
        """The constructor reads one eigvalsh per party's factor stack, and
        the oracle one per factor.  The two spectra agree bitwise, so the
        negative factors' magnitudes are compared exactly.  The constructor
        names the first negative factor in (outcome, party) order, which the
        three-party case does not share with party order: refusing and
        replacing each named factor in turn walks the oracle's list."""
        bad = np.array([[1.0, 0.0], [0.0, -0.5]], dtype=complex)
        two = [Party("A", 2), Party("B", 2)]
        cases = [
            (two, [("x", (bad, EYE2)), ("y", (EYE2 - bad, EYE2))], [1.0, 1.0]),
            (m_indefinite.parties, m_indefinite.outcomes, m_indefinite.weights),
            ([*two, Party("C", 2)], [("x", (EYE2, bad, EYE2)), ("y", (bad, P0, 2 * bad)),
                                     ("z", (P1, EYE2, -bad))], np.ones(3)),
        ]
        walked = []
        for parties, outcomes, weights in cases:
            m = unchecked(parties, outcomes, weights)
            want, residual = per_factor_validation(m)
            assert abs(residual_of(m) - residual) <= 1e-13
            factors = [list(f) for _, f in outcomes]
            got = []
            while True:
                try:
                    SeparableMeasurement(parties, [(o[0], f) for o, f in zip(outcomes, factors)],
                                         weights)
                except IncompleteMeasurementError:
                    break
                except MeasurementFormatError as exc:
                    j, k = map(int, re.fullmatch(r"outcomes\[(\d+)\]\.factors\[(\d+)\]",
                                                 exc.location).groups())
                    eig = m._factor_spectra[k][j, 0]
                    assert f"smallest eigenvalue {eig:.3e}" in str(exc)
                    got.append(("negative factor", exc.location, float(eig)))
                    factors[j][k] = EYE2
                else:
                    break
            assert got == [v for v in want if v[0] == "negative factor"]
            walked.append([v[1] for v in want])
        assert walked[2] == ["outcomes[0].factors[1]", "outcomes[1].factors[0]",
                             "outcomes[1].factors[2]", "outcomes[2].factors[2]", "outcomes"]

    def test_refusals_equal_the_per_factor_oracle(self):
        """Defects of every kind, mixed across outcomes and parties, are
        refused one at a time as the per-factor oracle refuses them: each
        outcome's factors in party order, a factor's numbers before its
        party's dimension, an outcome's factors before its label, and
        positivity after every outcome.  The constructor checks shapes in a
        pass over the outcomes and numbers in one pass per party's stack, so
        a structural defect must not be named before a numeric one that
        comes first.  Each cell lists the values its factor or label takes
        in turn, and a refusal advances the cell it names.  In the
        three-party case, party order would name outcomes[3].factors[0]
        before outcomes[2].factors[2]."""
        shape, eye3 = np.zeros((2, 3)), np.eye(3)
        skew, skew3 = np.triu(np.ones((2, 2))), np.triu(np.ones((3, 3)))
        nan, neg = np.array([[1.0, np.nan], [np.nan, 1.0]]), np.diag([1.0, -0.5])
        huge = np.array([[1.7e308, 1.7e308], [1.7e308, -1.7e308]])   # (a + a^H) / 2 overflows
        cases = [
            ([Party("A", 2), Party("B", 2)],
             [(["x"], [[EYE2], [skew, P0]]),
              (["y"], [[shape, P1], [EYE2]]),
              (["z"], [[neg, P0], [P1]]),
              (["x", "w"], [[P0], [nan, P1]]),
              (["v"], [[huge, P1], [skew3, eye3, P0]])],
             ["outcomes[0].factors[1]", "outcomes[1].factors[0]", "outcomes[3].factors[1]",
              "outcomes[3].label", "outcomes[4].factors[0]", "outcomes[4].factors[1]",
              "outcomes[4].factors[1]", "outcomes[2].factors[0]"]),
            ([Party(c, 2) for c in "ABC"],
             [(["x"], [[EYE2], [EYE2], [nan, EYE2]]),
              (["x", "y"], [[shape, EYE2], [EYE2], [huge, EYE2]]),
              (["u"], [[neg, EYE2], [skew3, eye3, P0], [nan, EYE2]]),
              (["t"], [[skew, EYE2], [EYE2], [EYE2]])],
             ["outcomes[0].factors[2]", "outcomes[1].factors[0]", "outcomes[1].factors[2]",
              "outcomes[1].label", "outcomes[2].factors[1]", "outcomes[2].factors[1]",
              "outcomes[2].factors[2]", "outcomes[3].factors[0]", "outcomes[2].factors[0]"]),
        ]
        for parties, cells, want in cases:
            walked = []
            while True:
                outcomes = [(label[0], [f[0] for f in factors]) for label, factors in cells]
                refusal = per_factor_refusal(parties, outcomes)
                if refusal is None:
                    break
                with pytest.raises(MeasurementFormatError) as err:
                    SeparableMeasurement(parties, outcomes, np.ones(len(outcomes)))
                assert (err.value.location, err.value.detail) == refusal
                j, k = re.fullmatch(r"outcomes\[(\d+)\]\.(?:label|factors\[(\d+)\])",
                                    refusal[0]).groups()
                label, factors = cells[int(j)]
                (label if k is None else factors[int(k)]).pop(0)
                walked.append(refusal[0])
            assert walked == want
            try:        # no defect left: accepted or, at most, incomplete
                SeparableMeasurement(parties, outcomes, np.ones(len(outcomes)))
            except IncompleteMeasurementError:
                pass

    def test_zero_spans_are_refused_as_incomplete(self):
        """A party whose factors are all zero, or a cut whose other parties'
        factors are, makes every outcome operator zero: the weighted sum
        misses the identity by its Frobenius norm sqrt(D), whatever the
        weights, so no span without a frame reaches the search."""
        two, three = [Party("A", 2), Party("B", 2)], [Party(c, 2) for c in "ABC"]
        cases = [  # A's factors are zero; every outcome has a zero factor on B or C
            (two, [("0", (0 * EYE2, P0)), ("1", (0 * EYE2, P1))], "2.000e+00"),
            (three, [("0", (P0, 0 * EYE2, P0)), ("1", (P1, P0, 0 * EYE2))], "2.828e+00"),
        ]
        for parties, outcomes, sqrt_d in cases:
            for weights in ([1.0, 1.0], None):
                with pytest.raises(IncompleteMeasurementError,
                                   match=re.escape(f"residual {sqrt_d}")) as err:
                    SeparableMeasurement(parties, outcomes, weights)
                assert err.value.location == "outcomes"


def inferred(m):
    """The weights the constructor infers for ``m``'s parties and outcomes."""
    return SeparableMeasurement(m.parties, m.outcomes).weights


class TestInferWeights:
    """Weights omitted from the constructor are inferred by nonnegative least
    squares on the measurement's joint R."""

    def test_qubit_pair(self, m_pair):
        assert np.abs(inferred(m_pair) - 1.0).max() < 1e-10

    def test_phase_five_uniform(self, m_phase):
        # cross-check with an unconstrained least-squares oracle
        oracle = lstsq_completeness_weights(m_phase.outcome_operators)
        assert np.abs(oracle - 0.8).max() < 1e-10
        assert np.abs(inferred(m_phase) - 0.8).max() < 1e-8

    def test_seven_outcome_family(self, m_seven):
        oracle = lstsq_completeness_weights(m_seven.outcome_operators)
        assert np.abs(oracle - SEVEN_WEIGHTS).max() < 1e-8
        assert np.abs(inferred(m_seven) - SEVEN_WEIGHTS).max() < 1e-8

    def test_incomplete_rejected(self):
        with pytest.raises(IncompleteMeasurementError):
            SeparableMeasurement([Party("A", 2), Party("B", 2)],
                                 [("x", (P0, P0)), ("y", (P0, P1))])

    def test_completeness_in_the_frobenius_norm(self):
        """One outcome (I + eps Z) (x) I leaves eps Z (x) I at best, max norm
        eps and Frobenius norm 2 eps: the inferred weights are refused
        exactly where the Frobenius norm exceeds the tolerance."""
        z = np.diag([1.0, -1.0])
        parties = [Party("A", 2), Party("B", 2)]
        for eps, ok in ((0.4 * RESIDUAL_TOL, True), (0.6 * RESIDUAL_TOL, False)):
            outcomes = [("x", (EYE2 + eps * z, EYE2))]
            if ok:
                m = SeparableMeasurement(parties, outcomes)
                assert residual_of(m) == pytest.approx(2 * eps, rel=1e-6)
            else:
                with pytest.raises(IncompleteMeasurementError):
                    SeparableMeasurement(parties, outcomes)

    def test_completeness_residual_after_inference(self, catalog_all):
        for m in catalog_all.values():
            total = np.einsum("j,jab->ab", inferred(m), m.outcome_operators)
            assert np.linalg.norm(total - np.eye(m.total_dim)) < 1e-8

    @pytest.mark.parametrize("shape", [None, (3, 4), (4, 3)])
    def test_equals_scipy_nnls_on_the_whole_system(self, shape, catalog_all):
        # the constructor solves on the joint R of the parties' factors
        ms = catalog_all.values() if shape is None else [conditional_basis(*shape, 0)]
        for m in ms:
            ops = m.outcome_operators
            assert np.abs(inferred(m) - nnls_completeness_weights(ops)).max() <= 1e-10


class TestFrames:
    """Each party's frame has one row per dimension of the span of its
    factors and the identity, and keeps their trace pairings."""

    @pytest.mark.parametrize("d", [2, 3, 5, 6, 8])
    def test_two_party_rows_are_span_dimensions(self, d):
        # party 0 measures one basis, which sums to I; party 1 one basis per
        # outcome of party 0, each summing to I
        rs = conditional_basis(2, d, 0).party_rs
        assert [len(r) for r in rs] == [d, d * d - d + 1]

    def test_four_party_rows_are_span_dimensions(self):
        assert [len(r) for r in conditional_basis(4, 3, 0).party_rs] == [3, 7, 9, 9]

    def test_cut_rows_are_span_dimensions(self):
        # product_r alone keeps padded rows: the trim leaves the side's span
        for m in (conditional_basis(4, 3, 0), conditional_basis(3, 4, 1)):
            assert [len(m.cut_r(p)) for p in range(len(m.parties))] == \
                [len(complement_span(m, p)) for p in range(len(m.parties))]
        two = conditional_basis(2, 4, 0)
        assert two.cut_r(0) is two.party_rs[1] and two.cut_r(1) is two.party_rs[0]

    def test_gram_is_the_trace_pairing(self, catalog_all):
        ms = list(catalog_all.values()) + [conditional_basis(2, 6, 1),
                                           conditional_basis(3, 3, 2)]
        for m in ms:
            sides = [complement_factors(m, p) for p in range(len(m.parties))]
            cuts = [m.cut_r(p) for p in range(len(m.parties))]
            for r, factors in (*zip(m.party_rs, factor_stacks(m)), *zip(cuts, sides)):
                ops = np.concatenate([factors, np.eye(len(factors[0]))[None]])
                gram = np.einsum("iab,jba->ij", ops, ops).real
                assert r.shape[1] == m.n_outcomes + 1
                assert np.abs(r.T @ r - gram).max() <= 1e-13 * np.abs(gram).max()

    def test_each_frame_built_once_and_read_only(self, monkeypatch):
        """The construction, the root check, the search and the verifier of a
        fresh three-party measurement build each party's frame and each cut's
        side once, and none of the cached arrays can be written.  The
        constructor's completeness check builds the parties' frames and the
        joint product; the search builds the cuts' sides."""
        import locc_forge.measurement as measurement

        built = []

        def counted(name, build):
            def wrapper(*args):
                built.append(name)
                return build(*args)
            return wrapper

        for name in ("identity_r", "trimmed_r", "product_r"):
            monkeypatch.setattr(measurement, name, counted(name, getattr(measurement, name)))
        m = conditional_basis(3, 3, 0)
        built.clear()           # conditional_basis's constructor built m's frames
        fresh = SeparableMeasurement(m.parties, m.outcomes, m.weights)
        assert sorted(built) == ["identity_r"] * 3 + ["product_r"] + ["trimmed_r"] * 3
        check_root(fresh)
        cert = synthesize(fresh)
        assert verify_tree(cert.tree, fresh).passed
        # one frame per party; per cut a product of the other two, trimmed;
        # and one joint product
        assert sorted(built) == ["identity_r"] * 3 + ["product_r"] * 4 + ["trimmed_r"] * 6
        cached = [*fresh.party_rs, *map(fresh.cut_r, range(3)), fresh.joint_r,
                  fresh.extreme_eigenvalues]
        for a in cached:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 1.0

    def test_weightless_load_builds_each_frame_once(self, monkeypatch):
        """Weights inferred at load are solved on the measurement's own joint
        R, and completeness is checked on it, so loading a weightless
        three-party document builds each party's frame once and the joint
        product once."""
        import locc_forge.measurement as measurement

        built = []
        for name in ("identity_r", "product_r"):
            def wrapper(*args, name=name, build=getattr(measurement, name)):
                built.append(name)
                return build(*args)
            monkeypatch.setattr(measurement, name, wrapper)
        doc = measurement_to_dict(conditional_basis(3, 3, 0))
        for o in doc["outcomes"]:
            del o["weight"]
        built.clear()           # conditional_basis's constructor built its frames
        m = measurement_from_dict(doc)
        assert residual_of(m) <= RESIDUAL_TOL
        assert sorted(built) == ["identity_r"] * 3 + ["product_r"]

    def test_nearly_parallel_factors_keep_their_difference(self):
        """(I +- 1e-7 Z)/2 differ by 1e-7 Z, of Frobenius norm sqrt(2) 1e-7,
        far above roundoff: the frame keeps that direction."""
        z, delta = np.diag([1.0, -1.0]), 1e-7
        stack = np.stack([(np.eye(2) + delta * z) / 2, (np.eye(2) - delta * z) / 2, np.eye(2)])
        r = identity_r(stack.astype(complex))
        assert len(r) == 2
        assert np.linalg.norm(r @ [1.0, -1.0, 0.0, 0.0]) == pytest.approx(
            np.sqrt(2) * delta, rel=1e-8)
        assert np.linalg.norm(r @ [1.0, 1.0, 0.0, -1.0]) <= 1e-15


def _singular_ratio(m) -> tuple[float, float]:
    """sigma_min / sigma_max and sigma_min of the outcome operators'
    vectorizations, from one SVD of the dense stack."""
    flat = m.outcome_operators.reshape(m.n_outcomes, -1)
    sigma = np.linalg.svd(flat, compute_uv=False)
    return float(sigma[-1] / sigma[0]), float(sigma[-1])


class TestIndependenceCertificate:
    """``outcomes_independent`` certifies linear independence with room for
    the search's rank decisions, lazily."""

    @staticmethod
    def _need(m) -> tuple[float, float]:
        # rows is the largest bracket M_p = max(n, r_p (min(prod_{q != p} r_q,
        # n + 1) - 1)), which bounds the exact r_p (r_c - 1) of every cut side
        n, rs = m.n_outcomes, [len(r) for r in m.party_rs]
        rows = max(max(n, r * (min(int(np.prod(rs[:p] + rs[p + 1:])), n + 1) - 1))
                   for p, r in enumerate(rs))
        assert all(r * (len(m.cut_r(p)) - 1) <= rows for p, r in enumerate(rs))
        return 4.0 * MARGINAL_RANK_BAND * RANK_FACTOR * rows, 1e-13 * np.sqrt(2.0 * rows * n)

    def test_certified_only_with_room(self, catalog_all):
        ms = [*catalog_all.values(), conditional_basis(3, 3, 0), conditional_basis(2, 5, 1),
              split_outcome(conditional_basis(3, 2, 0), 0), split_outcome(qubit_pair(), 2)]
        verdicts = []
        for m in ms:
            ratio, sigma_min = _singular_ratio(m)
            need, floor = self._need(m)
            verdicts.append(m.outcomes_independent)
            assert m.outcomes_independent == (ratio >= need and sigma_min >= floor)
        assert verdicts == [True] * (len(ms) - 2) + [False, False]

    def test_built_lazily(self):
        m = conditional_basis(3, 2, 0)
        assert "outcomes_independent" not in m.__dict__
        check_root(m)
        assert "outcomes_independent" not in m.__dict__
        synthesize(m)
        assert m.__dict__["outcomes_independent"] is True

    def test_folds_no_cut_side(self):
        m = conditional_basis(3, 3, 0)
        assert m.outcomes_independent is True
        assert m._cut_sides == {}

    def test_a_tiny_measurement_is_refused_by_the_row_floor(self):
        # scaled by 1e-14 against its weights, the 2x2 outcomes are still
        # orthogonal, but Q's row filter could drop rows that matter
        m = conditional_basis(2, 2, 0)
        tiny = SeparableMeasurement(m.parties, [(o.label, (o.factors[0] * 1e-14, o.factors[1]))
                                                for o in m.outcomes], m.weights * 1e14)
        assert _singular_ratio(tiny)[0] > 0.99 and not tiny.outcomes_independent


class TestSpans:
    def test_qubit_pair_party_a(self, m_pair):
        assert len(local_span(m_pair, 0)) == 2

    def test_qubit_pair_party_b(self, m_pair):
        assert len(local_span(m_pair, 1)) == 3

    def test_phase_five_party_a(self, m_phase):
        assert len(local_span(m_phase, 0)) == 3

    def test_span_dimension_caps(self, catalog_all):
        for m in catalog_all.values():
            for p, party in enumerate(m.parties):
                assert len(local_span(m, p)) <= party.dim ** 2
                comp_cap = np.prod([q.dim ** 2 for i, q in enumerate(m.parties)
                                    if i != p])
                assert len(complement_span(m, p)) <= comp_cap

    def test_cached_spans_equal_fresh_builds(self, catalog_all):
        for m in catalog_all.values():
            for p in range(len(m.parties)):
                for span, stack in ((local_span, m.local_factors(p)),
                                    (complement_span, complement_factors(m, p))):
                    ops = list(stack)
                    fresh = [ops[i] for i in greedy_svd_independent_subset(ops)]
                    got = span(m, p)
                    assert len(got) == len(fresh)
                    for a, b in zip(got, fresh):
                        assert np.array_equal(a, b)

    def test_identity_in_outcome_span(self, catalog_all):
        # completeness puts the joint identity inside span{O_j}
        for m in catalog_all.values():
            ops = m.outcome_operators.reshape(m.n_outcomes, -1).T
            target = np.eye(m.total_dim).ravel()
            a = np.vstack([ops.real, ops.imag])
            b = np.concatenate([target, np.zeros_like(target)])
            _, res, *_ = np.linalg.lstsq(a, b, rcond=None)
            residual = float(res[0]) if res.size else float(
                np.linalg.norm(a @ np.linalg.lstsq(a, b, rcond=None)[0] - b) ** 2)
            assert residual < 1e-16


class TestStructure:
    def test_duplicate_party_names(self):
        with pytest.raises(ValueError):
            SeparableMeasurement([Party("A", 2), Party("A", 2)],
                                 [("x", (P0, P0))], np.array([1.0]))

    def test_all_trivial_dims_rejected(self):
        with pytest.raises(ValueError):
            SeparableMeasurement([Party("A", 1)], [("x", (np.eye(1),))],
                                 np.array([1.0]))

    def test_factor_count_mismatch(self):
        with pytest.raises(Exception):
            SeparableMeasurement([Party("A", 2), Party("B", 2)],
                                 [("x", (P0,))], np.array([1.0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_factor_rejected(self, value):
        bad = P0.copy()
        bad[0, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            SeparableMeasurement([Party("A", 2), Party("B", 2)],
                                 [("x", (EYE2, bad))], np.array([1.0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            SeparableMeasurement([Party("A", 2), Party("B", 2)],
                                 [("x", (P0, EYE2)), ("y", (P1, EYE2))],
                                 np.array([1.0, value]))

    def test_overflowing_hermitian_part_located(self):
        # (a + a^H) / 2 overflows although every entry is finite; refused
        # before any frame reaches LAPACK, and with no RuntimeWarning
        bad = np.array([[1.7e308, 1.7e308], [1.7e308, -1.7e308]])
        with pytest.raises(MeasurementFormatError, match="too large") as err:
            SeparableMeasurement([Party("A", 2), Party("B", 2)],
                                 [("x", (EYE2, bad))], np.array([1.0]))
        assert err.value.location == "outcomes[0].factors[1]"

    def test_duplicate_outcome_labels_name_both_outcomes(self):
        with pytest.raises(ValueError, match="outcomes 0 and 2 share the label 'x'"):
            SeparableMeasurement([Party("A", 2), Party("B", 2)],
                                 [("x", (P0, EYE2)), ("y", (P1, P0)),
                                  ("x", (P1, P1))], np.ones(3))

    def test_relabelled_outcome_rejected_at_load(self, m_pair):
        doc = measurement_to_dict(m_pair)
        doc["outcomes"][2]["label"] = doc["outcomes"][0]["label"]
        with pytest.raises(MeasurementFormatError, match="outcomes 0 and 2"):
            measurement_from_dict(doc)

    def test_wide_conditional_basis_labels_are_unique(self):
        labels = conditional_basis(2, 12, 0).labels()
        assert len(set(labels)) == len(labels) == 144

    def test_weight_length_mismatch(self):
        with pytest.raises(Exception):
            SeparableMeasurement([Party("A", 2), Party("B", 2)],
                                 [("x", (P0, P0))], np.array([1.0, 2.0]))


class TestHermitianPart:
    def test_nearly_hermitian_factors_search_like_exact_ones(self):
        # an anti-Hermitian error inside the load tolerance is dropped at
        # load, so the search sees Hermitian factors: the trace pairings of
        # the frames are real and the verdict is the exact input's
        m = conditional_basis(2, 4, 0)
        rng = np.random.default_rng(1)
        outcomes = []
        for o in m.outcomes:
            factors = []
            for f in o.factors:
                b = rng.standard_normal(f.shape) + 1j * rng.standard_normal(f.shape)
                k = b - b.conj().T
                factors.append(f + k * (0.45e-10 * np.abs(f).max() / np.abs(k).max()))
            outcomes.append((o.label, tuple(factors)))
        near = SeparableMeasurement(m.parties, outcomes, m.weights)
        assert 0.45e-10 * 2 < HERMITICITY_TOL
        assert per_factor_validation(near)[0] == []
        for o in near.outcomes:
            for f in o.factors:
                assert np.array_equal(f, f.conj().T)
        dims = tuple(r.nullspace_dim for r in check_root(m))
        assert tuple(r.nullspace_dim for r in check_root(near)) == dims
        cert = synthesize(near)
        assert cert.verdict == Verdict.PROTOCOL_FOUND
        assert cert.root_dims == dims

    def test_exactly_hermitian_factors_stored_unchanged(self):
        # h and top I - h are exactly Hermitian and positive, and complete
        # with I (x) P1
        rng = np.random.default_rng(5)
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = b + b.conj().T
        h += (0.1 - np.linalg.eigvalsh(h)[0]) * np.eye(4)
        top, eye4 = float(np.linalg.eigvalsh(h)[-1]), np.eye(4, dtype=complex)
        m = SeparableMeasurement([Party("A", 4), Party("B", 2)],
                                 [("x", (h, P0)), ("y", (top * eye4 - h, P0)),
                                  ("z", (eye4, P1))], [1 / top, 1 / top, 1.0])
        assert [f.tobytes() for f in m.outcomes[0].factors] == \
            [h.tobytes(), P0.astype(complex).tobytes()]


class TestFrozenData:
    """A measurement's weights and factors are what its constructor
    checked: the weights are copied, and they and the factors are stored
    read-only."""

    def test_writes_raise_and_the_callers_array_is_untouched(self):
        q = qubit_pair()
        w = np.ones(4)
        factors = [np.array(f) for f in q.outcomes[0].factors]
        m = SeparableMeasurement(q.parties, [(q.outcomes[0].label, factors)]
                                 + [(o.label, o.factors) for o in q.outcomes[1:]], w)
        w[0] = 1.5                          # the caller's arrays stay writable
        factors[0][0, 0] = 2.0
        assert m.weights.tolist() == [1.0] * 4
        assert m.outcomes[0].factors[0][0, 0] == q.outcomes[0].factors[0][0, 0]
        with pytest.raises(ValueError, match="read-only"):
            np.asarray(m.weights)[0] = 1.5
        for o in m.outcomes:
            for f in o.factors:
                with pytest.raises(ValueError, match="read-only"):
                    f[0, 0] = 2.0
        assert synthesize(m).verdict is Verdict.PROTOCOL_FOUND

    def test_inferred_weights_are_read_only(self):
        q = qubit_pair()
        m = SeparableMeasurement(q.parties, q.outcomes)
        assert not m.weights.flags.writeable


class TestStackedStorage:
    """Each party's (n, d_p, d_p) factor stack is the measurement's only
    storage of its factors, checked in one pass per stack: the same bytes
    as ``as_hermitian`` of each factor, and the outcome operators the same
    bytes as each outcome's ``tensor``."""

    @staticmethod
    def _inputs():
        """The audit instances' inputs, and two more: a factor Hermitian
        only within tolerance, stored as its Hermitian part, and an exactly
        Hermitian one with a -0.0 real part across from a +0.0, stored as
        given, where its Hermitian part would hold +0.0."""
        out = [(m.parties, [(o.label, o.factors) for o in m.outcomes], m.weights)
               for m in audit_instances()]
        q = qubit_pair()
        near = np.array(q.outcomes[0].factors[0])
        near[0, 1] += 1e-12
        signed = np.array(q.outcomes[1].factors[1])
        signed[0, 1] = complex(-0.0, 0.0)
        assert not np.array_equal(near, near.conj().T)
        assert np.signbit(signed[0, 1].real) and not np.signbit(signed[1, 0].real)
        for j, k, f in ((0, 0, near), (1, 1, signed)):
            outcomes = [(o.label, list(o.factors)) for o in q.outcomes]
            outcomes[j][1][k] = f
            out.append((q.parties, outcomes, q.weights))
        return out

    def test_bitwise_equal_to_the_per_factor_oracle(self):
        inputs = self._inputs()
        assert len(inputs) == 165
        for parties, outcomes, weights in inputs:
            m = SeparableMeasurement(parties, outcomes, weights)
            stacks = factor_stacks(m)
            for j, (o, (_, given)) in enumerate(zip(m.outcomes, outcomes)):
                for k, (f, g) in enumerate(zip(o.factors, given)):
                    assert f.tobytes() == as_hermitian(g).tobytes()
                    assert np.shares_memory(f, stacks[k]) and f.tobytes() == stacks[k][j].tobytes()
            ops = np.stack([tensor(o.factors) for o in m.outcomes])
            assert m.outcome_operators.tobytes() == ops.tobytes()

    def test_writes_raise_and_the_callers_array_is_untouched(self):
        q = qubit_pair()
        factors = [(o.label, [np.array(f) for f in o.factors]) for o in q.outcomes]
        m = SeparableMeasurement(q.parties, factors, q.weights)
        before = [s.copy() for s in factor_stacks(m)]
        for _, fs in factors:
            for f in fs:
                f[0, 0] = 7.0
        assert all(np.array_equal(s, b) for s, b in zip(factor_stacks(m), before))
        for s in factor_stacks(m):
            with pytest.raises(ValueError, match="read-only"):
                s[0, 0, 0] = 7.0
        with pytest.raises(ValueError, match="read-only"):
            m.outcomes[1].factors[0][0, 0] = 7.0

    def test_one_party_operators_do_not_alias_the_stack(self):
        m = SeparableMeasurement([Party("A", 2)], [("0", (P0,)), ("1", (P1,))], [1.0, 1.0])
        ops = m.outcome_operators
        assert not np.shares_memory(ops, m.local_factors(0))
        assert ops.tobytes() == m.local_factors(0).tobytes()
