import numpy as np
import pytest

from conftest import EYE2, P0, P1
from locc_forge import Party, SeparableMeasurement, conditional_basis
from locc_forge.errors import IncompleteMeasurementError, MeasurementFormatError
from locc_forge.io import measurement_from_dict, measurement_to_dict
from locc_forge.measurement import (
    complement_span,
    infer_weights,
    local_span,
    validate,
)
from oracles import greedy_svd_independent_subset, lstsq_completeness_weights

SEVEN_WEIGHTS = np.array([2.0, 2.0, 3.0, 2.0, 6.0, 1.0, 1.0])


class TestValidate:
    def test_catalog_measurements_valid(self, catalog_all):
        for name, m in catalog_all.items():
            report = validate(m)
            assert report.ok, f"{name}: {[str(v) for v in report.violations]}"
            assert report.completeness_residual < 1e-8

    def test_seven_outcome_weights(self, m_seven):
        assert np.array_equal(m_seven.weights, SEVEN_WEIGHTS)
        assert validate(m_seven).ok

    def test_violations_are_data(self):
        # broken weights: completeness violated but nothing raises
        m = SeparableMeasurement(
            [Party("A", 2), Party("B", 2)],
            [("x", (P0, P0)), ("y", (P1, EYE2))],
            np.array([1.0, 1.0]))
        report = validate(m)
        assert not report.ok
        assert any(v.kind == "incomplete" for v in report.violations)

    def test_nan_residual_is_a_violation(self):
        # finite entries whose product overflows: 0 * inf puts NaN in the sum
        huge = 1e200 * EYE2
        m = SeparableMeasurement(
            [Party("A", 2), Party("B", 2)],
            [("x", (P0, EYE2)), ("y", (P1, EYE2)), ("z", (huge, huge))],
            np.array([1.0, 1.0, 0.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            report = validate(m)
        assert np.isnan(report.completeness_residual)
        assert not report.ok
        assert [v.kind for v in report.violations] == ["incomplete"]

    def test_negative_factor_reported_with_magnitude(self):
        bad = np.array([[1.0, 0.0], [0.0, -0.5]], dtype=complex)
        m = SeparableMeasurement(
            [Party("A", 2), Party("B", 2)],
            [("x", (bad, EYE2)), ("y", (EYE2 - bad, EYE2))],
            np.array([1.0, 1.0]))
        report = validate(m)
        kinds = {v.kind for v in report.violations}
        assert "negative factor" in kinds
        worst = min(v.magnitude for v in report.violations
                    if v.kind == "negative factor")
        assert worst == pytest.approx(-0.5, abs=1e-12)


class TestInferWeights:
    def test_qubit_pair(self, m_pair):
        w = infer_weights(m_pair.outcome_operators)
        assert np.abs(w - 1.0).max() < 1e-10

    def test_phase_five_uniform(self, m_phase):
        # cross-check with an unconstrained least-squares oracle
        oracle = lstsq_completeness_weights(m_phase.outcome_operators)
        assert np.abs(oracle - 0.8).max() < 1e-10
        w = infer_weights(m_phase.outcome_operators)
        assert np.abs(w - 0.8).max() < 1e-8

    def test_seven_outcome_family(self, m_seven):
        oracle = lstsq_completeness_weights(m_seven.outcome_operators)
        assert np.abs(oracle - SEVEN_WEIGHTS).max() < 1e-8
        w = infer_weights(m_seven.outcome_operators)
        assert np.abs(w - SEVEN_WEIGHTS).max() < 1e-8

    def test_incomplete_rejected(self):
        ops = np.stack([np.kron(P0, P0), np.kron(P0, P1)])
        with pytest.raises(IncompleteMeasurementError):
            infer_weights(ops)

    def test_completeness_residual_after_inference(self, catalog_all):
        for m in catalog_all.values():
            w = infer_weights(m.outcome_operators)
            total = np.einsum("j,jab->ab", w, m.outcome_operators)
            assert np.abs(total - np.eye(m.total_dim)).max() < 1e-8


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

    def test_spans_built_once_per_party(self, catalog_all):
        for m in catalog_all.values():
            for p in range(len(m.parties)):
                for span in (local_span, complement_span):
                    assert span(m, p) is span(m, p)

    def test_cached_spans_equal_fresh_builds(self, catalog_all):
        for m in catalog_all.values():
            for p in range(len(m.parties)):
                for span, stack in ((local_span, m.local_factors(p)),
                                    (complement_span, m.complement_factors(p))):
                    ops = list(stack)
                    fresh = [ops[i] for i in greedy_svd_independent_subset(ops)]
                    cached = span(m, p).elements
                    assert len(cached) == len(fresh)
                    for a, b in zip(cached, fresh):
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
