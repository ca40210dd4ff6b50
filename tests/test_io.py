import json

import numpy as np
import pytest

from conftest import P0, P1
from locc_forge import Party, SeparableMeasurement, conditional_basis, synthesize
from locc_forge.errors import MeasurementFormatError
from locc_forge.io import (
    load_measurement,
    load_tree,
    measurement_from_dict,
    measurement_to_dict,
    save_measurement,
    save_tree,
    tree_from_dict,
    tree_to_dict,
)
from oracles import nnls_completeness_weights


def location_of(doc, direct=True):
    """The location of the :class:`MeasurementFormatError` that loading
    ``doc`` raises; with ``direct``, asserted equal to the location, and its
    message to the message, that the constructor raises on the same
    parties, outcomes and weights."""
    with pytest.raises(MeasurementFormatError) as loaded:
        measurement_from_dict(doc)
    if direct:
        outcomes = [(o["label"], tuple(np.array(f, dtype=float).view(complex)[..., 0]
                                       for f in o["factors"]))
                    for o in doc["outcomes"]]
        with pytest.raises(MeasurementFormatError) as constructed:
            SeparableMeasurement([Party(p["name"], p["dim"]) for p in doc["parties"]],
                                 outcomes, [o["weight"] for o in doc["outcomes"]])
        assert constructed.value.location == loaded.value.location
        assert constructed.value.detail == loaded.value.detail
    return loaded.value.location


class TestMeasurementRoundTrip:
    def test_exact_round_trip(self, catalog_all, tmp_path):
        for name, m in catalog_all.items():
            path = tmp_path / f"{name}.json"
            save_measurement(m, str(path))
            back = load_measurement(str(path))
            assert [p.name for p in back.parties] == [p.name for p in m.parties]
            assert back.labels() == m.labels()
            assert np.array_equal(back.weights, m.weights)
            for a, b in zip(back.outcomes, m.outcomes):
                for fa, fb in zip(a.factors, b.factors):
                    assert np.array_equal(fa, fb)   # bit-exact floats

    def test_signed_zero_round_trip(self, tmp_path):
        # an exactly Hermitian factor is stored and reloaded byte for byte,
        # -0.0 real parts included
        f = np.array([[1, 1j], [-1j, 1]])
        g = np.array([[1, -1j], [1j, 1]])
        eye = np.eye(2, dtype=complex)
        m = SeparableMeasurement([Party("A", 2), Party("B", 2)],
                                 [("f", (f, eye)), ("g", (g, eye))], [0.5, 0.5])
        assert m.outcomes[0].factors[0].tobytes() == f.tobytes()
        save_measurement(m, str(tmp_path / "m.json"))
        back = load_measurement(str(tmp_path / "m.json"))
        for a, b in zip(back.outcomes, (f, g)):
            assert a.factors[0].tobytes() == b.tobytes()

    def test_weights_inferred_when_absent(self, m_pair):
        doc = measurement_to_dict(m_pair)
        for o in doc["outcomes"]:
            del o["weight"]
        back = measurement_from_dict(doc)
        assert np.abs(back.weights - 1.0).max() < 1e-8

    def test_weights_inferred_without_joint_operators(self, monkeypatch):
        # the constructor infers weights on the joint R of the parties'
        # factors, so no Kronecker product of operators is formed
        import locc_forge.measurement as measurement
        import locc_forge.operators as operators

        m = conditional_basis(4, 3, 0)
        doc = measurement_to_dict(m)
        for o in doc["outcomes"]:
            del o["weight"]

        def refused(*args):
            raise AssertionError("a joint operator was formed")

        with monkeypatch.context() as patch:
            for module in (operators, measurement):
                patch.setattr(module, "tensor", refused)
            patch.setattr(np, "kron", refused)
            back = measurement_from_dict(doc)
        expected = nnls_completeness_weights(m.outcome_operators)
        assert np.abs(back.weights - expected).max() <= 1e-10

    def test_partial_weights_rejected(self, m_pair):
        doc = measurement_to_dict(m_pair)
        del doc["outcomes"][2]["weight"]
        with pytest.raises(MeasurementFormatError, match="all outcomes"):
            measurement_from_dict(doc)


class TestMeasurementDiagnostics:
    def test_bad_matrix_location(self, m_pair):
        doc = measurement_to_dict(m_pair)
        doc["outcomes"][1]["factors"][0] = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(MeasurementFormatError) as err:
            measurement_from_dict(doc)
        assert "outcomes[1].factors[0]" in str(err.value)

    def test_wrong_dimension_location(self, m_pair):
        doc = measurement_to_dict(m_pair)
        doc["parties"][1]["dim"] = 3
        assert location_of(doc) == "outcomes[0].factors[1]"
        # a factor too few
        doc = measurement_to_dict(m_pair)
        del doc["outcomes"][2]["factors"][0]
        assert location_of(doc) == "outcomes[2].factors"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10 ** 400])
    def test_non_finite_entry_location(self, m_pair, value):
        doc = measurement_to_dict(m_pair)
        doc["outcomes"][2]["factors"][1][0][1][0] = value
        text = json.dumps(doc)    # JSON as Python writes and reads it: NaN, Infinity
        with pytest.raises(MeasurementFormatError) as err:
            measurement_from_dict(json.loads(text))
        assert err.value.location == "outcomes[2].factors[1]"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10 ** 400, -1.0])
    def test_non_finite_weight_location(self, m_pair, value):
        # a negative weight is decoded and then refused by the constructor
        doc = measurement_to_dict(m_pair)
        doc["outcomes"][3]["weight"] = value
        doc = json.loads(json.dumps(doc))
        assert location_of(doc, direct=isinstance(value, float)) == "outcomes[3].weight"

    def test_non_hermitian_factor_location(self, m_pair):
        doc = measurement_to_dict(m_pair)
        doc["outcomes"][2]["factors"][1][0][1] = [0.3, 0.0]
        with pytest.raises(MeasurementFormatError, match="Hermitian"):
            measurement_from_dict(doc)
        assert location_of(doc) == "outcomes[2].factors[1]"

    @pytest.mark.parametrize("case", ["shape-after-skew", "nan-weight-before-skew",
                                      "inf-beside-skew"])
    def test_first_defect_in_the_constructors_order(self, m_pair, case):
        # the loader decodes a factor's shape and numbers and a weight's value
        # and leaves them to the constructor, so a later factor's shape or
        # numbers, or an earlier outcome's weight, is not named first
        doc = measurement_to_dict(m_pair)
        skew = [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        first = "outcomes[1].factors[0]"
        doc["outcomes"][1]["factors"][0] = skew
        if case == "shape-after-skew":
            doc["outcomes"][3]["factors"][1] = [[[1.0, 0.0]] * 3] * 2
        elif case == "nan-weight-before-skew":
            doc["outcomes"][0]["weight"] = float("nan")
        else:
            first = "outcomes[0].factors[0]"
            doc["outcomes"][0]["factors"][0] = skew
            doc["outcomes"][0]["factors"][1][0][0][0] = float("inf")
        doc = json.loads(json.dumps(doc))
        assert location_of(doc) == first
        with pytest.raises(MeasurementFormatError, match="not Hermitian"):
            measurement_from_dict(doc)

    def test_duplicate_outcome_label_location(self, m_pair):
        doc = measurement_to_dict(m_pair)
        doc["outcomes"][3]["label"] = doc["outcomes"][1]["label"]
        with pytest.raises(MeasurementFormatError, match="outcomes 1 and 3"):
            measurement_from_dict(doc)
        assert location_of(doc) == "outcomes[3].label"

    def test_duplicate_party_name_location(self, m_pair):
        doc = measurement_to_dict(m_pair)
        doc["parties"][1]["name"] = doc["parties"][0]["name"]
        assert location_of(doc) == "parties[1].name"

    def test_boolean_party_dim_location(self):
        # with 1 x 1 factors, dim true would otherwise load as a party of dim 1
        one = np.eye(1, dtype=complex)
        m = SeparableMeasurement([Party("A", 1), Party("B", 2)],
                                 [("0", (one, P0)), ("1", (one, P1))], [1.0, 1.0])
        doc = json.loads(json.dumps(measurement_to_dict(m)).replace(
            '"dim": 1', '"dim": true'))
        assert doc["parties"][0]["dim"] is True
        with pytest.raises(MeasurementFormatError) as err:
            measurement_from_dict(doc)
        assert err.value.location == "parties[0]"

    def test_missing_fields(self):
        with pytest.raises(MeasurementFormatError):
            measurement_from_dict({"parties": []})
        with pytest.raises(MeasurementFormatError):
            measurement_from_dict([1, 2, 3])

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"parties": [,]}')
        with pytest.raises(MeasurementFormatError, match="line 1"):
            load_measurement(str(path))


class TestTreeRoundTrip:
    def test_round_trip_preserves_structure(self, m_pair, tmp_path):
        cert = synthesize(m_pair)
        path = tmp_path / "tree.json"
        save_tree(cert.tree, m_pair, str(path))
        back, _ = load_tree(str(path), m_pair)
        assert tree_to_dict(back, m_pair) == tree_to_dict(cert.tree, m_pair)

    def test_measurement_ref_path_resolution(self, m_pair, tmp_path):
        cert = synthesize(m_pair)
        save_measurement(m_pair, str(tmp_path / "m.json"))
        save_tree(cert.tree, m_pair, str(tmp_path / "tree.json"),
                  measurement_ref="m.json")
        back, m_loaded = load_tree(str(tmp_path / "tree.json"))
        assert m_loaded.labels() == m_pair.labels()
        assert back.depth() == cert.tree.depth()

    def test_inline_measurement_ref(self, m_pair, tmp_path):
        cert = synthesize(m_pair)
        doc = tree_to_dict(cert.tree, m_pair,
                           measurement_ref=measurement_to_dict(m_pair))
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(doc))
        back, m_loaded = load_tree(str(path))
        assert m_loaded.n_outcomes == 4

    def test_unknown_outcome_label(self, m_pair):
        cert = synthesize(m_pair)
        doc = tree_to_dict(cert.tree, m_pair)
        doc["root"]["children"][0]["children"][0]["leaf"]["outcome"] = "nope"
        with pytest.raises(MeasurementFormatError, match="nope"):
            tree_from_dict(doc, m_pair)

    def test_unknown_party_name(self, m_pair):
        cert = synthesize(m_pair)
        doc = tree_to_dict(cert.tree, m_pair)
        doc["root"]["children"][0]["party"] = "C"
        with pytest.raises(MeasurementFormatError, match="party"):
            tree_from_dict(doc, m_pair)

    def test_coefficient_length_checked(self, m_pair):
        doc = {"root": {"party": None, "coeffs": [1.0, 2.0], "children": []}}
        with pytest.raises(MeasurementFormatError, match="coeffs"):
            tree_from_dict(doc, m_pair)


class TestTreeDiagnostics:
    """Malformed tree files are rejected at load time, at the bad field."""

    @pytest.fixture()
    def doc(self, m_pair):
        return tree_to_dict(synthesize(m_pair).tree, m_pair)

    @pytest.mark.parametrize("value", ["1.0", None, [1.0], True, 10 ** 400,
                                       float("nan"), float("inf")])
    def test_bad_coefficient_location(self, doc, m_pair, value):
        doc["root"]["children"][0]["coeffs"][1] = value
        with pytest.raises(MeasurementFormatError) as info:
            tree_from_dict(doc, m_pair)
        assert info.value.location == "root.children[0].coeffs"

    @pytest.mark.parametrize("value", ["1.0", None, True, 10 ** 400, float("nan"),
                                       float("inf"), 0.0, -1.0])
    def test_bad_scale_location(self, doc, m_pair, value):
        doc["root"]["children"][0]["children"][0]["leaf"]["scale"] = value
        with pytest.raises(MeasurementFormatError) as info:
            tree_from_dict(doc, m_pair)
        assert info.value.location == "root.children[0].children[0].leaf.scale"

    @pytest.mark.parametrize("value", [5, None, {"coeffs": [1, 0, 0, 0]}, "x"])
    def test_children_must_be_a_list(self, doc, m_pair, value):
        doc["root"]["children"][0]["children"] = value
        with pytest.raises(MeasurementFormatError) as info:
            tree_from_dict(doc, m_pair)
        assert info.value.location == "root.children[0].children"

    def test_json_nan_token_rejected_from_file(self, doc, m_pair, tmp_path):
        doc["root"]["children"][1]["coeffs"][0] = float("nan")
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(doc))        # writes the bare NaN token
        with pytest.raises(MeasurementFormatError, match=r"root\.children\[1\]\.coeffs"):
            load_tree(str(path), m_pair)

    @pytest.mark.parametrize("fault, inner", [("indefinite", "outcomes[2].factors[1]"),
                                              ("incomplete", "outcomes"),
                                              ("not-an-object", "")])
    def test_measurement_ref_errors_name_their_place(self, doc, m_pair, tmp_path,
                                                     fault, inner):
        # an inline measurement's error is located under measurement_ref,
        # a referenced file's names the file; the error keeps its type
        bad = measurement_to_dict(m_pair)
        if fault == "indefinite":
            bad["outcomes"][2]["factors"][1] = [[[1.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]
        elif fault == "incomplete":
            bad["outcomes"][0]["weight"] = 1.5
        else:
            bad = [bad]
        ref_path = tmp_path / "bad.json"
        ref_path.write_text(json.dumps(bad))
        routes = [(str(ref_path), str(ref_path) + (inner and ": " + inner))]
        if isinstance(bad, dict):       # an inline list is refused as no object
            routes.append((bad, "measurement_ref" + (inner and "." + inner)))
        for ref, where in routes:
            path = tmp_path / "tree.json"
            path.write_text(json.dumps({**doc, "measurement_ref": ref}))
            with pytest.raises(MeasurementFormatError) as info:
                load_tree(str(path))
            assert info.value.location == where
            assert str(info.value).startswith(where + ": ")
            with pytest.raises(MeasurementFormatError) as direct:
                measurement_from_dict(bad)
            assert type(info.value) is type(direct.value)
            assert info.value.detail == direct.value.detail
