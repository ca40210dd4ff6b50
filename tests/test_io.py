import json

import numpy as np
import pytest

from locc_forge import synthesize
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

    def test_weights_inferred_when_absent(self, m_pair):
        doc = measurement_to_dict(m_pair)
        for o in doc["outcomes"]:
            del o["weight"]
        back = measurement_from_dict(doc)
        assert np.abs(back.weights - 1.0).max() < 1e-8

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
        with pytest.raises(MeasurementFormatError) as err:
            measurement_from_dict(doc)
        assert "factors[1]" in str(err.value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10 ** 400])
    def test_non_finite_entry_location(self, m_pair, value):
        doc = measurement_to_dict(m_pair)
        doc["outcomes"][2]["factors"][1][0][1][0] = value
        text = json.dumps(doc)    # JSON as Python writes and reads it: NaN, Infinity
        with pytest.raises(MeasurementFormatError) as err:
            measurement_from_dict(json.loads(text))
        assert err.value.location == "outcomes[2].factors[1]"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10 ** 400])
    def test_non_finite_weight_location(self, m_pair, value):
        doc = measurement_to_dict(m_pair)
        doc["outcomes"][3]["weight"] = value
        with pytest.raises(MeasurementFormatError) as err:
            measurement_from_dict(json.loads(json.dumps(doc)))
        assert err.value.location == "outcomes[3].weight"

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
