import json

import pytest

from locc_forge.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def pair_file(tmp_path, capsys):
    path = tmp_path / "pair.json"
    code, _, _ = run(capsys, "catalog", "qubit-pair", "--out", str(path))
    assert code == 0
    return str(path)


class TestCatalogCommand:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "--list")
        assert code == 0
        for name in ("qubit-pair", "phase-five", "rotated-dominoes",
                     "seven-outcome-family"):
            assert name in out

    def test_stdout_json(self, capsys):
        code, out, _ = run(capsys, "catalog", "phase-five")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["outcomes"]) == 5

    def test_unknown_entry(self, capsys):
        code, _, err = run(capsys, "catalog", "lunch-order")
        assert code == 4
        assert "unknown catalog entry" in err

    def test_domino_thetas(self, tmp_path, capsys):
        path = tmp_path / "dom.json"
        code, _, _ = run(capsys, "catalog", "rotated-dominoes",
                         "--theta", "0.3", "0.4", "0.5", "0.6",
                         "--out", str(path))
        assert code == 0
        assert json.loads(open(path).read())["parties"][0]["dim"] == 3


class TestCheckCommand:
    def test_feasible_measurement(self, pair_file, capsys):
        code, out, _ = run(capsys, "check", pair_file)
        assert code == 0
        assert "dim 2" in out and "dim 1" in out

    def test_json_output(self, pair_file, capsys):
        code, out, _ = run(capsys, "check", pair_file, "--json")
        assert code == 0
        doc = json.loads(out)
        assert [p["nullspace_dim"] for p in doc["parties"]] == [2, 1]
        assert doc["impossible_at_root"] is False

    def test_impossible_exit_code(self, tmp_path, capsys):
        path = tmp_path / "ph.json"
        run(capsys, "catalog", "phase-five", "--out", str(path))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 2
        assert "not LOCC-implementable" in out


class TestSynthCommand:
    def test_protocol_found(self, pair_file, tmp_path, capsys):
        tree_path = tmp_path / "tree.json"
        code, out, _ = run(capsys, "synth", pair_file, "--out", str(tree_path))
        assert code == 0
        assert "PROTOCOL_FOUND" in out
        assert json.loads(open(tree_path).read())["root"]["children"]

    def test_impossible(self, tmp_path, capsys):
        path = tmp_path / "dom.json"
        run(capsys, "catalog", "rotated-dominoes", "--out", str(path))
        code, out, _ = run(capsys, "synth", str(path))
        assert code == 2
        assert "IMPOSSIBLE_AT_ROOT" in out

    def test_inconclusive(self, tmp_path, capsys):
        path = tmp_path / "seven.json"
        run(capsys, "catalog", "seven-outcome-family", "--seed", "1",
            "--out", str(path))
        code, out, _ = run(capsys, "synth", str(path), "--max-rounds", "2")
        assert code == 3
        assert "INCONCLUSIVE" in out

    def test_json_verdict(self, pair_file, capsys):
        code, out, _ = run(capsys, "synth", pair_file, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "PROTOCOL_FOUND"
        assert doc["tolerances"]["rank_factor"] == 1e-11


class TestVerifySimulate:
    def test_verify_pass(self, pair_file, tmp_path, capsys):
        tree_path = tmp_path / "tree.json"
        run(capsys, "synth", pair_file, "--out", str(tree_path))
        code, out, _ = run(capsys, "verify", str(tree_path),
                           "--measurement", pair_file)
        assert code == 0
        assert "overall: PASS" in out

    def test_verify_detects_tampering(self, pair_file, tmp_path, capsys):
        tree_path = tmp_path / "tree.json"
        run(capsys, "synth", pair_file, "--out", str(tree_path))
        doc = json.loads(open(tree_path).read())
        doc["root"]["children"][0]["children"][0]["leaf"]["scale"] = 1.001
        open(tree_path, "w").write(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(tree_path),
                           "--measurement", pair_file)
        assert code == 4
        assert "FAIL" in out

    def test_simulate_reproducible(self, pair_file, tmp_path, capsys):
        tree_path = tmp_path / "tree.json"
        run(capsys, "synth", pair_file, "--out", str(tree_path))
        code, out1, _ = run(capsys, "simulate", str(tree_path),
                            "--measurement", pair_file,
                            "--trials", "200", "--seed", "3")
        assert code == 0
        _, out2, _ = run(capsys, "simulate", str(tree_path),
                         "--measurement", pair_file,
                         "--trials", "200", "--seed", "3")
        assert out1 == out2

    def test_simulate_uses_measurement_ref(self, pair_file, tmp_path, capsys):
        tree_path = tmp_path / "tree.json"
        run(capsys, "synth", pair_file, "--out", str(tree_path))
        code, out, _ = run(capsys, "simulate", str(tree_path))
        assert code == 0
        assert "total probability: 1.0" in out

    def test_simulate_with_state_file(self, pair_file, tmp_path, capsys):
        import numpy as np
        tree_path = tmp_path / "tree.json"
        run(capsys, "synth", pair_file, "--out", str(tree_path))
        v = np.array([1.0, 1.0, 0, 0], dtype=complex) / np.sqrt(2)
        rho = np.outer(v, v.conj())
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(
            [[[x.real, x.imag] for x in row] for row in rho]))
        code, out, _ = run(capsys, "simulate", str(tree_path),
                           "--measurement", pair_file,
                           "--state", str(state_path), "--json")
        assert code == 0
        doc = json.loads(out)
        by_label = {l["outcome"]: l["probability"] for l in doc["leaves"]}
        assert by_label["0x0"] == pytest.approx(0.5, abs=1e-12)
        assert by_label["0x1"] == pytest.approx(0.5, abs=1e-12)
        assert by_label["1x+"] == pytest.approx(0.0, abs=1e-12)

    def test_simulate_rejects_unnormalized_state(self, pair_file, tmp_path,
                                                 capsys):
        tree_path = tmp_path / "tree.json"
        run(capsys, "synth", pair_file, "--out", str(tree_path))
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(
            [[[2.0, 0.0] if i == j else [0.0, 0.0] for j in range(4)]
             for i in range(4)]))
        code, _, err = run(capsys, "simulate", str(tree_path),
                           "--measurement", pair_file,
                           "--state", str(state_path))
        assert code == 4
        assert "trace" in err


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "no-such-file.json")
        assert code == 4
        assert "error" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code, _, err = run(capsys, "check", str(path))
        assert code == 4
        assert "line" in err

    def test_invalid_measurement(self, tmp_path, capsys):
        doc = {
            "parties": [{"name": "A", "dim": 2}, {"name": "B", "dim": 2}],
            "outcomes": [
                {"label": "x",
                 "factors": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                             [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]],
                 "weight": 1.0},
            ],
        }
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", str(path))
        assert code == 4
        assert "validation" in err

    def test_max_support_option_is_gone(self, pair_file, capsys):
        assert run(capsys, "synth", pair_file, "--max-support", "7")[0] == 64

    @pytest.mark.parametrize("where", ["root.children[0].coeffs",
                                       "root.children[0].children",
                                       "root.children[0].children[0].leaf.scale"])
    def test_verify_rejects_malformed_tree_at_load(self, pair_file, tmp_path,
                                                  capsys, where):
        tree_path = tmp_path / "tree.json"
        run(capsys, "synth", pair_file, "--out", str(tree_path))
        doc = json.loads(tree_path.read_text())
        node = doc["root"]["children"][0]
        if where.endswith("coeffs"):
            node["coeffs"][0] = float("nan")
        elif where.endswith("children"):
            node["children"] = 5
        else:
            node["children"][0]["leaf"]["scale"] = float("nan")
        tree_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(tree_path),
                             "--measurement", pair_file)
        assert code == 4
        assert where in err and "PASS" not in out

    def test_duplicate_outcome_label_rejected(self, pair_file, tmp_path, capsys):
        doc = json.loads(open(pair_file).read())
        doc["outcomes"][2]["label"] = doc["outcomes"][0]["label"]
        path = tmp_path / "relabelled.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "synth", str(path), "--out",
                           str(tmp_path / "tree.json"))
        assert code == 4
        assert "outcomes 0 and 2" in err
        assert not (tmp_path / "tree.json").exists()

    def test_usage_error(self, capsys):
        assert run(capsys, "frobnicate")[0] == 64

    def test_missing_required_argument(self, capsys):
        assert run(capsys, "check")[0] == 64
