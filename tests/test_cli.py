import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import flag_dominoes
import locc_forge
from locc_forge import conditional_basis, synthesize
from locc_forge.cli import main
from locc_forge.io import save_measurement


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
        for name in ("qubit-pair", "phase-five", "bennett-three-qubit",
                     "rotated-dominoes", "seven-outcome-family"):
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

    @pytest.mark.parametrize("argv, option", [
        (["qubit-pair", "--theta", "0.1", "0.2", "0.3", "0.4"], "--theta"),
        (["phase-five", "--seed", "5"], "--seed"),
    ])
    def test_option_the_entry_does_not_take(self, capsys, argv, option):
        code, out, err = run(capsys, "catalog", *argv)
        assert code == 64
        assert option in err and argv[0] in err
        assert out == ""

    def test_domino_thetas(self, tmp_path, capsys):
        path = tmp_path / "dom.json"
        code, _, _ = run(capsys, "catalog", "rotated-dominoes",
                         "--theta", "0.3", "0.4", "0.5", "0.6",
                         "--out", str(path))
        assert code == 0
        assert json.loads(path.read_text())["parties"][0]["dim"] == 3


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
        assert [p["marginal_rank"] for p in doc["parties"]] == [False, False]
        assert doc["impossible_at_root"] is False
        assert doc["single_outcome_root"] is False
        assert doc["tolerances"] == {"rank_factor": 1e-11, "residual": 1e-8}

    def test_json_records_the_fixed_tolerances(self, tmp_path, capsys):
        # the certified verdict records the method's constants too
        from locc_forge.tolerances import RANK_FACTOR, RESIDUAL_TOL

        path = tmp_path / "phase.json"
        run(capsys, "catalog", "phase-five", "--out", str(path))
        code, out, _ = run(capsys, "check", str(path), "--json")
        assert code == 2
        doc = json.loads(out)
        assert doc["impossible_at_root"] is True
        assert doc["tolerances"] == {"rank_factor": 1e-11, "residual": 1e-8}
        assert doc["tolerances"] == {"rank_factor": RANK_FACTOR, "residual": RESIDUAL_TOL}

    def test_marginal_rank_is_reported(self, pair_file, capsys, monkeypatch):
        import locc_forge.engine as engine
        import locc_forge.feasibility as feasibility
        from locc_forge.feasibility import MarginalRankWarning

        # the flag is forced through nullspace, so party B's one-dimensional
        # root cone must not be certified from the frames past it
        original = feasibility.nullspace
        monkeypatch.setattr(feasibility, "nullspace",
                            lambda q, n: (original(q, n)[0], True))
        monkeypatch.setattr(engine, "certified_root_cones", lambda m: [None] * len(m.parties))
        with pytest.warns(MarginalRankWarning):
            code, out, _ = run(capsys, "check", pair_file, "--json")
        assert code == 0
        assert [p["marginal_rank"] for p in json.loads(out)["parties"]] == [True, True]
        with pytest.warns(MarginalRankWarning):
            code, out, _ = run(capsys, "check", pair_file)
        assert out.count("(rank decided near the cutoff)") == 2

    def test_certified_root_cones_are_reported(self, pair_file, tmp_path, capsys):
        # phase-five's two root cones are certified from the frames; the
        # qubit pair's party A has a two-dimensional cone, which takes the SVD
        code, out, _ = run(capsys, "check", pair_file, "--json")
        assert code == 0
        assert [p["certified"] for p in json.loads(out)["parties"]] == [False, True]
        path = tmp_path / "phase.json"
        run(capsys, "catalog", "phase-five", "--out", str(path))
        code, out, _ = run(capsys, "check", str(path), "--json")
        assert code == 2
        assert [p["certified"] for p in json.loads(out)["parties"]] == [True, True]

    def test_weight_error_within_validation_keeps_the_verdict(self, pair_file,
                                                                tmp_path, capsys):
        # the root's bystander operator is the identity, not read from the
        # weights, so an error that the constructor accepts moves no root rank
        doc = json.loads(Path(pair_file).read_text())
        doc["outcomes"][0]["weight"] = 1.0000000001
        path = tmp_path / "off.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check", str(path), "--json")
        assert code == 0
        assert [p["nullspace_dim"] for p in json.loads(out)["parties"]] == [2, 1]

    def test_impossibility_goes_through_the_engine_guard(self, pair_file, capsys,
                                                         monkeypatch):
        # one-dimensional root cones whose ray is not the completeness vector
        # are refused as the library's synthesize refuses them
        import locc_forge.cli as cli
        from locc_forge.feasibility import FeasibleCone

        stray = np.array([[1.0, 0.0, 0.0, 0.0]])
        monkeypatch.setattr(cli, "check_root", lambda m: [
            FeasibleCone(1, stray, False) for _ in m.parties])
        code, out, err = run(capsys, "check", pair_file)
        assert code == 4
        assert "impossibility self-check failed" in err
        assert "not LOCC-implementable" not in out

    def test_a_measurement_that_needs_no_measurement(self, tmp_path, capsys):
        # one outcome I (x) I of weight one: both root cones are
        # one-dimensional, yet doing nothing implements it
        from locc_forge import Party, SeparableMeasurement
        from locc_forge.io import save_measurement

        eye = np.eye(2, dtype=complex)
        path = tmp_path / "one.json"
        save_measurement(SeparableMeasurement([Party("A", 2), Party("B", 2)],
                                              [("1", (eye, eye))], [1.0]), str(path))
        code, out, _ = run(capsys, "check", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["impossible_at_root"] is False
        assert doc["single_outcome_root"] is True
        assert [p["nullspace_dim"] for p in doc["parties"]] == [1, 1]
        tree_path = tmp_path / "tree.json"
        code, _, _ = run(capsys, "synth", str(path), "--out", str(tree_path))
        assert code == 0
        code, out, _ = run(capsys, "verify", str(tree_path), "--measurement", str(path),
                           "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] and doc["checks"]["outcome-weights"]["passed"]
        # the text gives the reason for the exit code
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        verdicts = [line for line in out.splitlines() if line.startswith("verdict:")]
        assert verdicts == ["verdict: the root is a single outcome; "
                            "it needs no measurement"]
        # and no party is marked as unable to measure first
        assert "cannot measure first" not in out

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
        assert json.loads(tree_path.read_text())["root"]["children"]

    def test_impossible(self, tmp_path, capsys):
        path = tmp_path / "dom.json"
        run(capsys, "catalog", "rotated-dominoes", "--out", str(path))
        code, out, _ = run(capsys, "synth", str(path))
        assert code == 2
        assert "IMPOSSIBLE_AT_ROOT" in out

    def test_inconclusive(self, tmp_path, capsys):
        # the extreme-ray search is exhausted after two rounds
        path = tmp_path / "flag.json"
        save_measurement(flag_dominoes(), str(path))
        code, out, _ = run(capsys, "synth", str(path))
        assert code == 3
        assert "INCONCLUSIVE" in out

    def test_json_verdict(self, pair_file, capsys):
        code, out, _ = run(capsys, "synth", pair_file, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "PROTOCOL_FOUND"
        assert doc["tolerances"] == {"rank_factor": 1e-11, "residual": 1e-8}

    def test_search_stats_are_printed(self, tmp_path, capsys):
        path = tmp_path / "cond.json"
        save_measurement(conditional_basis(5, 2, 0), str(path))
        stats = synthesize(conditional_basis(5, 2, 0)).search_stats
        counts = {k: getattr(stats, k) for k in ("nodes_expanded", "dead_ends", "cones_built",
                                                 "parties_skipped", "orthants", "final_splits",
                                                 "planar_splits")}
        assert all(counts.values())
        code, out, _ = run(capsys, "synth", str(path), "--json")
        assert code == 0
        doc = json.loads(out)["stats"]
        assert {k: doc[k] for k in counts} == counts and doc["wall_time"] > 0
        code, out, _ = run(capsys, "synth", str(path))
        line = next(x for x in out.splitlines() if x.startswith("search:"))
        assert (f"{counts['cones_built']} cones built, {counts['parties_skipped']} parties "
                f"skipped, {counts['orthants']} orthants, {counts['final_splits']} final "
                f"splits, {counts['planar_splits']} planar splits") in line


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
        doc = json.loads(tree_path.read_text())
        doc["root"]["children"][0]["children"][0]["leaf"]["scale"] = 1.001
        tree_path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(tree_path),
                           "--measurement", pair_file)
        assert code == 4
        assert "FAIL" in out

    def test_verify_json_names_failing_locations_only(self, pair_file, tmp_path, capsys):
        """A passing check's "detail" is empty, also when its worst residual
        is roundoff at some node; a failing check names its node."""
        tree_path = tmp_path / "tree.json"
        run(capsys, "synth", pair_file, "--out", str(tree_path))
        code, out, _ = run(capsys, "verify", str(tree_path), "--measurement", pair_file,
                           "--json")
        assert code == 0
        checks = json.loads(out)["checks"]
        assert all(c["passed"] and c["detail"] == "" for c in checks.values())
        doc = json.loads(tree_path.read_text())
        doc["root"]["children"][0]["children"][0]["leaf"]["scale"] = 1.001
        tree_path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(tree_path), "--measurement", pair_file,
                           "--json")
        assert code == 4
        checks = json.loads(out)["checks"]
        assert checks["leaf-match"] == {"passed": False, "detail": "root.0.0",
                                        "worst_residual": checks["leaf-match"]["worst_residual"]}
        assert all(c["detail"] == "" for c in checks.values() if c["passed"])

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

    def test_simulate_takes_no_tolerance_options(self, pair_file, tmp_path, capsys):
        tree_path = tmp_path / "tree.json"
        run(capsys, "synth", pair_file, "--out", str(tree_path))
        code, _, err = run(capsys, "simulate", str(tree_path),
                           "--measurement", pair_file, "--tol-residual", "1e-6")
        assert code == 64
        assert "--tol-residual" in err

    def test_verify_takes_no_rank_tolerance(self, pair_file, tmp_path, capsys):
        # the rank cutoff and the residual tolerance are part of the method:
        # no command sets either
        tree_path = tmp_path / "tree.json"
        run(capsys, "synth", pair_file, "--out", str(tree_path))
        for flag, value in (("--tol-rank", "0.5"), ("--tol-residual", "1e-2")):
            for argv in (["verify", str(tree_path), "--measurement", pair_file],
                         ["check", pair_file], ["synth", pair_file]):
                code, _, err = run(capsys, *argv, flag, value)
                assert code == 64, (flag, argv)
                assert flag in err

    def test_simulate_rejects_an_incomplete_measurement(self, pair_file, tmp_path,
                                                        capsys):
        # simulate refuses its measurement at load as check and synth do
        tree_path = tmp_path / "tree.json"
        run(capsys, "synth", pair_file, "--out", str(tree_path))
        doc = json.loads(Path(pair_file).read_text())
        doc["outcomes"][0]["weight"] = 1.5
        bad = tmp_path / "incomplete.json"
        bad.write_text(json.dumps(doc))
        for argv in (["check", str(bad)],
                     ["simulate", str(tree_path), "--measurement", str(bad)]):
            code, out, err = run(capsys, *argv)
            assert code == 4, argv
            assert "incomplete" in err and out == ""

    @pytest.mark.parametrize("fault, where", [("incomplete", "outcomes: incomplete"),
                                              ("indefinite", "outcomes[2].factors[1]")])
    def test_every_command_refuses_an_invalid_measurement_at_load(
            self, pair_file, tmp_path, capsys, fault, where):
        """check, synth, verify and simulate refuse the measurement before any
        analysis, whether it comes from the command line, a measurement_ref
        path or an inline measurement_ref: exit 4, the location on stderr
        and nothing on stdout."""
        tree_path = tmp_path / "tree.json"
        run(capsys, "synth", pair_file, "--out", str(tree_path))
        doc = json.loads(Path(pair_file).read_text())
        if fault == "incomplete":
            doc["outcomes"][0]["weight"] = 1.5
        else:
            doc["outcomes"][2]["factors"][1] = [[[1.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        tree = json.loads(tree_path.read_text())
        by_path, inline = tmp_path / "by-path.json", tmp_path / "inline.json"
        by_path.write_text(json.dumps({**tree, "measurement_ref": str(bad)}))
        inline.write_text(json.dumps({**tree, "measurement_ref": doc}))
        argvs = [["check", str(bad)], ["synth", str(bad)]]
        for command in ("verify", "simulate"):
            argvs += [[command, str(tree_path), "--measurement", str(bad)],
                      [command, str(by_path)], [command, str(inline)]]
        for argv in argvs:
            code, out, err = run(capsys, *argv)
            assert code == 4, argv
            assert where in err and out == "", argv
            # a measurement_ref error names the inline field or the file
            if argv[1:] == [str(inline)]:
                assert f"error: measurement_ref.{where}" in err, err
            elif argv[1:] == [str(by_path)]:
                assert f"error: {bad}: {where}" in err, err

    def test_simulate_uses_measurement_ref(self, pair_file, tmp_path, capsys):
        tree_path = tmp_path / "tree.json"
        run(capsys, "synth", pair_file, "--out", str(tree_path))
        code, out, _ = run(capsys, "simulate", str(tree_path))
        assert code == 0
        assert "total probability: 1.0" in out

    def test_simulate_with_state_file(self, pair_file, tmp_path, capsys):
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

    @pytest.mark.parametrize("entries, defect", [
        ([[[0.5, 0.0]] * 3] * 2, "expected a square matrix, got shape (2, 3)"),
        ([[[float("inf") if i == j == 0 else 0.25 * (i == j), 0.0] for j in range(4)]
          for i in range(4)], "matrix has non-finite entries")])
    def test_simulate_refuses_a_state_by_its_shape_and_numbers(self, pair_file, tmp_path,
                                                               capsys, entries, defect):
        # the state file is only decoded; simulate refuses what it holds
        tree_path = tmp_path / "tree.json"
        run(capsys, "synth", pair_file, "--out", str(tree_path))
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(entries))
        code, out, err = run(capsys, "simulate", str(tree_path),
                             "--measurement", pair_file, "--state", str(state_path))
        assert code == 4 and out == ""
        assert defect in err


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
        assert "outcomes: incomplete" in err

    def test_max_support_option_is_gone(self, pair_file, capsys):
        assert run(capsys, "synth", pair_file, "--max-support", "7")[0] == 64

    @pytest.mark.parametrize("where", ["root.children[0].coeffs",
                                       "root.children[0].children",
                                       "root.children[0].children[0].leaf.scale",
                                       "root.children[0].party",
                                       "root.children[0].children[0].leaf.outcome",
                                       "measurement_ref"])
    def test_verify_rejects_malformed_tree_at_load(self, pair_file, tmp_path,
                                                  capsys, where):
        tree_path = tmp_path / "tree.json"
        run(capsys, "synth", pair_file, "--out", str(tree_path))
        doc = json.loads(tree_path.read_text())
        node = doc["root"]["children"][0]
        given = ["--measurement", pair_file]
        if where.endswith("coeffs"):
            node["coeffs"][0] = float("nan")
        elif where.endswith("children"):
            node["children"] = 5
        elif where.endswith("scale"):
            node["children"][0]["leaf"]["scale"] = float("nan")
        elif where.endswith("party"):
            node["party"] = ["A"]                   # not a name, and unhashable
        elif where.endswith("outcome"):
            node["children"][0]["leaf"]["outcome"] = {"x": 1}
        else:
            doc["measurement_ref"], given = [1], []
        tree_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(tree_path), *given)
        assert code == 4
        assert where in err and "PASS" not in out

    def test_duplicate_outcome_label_rejected(self, pair_file, tmp_path, capsys):
        doc = json.loads(Path(pair_file).read_text())
        doc["outcomes"][2]["label"] = doc["outcomes"][0]["label"]
        path = tmp_path / "relabelled.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "synth", str(path), "--out",
                           str(tmp_path / "tree.json"))
        assert code == 4
        assert "outcomes 0 and 2" in err
        assert not (tmp_path / "tree.json").exists()

    def test_max_rounds_is_a_usage_error(self, pair_file, capsys):
        # the search deepens until it finds a tree or is exhausted: no
        # option caps the rounds
        code, _, err = run(capsys, "synth", pair_file, "--max-rounds", "3")
        assert code == 64
        assert "--max-rounds" in err

    def test_negative_trials_is_a_usage_error(self, pair_file, tmp_path, capsys):
        tree_path = tmp_path / "tree.json"
        run(capsys, "synth", pair_file, "--out", str(tree_path))
        code, _, err = run(capsys, "simulate", str(tree_path),
                           "--measurement", pair_file, "--trials", "-3")
        assert code == 64
        assert "--trials" in err and "at least 0" in err
        code, _, err = run(capsys, "simulate", str(tree_path),
                           "--measurement", pair_file, "--trials", "many")
        assert code == 64
        assert "invalid int value" in err

    def test_usage_error(self, capsys):
        assert run(capsys, "frobnicate")[0] == 64

    def test_missing_required_argument(self, capsys):
        assert run(capsys, "check")[0] == 64


class TestWithoutScipy:
    """scipy is a test-only dependency: the library and the CLI run without it."""

    @staticmethod
    def python(code, *argv):
        src = os.path.dirname(os.path.dirname(os.path.abspath(locc_forge.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path})

    def test_import_loads_no_scipy_module(self):
        done = self.python("import sys, locc_forge, locc_forge.cli; "
                           "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_cli_round_trip_with_scipy_blocked(self, tmp_path):
        m, tree = str(tmp_path / "m.json"), str(tmp_path / "tree.json")
        blocked = ('import sys; sys.modules["scipy"] = None; '
                   'from locc_forge.cli import main; sys.exit(main(sys.argv[1:]))')
        for argv in (["catalog", "qubit-pair", "--out", m],
                     ["synth", m, "--out", tree],
                     ["verify", tree, "--measurement", m]):
            done = self.python(blocked, *argv)
            assert done.returncode == 0, (argv, done.stdout, done.stderr)
        assert "overall: PASS" in done.stdout
