"""Tests of the benchmark's own code: the conditional-basis generator, the
verdict checks, the tracer and the host-speed probe.  Run with
``PYTHONPATH=src python -m pytest benchmarks``."""

import dataclasses
import signal
import time
from itertools import product

import numpy as np
import pytest

import workloads
from calibration import SpeedProbe, with_numpy_kernel
from locc_forge import Verdict, check_root, qubit_pair, synthesize
from locc_forge import engine, feasibility
from locc_forge.verify import verify_tree
from tracing import Tracer
from workloads import Expected, Instance, conditional_basis


@pytest.mark.parametrize("n, d", [(2, 2), (2, 3), (3, 2)])
def test_conditional_basis_is_complete_rank_one_and_unit_weighted(n, d):
    m = conditional_basis(n, d, 7)
    assert m.dims == (d,) * n
    assert m.n_outcomes == d ** n
    assert np.array_equal(m.weights, np.ones(d ** n))
    total = np.zeros((d ** n, d ** n), dtype=complex)
    for outcome in m.outcomes:
        joint = np.ones((1, 1))
        for f in outcome.factors:
            assert np.allclose(f @ f, f, atol=1e-12)          # projector
            assert abs(np.trace(f).real - 1.0) < 1e-12        # rank one
            joint = np.kron(joint, f)
        total += joint
    assert np.abs(total - np.eye(d ** n)).max() < 1e-12


def test_conditional_basis_follows_the_outcomes_of_earlier_parties():
    m = conditional_basis(3, 2, 1)
    factors = {o.label: o.factors for o in m.outcomes}
    # party 1's basis is fixed by party 0's outcome alone
    for i0, i1 in product(range(2), repeat=2):
        assert np.array_equal(factors[f"{i0}{i1}0"][1], factors[f"{i0}{i1}1"][1])
    assert not np.allclose(factors["000"][1], factors["100"][1])


def test_conditional_basis_depends_on_the_seed_only():
    a = conditional_basis(2, 3, [4, 2, 3])
    b = conditional_basis(2, 3, [4, 2, 3])
    c = conditional_basis(2, 3, [5, 2, 3])
    assert np.array_equal(a.outcome_operators, b.outcome_operators)
    assert not np.allclose(a.outcome_operators, c.outcome_operators)


def test_conditional_basis_rejects_trivial_shapes():
    with pytest.raises(ValueError):
        conditional_basis(1, 3, 0)
    with pytest.raises(ValueError):
        conditional_basis(2, 1, 0)


def test_small_conditional_basis_meets_its_expected_answers():
    inst = workloads._cond_instance(3, 2, 0, "t")
    cert = synthesize(inst.measurement)
    assert workloads.check_certificate(inst, cert) == []
    roots = check_root(inst.measurement)
    assert workloads.check_roots(inst, roots, cert.root_dims) == []
    assert workloads.check_report(verify_tree(cert.tree, inst.measurement)) == []


@pytest.fixture(scope="module")
def pair():
    m = qubit_pair()
    inst = Instance("qubit-pair", m, Expected(Verdict.PROTOCOL_FOUND, (2, 1), 2))
    return inst, synthesize(m)


def test_checks_accept_the_right_answer(pair):
    inst, cert = pair
    assert workloads.check_certificate(inst, cert) == []


@pytest.mark.parametrize("expected", [
    Expected(Verdict.IMPOSSIBLE_AT_ROOT, (2, 1)),
    Expected(Verdict.PROTOCOL_FOUND, (1, 2), 2),
    Expected(Verdict.PROTOCOL_FOUND, (2, 1), 3),
])
def test_checks_reject_a_wrong_verdict_dims_or_depth(pair, expected):
    inst, cert = pair
    wrong = Instance(inst.name, inst.measurement, expected)
    assert workloads.check_certificate(wrong, cert)


def test_checks_reject_a_tampered_tree(pair):
    inst, cert = pair
    leaf = cert.tree.leaves()[0][0]
    j, scale = leaf.leaf_outcome
    leaf_tampered = dataclasses.replace(leaf, leaf_outcome=(j, 1.5 * scale))

    def swap(node):
        if node is leaf:
            return leaf_tampered
        return dataclasses.replace(node, children=tuple(swap(c) for c in node.children))

    tampered = dataclasses.replace(cert, tree=swap(cert.tree))
    assert any("leaf scales" in p for p in workloads.check_certificate(inst, tampered))
    assert workloads.check_report(verify_tree(tampered.tree, inst.measurement))


def test_checks_reject_root_dims_that_disagree(pair):
    inst, cert = pair
    roots = check_root(inst.measurement)
    assert workloads.check_roots(inst, roots, cert.root_dims) == []
    assert workloads.check_roots(inst, roots, (1, 1))


def test_tracer_restores_every_wrapped_function_and_accounts_for_the_time():
    originals = (engine.decompose, engine.feasible_cone, feasibility.build_q)
    tracer = Tracer()
    m = qubit_pair()
    with tracer.installed():
        assert engine.decompose is not originals[0]
        mark = tracer.mark()
        cert = tracer.call("engine.synthesize", synthesize, (m,), {})
        self_time, counts = tracer.summary(mark)
    assert (engine.decompose, engine.feasible_cone, feasibility.build_q) == originals
    assert cert.verdict == Verdict.PROTOCOL_FOUND
    assert counts["engine.feasible_cone.calls"] == counts["feasibility.build_q.calls"] > 0
    assert counts["verify.verify_tree.calls"] == 1
    assert min(self_time.values()) >= 0
    root = tracer.spans[mark[0]]
    assert root[0] == "engine.synthesize"
    assert abs(sum(self_time.values()) - (root[2] - root[1])) < 1e-9


def test_speed_probe_restores_the_signal_handler_and_calibrates_its_region():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(with_numpy_kernel()) as probe:
        deadline = time.perf_counter() + 0.05
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.slowdowns) > 5
    assert probe.slowdown > 0
    busy = probe.wall_s - probe.handler_s
    assert probe.calibrated_s == pytest.approx(busy / probe.slowdown)


def test_speed_probe_on_a_region_too_short_to_sample_reports_wall_time():
    with SpeedProbe(period_s=10.0) as probe:
        pass
    assert probe.slowdown == 1.0
    assert probe.calibrated_s == probe.wall_s
