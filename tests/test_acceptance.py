"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here and nowhere looser."""

import time

import numpy as np

from locc_forge import (
    Verdict,
    check_root,
    phase_five,
    qubit_pair,
    rotated_dominoes,
    seven_outcome_family,
    synthesize,
)
from locc_forge.engine import ProtocolNode
from locc_forge.feasibility import build_q, feasible_cone, nullspace, root_context
from locc_forge.verify import random_density_matrix, simulate, verify_tree
from oracles import brute_force_rays, face_qmatrix, mixed_basis_q, projector_of

SEVEN_WEIGHTS = np.array([2.0, 2.0, 3.0, 2.0, 6.0, 1.0, 1.0])


def _announce(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


def _nullspace_projector(q, n):
    basis, _ = nullspace(q, n)
    return basis @ basis.T


def test_criterion_1_two_qubit_protocol():
    started = time.perf_counter()
    m = qubit_pair()
    roots = check_root(m)
    assert roots[0].nullspace_dim == 2
    ray_proj = projector_of(list(roots[0].extreme_rays))
    target = projector_of([[1, 1, 0, 0], [0, 0, 1, 1]])
    assert np.abs(ray_proj - target).max() < 1e-8
    assert roots[1].nullspace_dim == 1

    cert = synthesize(m)
    assert cert.verdict == Verdict.PROTOCOL_FOUND
    assert cert.tree.depth() == 2
    leaves = {}
    for node, _ in cert.tree.leaves():
        j, s = node.leaf_outcome
        leaves[j] = s
    assert sorted(leaves) == [0, 1, 2, 3]
    assert max(abs(s - 1.0) for s in leaves.values()) < 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _announce(1, "two-qubit protocol")


def test_criterion_2_phase_five_impossible():
    started = time.perf_counter()
    m = phase_five()
    for party in range(2):
        ctx = root_context(m, party)
        cone = feasible_cone(ctx)
        assert cone.nullspace_dim == 1
        direction = nullspace(build_q(ctx), m.n_outcomes)[0][:, 0]
        direction = direction / direction.sum()
        assert np.abs(direction - 0.2).max() < 1e-8
    cert = synthesize(m)
    assert cert.verdict == Verdict.IMPOSSIBLE_AT_ROOT
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _announce(2, "five-outcome phase measurement impossible")


def test_criterion_3_rotated_dominoes_impossible():
    started = time.perf_counter()
    rng = np.random.default_rng(314)
    angle_sets = [np.full(4, np.pi / 4)]
    angle_sets += [rng.uniform(1e-9, np.pi / 4, size=4) for _ in range(20)]
    for thetas in angle_sets:
        m = rotated_dominoes(*thetas)
        cert = synthesize(m)
        assert cert.root_dims == (1, 1), thetas
        assert cert.verdict == Verdict.IMPOSSIBLE_AT_ROOT
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"took {elapsed:.3f}s"
    _announce(3, "rotated dominoes impossible, 21 angle sets")


def test_criterion_4_seven_outcome_protocols():
    for seed in range(10):
        started = time.perf_counter()
        m = seven_outcome_family(seed)
        roots = check_root(m)
        assert roots[0].nullspace_dim == 1
        assert roots[1].nullspace_dim == 2
        rays = np.column_stack(roots[1].extreme_rays)
        w_dir = SEVEN_WEIGHTS / SEVEN_WEIGHTS.sum()
        coeffs, *_ = np.linalg.lstsq(rays, w_dir, rcond=None)
        assert np.abs(rays @ coeffs - w_dir).max() < 1e-8
        assert np.all(coeffs > 0)

        cert = synthesize(m)
        assert cert.verdict == Verdict.PROTOCOL_FOUND
        accumulated = np.zeros(7)
        for node, _ in cert.tree.leaves():
            j, s = node.leaf_outcome
            accumulated[j] += s
        assert np.abs(accumulated - SEVEN_WEIGHTS).max() < 1e-8
        branch_sets = {}
        for child in cert.tree.children:
            key = "b7" if child.coeffs[6] > 0.5 else "b6"
            branch_sets[key] = {n.leaf_outcome[0] + 1
                                for n, _ in child.leaves()}
        assert branch_sets["b7"] == {7, 5, 1, 3}
        assert branch_sets["b6"] == {6, 4, 1, 2}
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"seed {seed} took {elapsed:.3f}s"
    _announce(4, "seven-outcome four-round protocols, 10 seeds")


def test_criterion_5_basis_independence():
    rng = np.random.default_rng(2718)
    generators = [qubit_pair, phase_five, rotated_dominoes,
                  lambda: seven_outcome_family(0)]
    for gen in generators:
        m = gen()
        for party in range(len(m.parties)):
            ctx = root_context(m, party)
            reference = _nullspace_projector(build_q(ctx), m.n_outcomes)
            for _ in range(10):
                q = mixed_basis_q(ctx, rng)
                proj = _nullspace_projector(q, m.n_outcomes)
                assert np.abs(proj - reference).max() < 1e-8
    _announce(5, "nullspace independent of basis choice")


def test_criterion_6_verifier_and_simulation():
    trees = []
    for m in (qubit_pair(), seven_outcome_family(0), seven_outcome_family(7)):
        cert = synthesize(m)
        assert cert.verdict == Verdict.PROTOCOL_FOUND
        report = verify_tree(cert.tree, m)
        assert report.passed
        assert report.checks["node-sum"].worst_residual < 1e-8
        trees.append((cert.tree, m))

    tree, m = trees[1]

    def copy(n):
        return ProtocolNode(n.coeffs.copy(), n.acting_party,
                            tuple(copy(c) for c in n.children), n.leaf_outcome)

    tampered = copy(tree)
    victim = tampered.leaves()[0][0]
    victim.coeffs = victim.coeffs * (1 + 1e-3)
    j, s = victim.leaf_outcome
    victim.leaf_outcome = (j, s * (1 + 1e-3))
    assert not verify_tree(tampered, m).passed

    rng = np.random.default_rng(606)
    checked = 0
    for tree, m in trees:
        for _ in range(34):
            rho = random_density_matrix(m.total_dim, rng)
            result = simulate(tree, m, rho)
            assert abs(result.total_probability - 1.0) < 1e-9
            assert np.abs(result.outcome_probabilities
                          - result.direct_probabilities).max() < 1e-8
            checked += 1
    assert checked >= 100
    _announce(6, "verifier and simulation statistics")


def test_criterion_7_cone_oracle_equivalence():
    contexts = []
    for m in (qubit_pair(), phase_five(), rotated_dominoes(),
              seven_outcome_family(0), seven_outcome_family(3)):
        for party in range(len(m.parties)):
            contexts.append(root_context(m, party))
    # interior contexts reached by the search on the seven-outcome family
    m = seven_outcome_family(0)
    from locc_forge.feasibility import NodeContext
    # the nodes are multiples of I (x) B7, A5 (x) B7 and A5 (x) B1
    contexts.append(NodeContext(m, 0, np.array([1.0, 0, 3, 0, 6, 0, 1])))
    contexts.append(NodeContext(m, 1, np.array([1.0, 0, 3, 0, 6, 0, 0])))
    contexts.append(NodeContext(m, 0, np.array([1.0, 0, 3, 0, 0, 0, 0])))

    compared = 0
    for ctx in contexts:
        cone = feasible_cone(ctx)
        if cone.nullspace_dim > 3:
            continue
        expected = brute_force_rays(face_qmatrix(ctx))
        got = list(cone.extreme_rays)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert np.abs(g - e).max() < 1e-8
        compared += 1
    assert compared >= 10
    _announce(7, "double description matches sign-pattern oracle")
