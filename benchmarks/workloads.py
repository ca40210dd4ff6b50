"""Benchmark inputs and the checks every result must pass.

Each workload is a list of :class:`Instance` records: a measurement plus
what the method must answer for it.  The expected answers come from the
paper's results and from how the inputs are built, never from saved output.

The conditional-basis family is generated here rather than taken from the
library, so the program under test receives only finished measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from locc_forge import (
    Party,
    SeparableMeasurement,
    Verdict,
    phase_five,
    qubit_pair,
    rotated_dominoes,
    seven_outcome_family,
)

# acceptance criterion 3: the original angles plus twenty random sets
DOMINO_ANGLE_SEED = 314
DOMINO_RANDOM_SETS = 20

COND_DEEP_SHAPES = ((3, 4), (5, 2))        # (parties, local dimension)
ONE_WAY_DIMS = (4, 5, 6)
ONE_WAY_SEEDS_PER_DIM = 3

LEAF_SUM_TOL = 1e-8


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def conditional_basis(n_parties: int, dim: int, seed) -> SeparableMeasurement:
    """Rank-1 product measurement in which each party's basis depends on the
    outcomes of the parties before it.

    Party 0 measures in one random orthonormal basis; party k measures in a
    random basis drawn afresh for every string of outcomes of parties
    0..k-1.  Outcome (i_0, ..., i_{n-1}) is the product of the matching
    projectors, all weights are one, and the measurement is implemented by
    the n-round protocol that follows this order.  ``seed`` is anything
    :func:`numpy.random.default_rng` accepts.

    The weighted outcome sum is rebuilt here with ``numpy.kron`` and must
    equal the identity, so the generator checks itself without the
    library's operator code.
    """
    if n_parties < 2 or dim < 2:
        raise ValueError("need at least two parties of dimension at least two")
    rng = np.random.default_rng(seed)
    bases: dict[tuple[int, ...], np.ndarray] = {}
    outcomes = []
    total = np.zeros((dim ** n_parties,) * 2, dtype=complex)
    for idx in product(range(dim), repeat=n_parties):
        factors = []
        for k in range(n_parties):
            prefix = idx[:k]
            if prefix not in bases:
                bases[prefix] = _haar_unitary(dim, rng)
            v = bases[prefix][:, idx[k]]
            factors.append(np.outer(v, v.conj()))
        joint = factors[0]
        for f in factors[1:]:
            joint = np.kron(joint, f)
        total += joint
        outcomes.append(("".join(map(str, idx)), tuple(factors)))
    residual = float(np.abs(total - np.eye(total.shape[0])).max())
    if residual > 1e-10:
        raise RuntimeError(
            f"conditional basis {n_parties}x{dim}: outcomes sum to the identity "
            f"only up to {residual:.3e}")
    parties = [Party(f"P{k}", dim) for k in range(n_parties)]
    return SeparableMeasurement(parties, outcomes, np.ones(len(outcomes)))


@dataclass(frozen=True)
class Expected:
    verdict: Verdict
    root_dims: tuple[int, ...]
    depth: int | None = None          # tree depth, for PROTOCOL_FOUND


@dataclass(eq=False)
class Instance:
    name: str
    measurement: SeparableMeasurement
    expected: Expected


def domino_angle_sets() -> list[np.ndarray]:
    rng = np.random.default_rng(DOMINO_ANGLE_SEED)
    sets = [np.full(4, np.pi / 4)]
    sets += [rng.uniform(1e-9, np.pi / 4, size=4) for _ in range(DOMINO_RANDOM_SETS)]
    return sets


def _cond_instance(n: int, d: int, seed, tag: str) -> Instance:
    m = conditional_basis(n, d, seed)
    expected = Expected(Verdict.PROTOCOL_FOUND, (d,) + (1,) * (n - 1), n)
    return Instance(f"cond-{n}x{d}-{tag}", m, expected)


def build(workload: str, seed: int) -> list[Instance]:
    """The instances of a workload, with every outcome operator stack built.

    The catalog is the paper's fixed examples and does not depend on the
    seed; the conditional-basis workloads draw their bases from it.
    """
    if workload == "catalog":
        impossible = Expected(Verdict.IMPOSSIBLE_AT_ROOT, (1, 1))
        out = [Instance("qubit-pair", qubit_pair(),
                        Expected(Verdict.PROTOCOL_FOUND, (2, 1), 2)),
               Instance("phase-five", phase_five(), impossible)]
        out += [Instance(f"rotated-dominoes-{i}", rotated_dominoes(*angles), impossible)
                for i, angles in enumerate(domino_angle_sets())]
        out += [Instance(f"seven-outcome-family-{s}", seven_outcome_family(s),
                         Expected(Verdict.PROTOCOL_FOUND, (1, 2), 4))
                for s in range(10)]
    elif workload == "cond-deep":
        out = [_cond_instance(n, d, [seed, n, d], f"s{seed}")
               for n, d in COND_DEEP_SHAPES]
    elif workload == "one-way-wide":
        out = [_cond_instance(2, d, [seed, 2, d, k], f"s{seed}.{k}")
               for d in ONE_WAY_DIMS for k in range(ONE_WAY_SEEDS_PER_DIM)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for inst in out:
        _ = inst.measurement.outcome_operators  # a cached stack, built as part of set-up
    return out


# -- checks ---------------------------------------------------------------
# Each returns a list of problems; an empty list means the result is right.


def leaf_sum_residual(tree, m: SeparableMeasurement) -> float:
    """Largest gap between the leaf scales summed per outcome and the weights."""
    sums = np.zeros(m.n_outcomes)
    for node, _ in tree.leaves():
        j, scale = node.leaf_outcome
        sums[j] += scale
    return float(np.abs(sums - m.weights).max())


def check_certificate(inst: Instance, cert) -> list[str]:
    exp = inst.expected
    problems = []
    if cert.verdict != exp.verdict:
        problems.append(f"verdict {cert.verdict.value}, expected {exp.verdict.value}")
    if tuple(cert.root_dims) != exp.root_dims:
        problems.append(f"root dims {tuple(cert.root_dims)}, expected {exp.root_dims}")
    if exp.verdict == Verdict.PROTOCOL_FOUND:
        if cert.tree is None:
            problems.append("no tree")
            return problems
        if cert.tree.depth() != exp.depth:
            problems.append(f"depth {cert.tree.depth()}, expected {exp.depth}")
        gap = leaf_sum_residual(cert.tree, inst.measurement)
        scale = max(1.0, float(np.abs(inst.measurement.weights).max()))
        if gap > LEAF_SUM_TOL * scale:
            problems.append(f"leaf scales miss the weights by {gap:.3e}")
    elif cert.tree is not None:
        problems.append("tree attached to a verdict without a protocol")
    return problems


def check_roots(inst: Instance, roots, synth_dims: tuple[int, ...]) -> list[str]:
    dims = tuple(r.nullspace_dim for r in roots)
    problems = []
    if dims != inst.expected.root_dims:
        problems.append(f"check_root dims {dims}, expected {inst.expected.root_dims}")
    if dims != tuple(synth_dims):
        problems.append(f"check_root dims {dims} differ from synthesize {tuple(synth_dims)}")
    return problems


def check_report(report) -> list[str]:
    return [f"verify_tree check {name} failed"
            for name, c in report.checks.items() if not c.passed]
