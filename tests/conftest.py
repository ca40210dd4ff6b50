import numpy as np
import pytest

from locc_forge import (
    Party,
    SeparableMeasurement,
    conditional_basis,
    phase_five,
    qubit_pair,
    rotated_dominoes,
    seven_outcome_family,
)
from locc_forge.engine import ProtocolNode
from locc_forge.measurement import _outcome_views
from locc_forge.operators import as_hermitian

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = (KET0 + KET1) / np.sqrt(2)
MINUS = (KET0 - KET1) / np.sqrt(2)

P0 = np.outer(KET0, KET0.conj())
P1 = np.outer(KET1, KET1.conj())
PPLUS = np.outer(PLUS, PLUS.conj())
PMINUS = np.outer(MINUS, MINUS.conj())

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
EYE2 = np.eye(2, dtype=complex)


def domino_angle_sets() -> list[np.ndarray]:
    """The benchmark's 21 rotated-domino angle sets: pi/4 throughout, then
    twenty drawn from (1e-9, pi/4) with seed 314."""
    rng = np.random.default_rng(314)
    return [np.full(4, np.pi / 4)] + [rng.uniform(1e-9, np.pi / 4, size=4) for _ in range(20)]


def catalog_instances() -> list[SeparableMeasurement]:
    """The benchmark's catalog: 21 domino angle sets, ten seven-outcome seeds."""
    return ([qubit_pair(), phase_five()] + [rotated_dominoes(*a) for a in domino_angle_sets()]
            + [seven_outcome_family(s) for s in range(10)])


def benchmark_instances(seed: int = 0) -> list[SeparableMeasurement]:
    """The benchmark's measurements at a seed: the catalog, cond-deep and
    one-way-wide."""
    out = catalog_instances()
    out += [conditional_basis(n, d, [seed, n, d]) for n, d in ((3, 4), (5, 2))]
    out += [conditional_basis(2, d, [seed, 2, d, k]) for d in (4, 5, 6) for k in range(3)]
    return out


def audit_instances() -> list[SeparableMeasurement]:
    """163 measurements: the benchmark's at seeds 0-2, conditional bases
    4x3, 3x3, 4x2, 2x7, 2x8, 3x5 and 2x10 at seeds 0-2, and the
    seven-outcome family at seeds 0-9.  97 have a protocol."""
    out = [m for seed in range(3) for m in benchmark_instances(seed)]
    out += [conditional_basis(n, d, seed) for seed in range(3)
            for n, d in ((4, 3), (3, 3), (4, 2), (2, 7), (2, 8), (3, 5), (2, 10))]
    return out + [seven_outcome_family(s) for s in range(10)]


def unchecked(parties, outcomes, weights) -> SeparableMeasurement:
    """A measurement that skips the constructor: its factors are stored as
    the constructor stores them, each party's Hermitian parts in one
    read-only stack with the outcomes' factors views into it, and nothing
    is checked.  For tests of the checks downstream of the constructor (the
    verifier's positivity) and of the oracles, on input that the
    constructor refuses."""
    m = object.__new__(SeparableMeasurement)
    m.parties = tuple(parties)
    labels, columns = zip(*[(str(label), factors) for label, factors in outcomes])
    m._stacks = tuple(np.stack([as_hermitian(f) for f in column]) for column in zip(*columns))
    for stack in m._stacks:
        stack.flags.writeable = False
    m.outcomes = _outcome_views(labels, m._stacks)
    m.weights = np.asarray(weights, dtype=float)
    return m


def split_outcome(m: SeparableMeasurement, j: int) -> SeparableMeasurement:
    """``m`` with outcome j split into two equal halves: the same operator
    twice, each with half its weight, so the outcomes are linearly
    dependent."""
    outcomes, weights = [], []
    for k, (o, w) in enumerate(zip(m.outcomes, m.weights)):
        halves = [("a", w / 2), ("b", w / 2)] if k == j else [("", w)]
        for suffix, weight in halves:
            outcomes.append((o.label + suffix, o.factors))
            weights.append(weight)
    return SeparableMeasurement(m.parties, outcomes, weights)


def flag_dominoes() -> SeparableMeasurement:
    """A = C^2 (x) C^3 holds a flag qubit, B = C^3.  Under |0><0| on the
    flag sit the nine rotated dominoes, each with its weight; under |1><1|
    one outcome, identity on the rest, of weight 1.  A's first measurement
    reads the flag, after which no party can split the dominoes: the
    extreme-ray search is exhausted after two rounds."""
    dominoes = rotated_dominoes()
    eye3 = np.eye(3, dtype=complex)
    outcomes = [(o.label, (np.kron(P0, o.factors[0]), o.factors[1]))
                for o in dominoes.outcomes]
    outcomes.append(("flag", (np.kron(P1, eye3), eye3)))
    return SeparableMeasurement([Party("A", 6), Party("B", 3)], outcomes,
                                np.append(dominoes.weights, 1.0))


@pytest.fixture(scope="session")
def m_pair():
    return qubit_pair()


@pytest.fixture(scope="session")
def m_phase():
    return phase_five()


@pytest.fixture(scope="session")
def m_dominoes():
    return rotated_dominoes()


@pytest.fixture(scope="session")
def m_seven():
    return seven_outcome_family(0)


@pytest.fixture(scope="session")
def catalog_all(m_pair, m_phase, m_dominoes, m_seven):
    return {
        "qubit-pair": m_pair,
        "phase-five": m_phase,
        "rotated-dominoes": m_dominoes,
        "seven-outcome-family": m_seven,
    }


@pytest.fixture(scope="session")
def m_indefinite():
    """Two qubits, with an indefinite factor on A in two outcomes: complete,
    but refused by the constructor, so built by :func:`unchecked`."""
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    return unchecked(
        [Party("A", 2), Party("B", 2)],
        [("f", (np.diag([1.5, -0.5]), p0)),
         ("g", (np.diag([-0.5, 1.5]), p0)),
         ("h", (np.eye(2), p1))],
        [1.0, 1.0, 1.0])


def node(c, party, children=(), leaf=None):
    return ProtocolNode(np.asarray(c, dtype=float), party, tuple(children), leaf)


@pytest.fixture(scope="module")
def hand_tree():
    """Known four-round protocol for the seven-outcome family, written out
    node by node rather than produced by the search."""
    A, B = 0, 1
    return node((2, 2, 3, 2, 6, 1, 1), None, [
        node((1, 0, 3, 0, 6, 0, 1), B, [
            node((1, 0, 3, 0, 6, 0, 0), A, [
                node((1, 0, 3, 0, 0, 0, 0), B, [
                    node((1, 0, 0, 0, 0, 0, 0), A, leaf=(0, 1.0)),
                    node((0, 0, 3, 0, 0, 0, 0), A, leaf=(2, 3.0)),
                ]),
                node((0, 0, 0, 0, 6, 0, 0), B, leaf=(4, 6.0)),
            ]),
            node((0, 0, 0, 0, 0, 0, 1), A, leaf=(6, 1.0)),
        ]),
        node((1, 2, 0, 2, 0, 1, 0), B, [
            node((1, 2, 0, 2, 0, 0, 0), A, [
                node((1, 2, 0, 0, 0, 0, 0), B, [
                    node((1, 0, 0, 0, 0, 0, 0), A, leaf=(0, 1.0)),
                    node((0, 2, 0, 0, 0, 0, 0), A, leaf=(1, 2.0)),
                ]),
                node((0, 0, 0, 2, 0, 0, 0), B, leaf=(3, 2.0)),
            ]),
            node((0, 0, 0, 0, 0, 1, 0), A, leaf=(5, 1.0)),
        ]),
    ])
