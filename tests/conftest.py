import numpy as np
import pytest

from locc_forge import (
    Party,
    SeparableMeasurement,
    phase_five,
    qubit_pair,
    rotated_dominoes,
    seven_outcome_family,
)
from locc_forge.engine import ProtocolNode

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
    """Two qubits, with an indefinite factor on A in two outcomes."""
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    return SeparableMeasurement(
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
