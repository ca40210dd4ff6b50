"""Built-in measurement families, usable as fixtures and demo inputs.

Each generator returns a :class:`SeparableMeasurement`, whose constructor
checks that it is positive and complete.  The families cover the
interesting behaviors of the analyzer: a two-qubit measurement with a
two-round protocol, three with no LOCC protocol at all (one of them on
three qubits), a seeded class of seven-outcome measurements that needs
four rounds, and a seeded family of any number of parties and local
dimension whose protocol takes one round per party.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .errors import LoccForgeError
from .measurement import Party, SeparableMeasurement
from .operators import is_psd

_KET0 = np.array([1.0, 0.0], dtype=complex)
_KET1 = np.array([0.0, 1.0], dtype=complex)


def _proj(vec: np.ndarray) -> np.ndarray:
    v = np.asarray(vec, dtype=complex)
    return np.outer(v, v.conj())


def qubit_pair() -> SeparableMeasurement:
    """Four rank-1 product outcomes on two qubits.

    Party A distinguishes the computational basis; party B's basis depends
    on A's outcome (computational under [0], diagonal under [1]).  A admits
    a first measurement, B does not, and the minimal protocol has two
    rounds.
    """
    plus = (_KET0 + _KET1) / np.sqrt(2)
    minus = (_KET0 - _KET1) / np.sqrt(2)
    outcomes = [
        ("0x0", (_proj(_KET0), _proj(_KET0))),
        ("0x1", (_proj(_KET0), _proj(_KET1))),
        ("1x+", (_proj(_KET1), _proj(plus))),
        ("1x-", (_proj(_KET1), _proj(minus))),
    ]
    parties = [Party("A", 2), Party("B", 2)]
    return SeparableMeasurement(parties, outcomes, np.ones(4))


def phase_five() -> SeparableMeasurement:
    """Five phase-state product projectors on two qubits; outside LOCC.

    Outcome j projects party A onto (|0> + w^j |1>)/sqrt(2) and party B onto
    the square of that phase, w = exp(2 pi i / 5).  This is the optimal
    separable measurement for unambiguous discrimination of four such
    states; neither party can measure first.
    """
    omega = np.exp(2j * np.pi / 5)

    def w_op(k: int) -> np.ndarray:
        return 0.5 * np.array([[1.0, omega ** k], [omega ** (-k), 1.0]])

    outcomes = [
        (f"psi{j}", (w_op(j), w_op(2 * j)))
        for j in range(1, 6)
    ]
    parties = [Party("A", 2), Party("B", 2)]
    return SeparableMeasurement(parties, outcomes, np.full(5, 0.8))


def rotated_dominoes(theta2: float = np.pi / 4, theta4: float = np.pi / 4,
                     theta6: float = np.pi / 4,
                     theta8: float = np.pi / 4) -> SeparableMeasurement:
    """The nine rotated domino projectors on a 3 x 3 system; outside LOCC.

    Four angle parameters, each in (0, pi/4], rotate the paired states
    inside their two-dimensional blocks.  At pi/4 this is the original
    nine-state construction showing nonlocality without entanglement.
    """
    thetas = (theta2, theta4, theta6, theta8)
    for t in thetas:
        if not (0.0 < t <= np.pi / 4):
            raise ValueError(f"angles must lie in (0, pi/4], got {t}")

    e = [np.eye(3, dtype=complex)[:, i] for i in range(3)]

    def rot(c: int, d: int, theta: float, flip: bool) -> np.ndarray:
        if not flip:
            return _proj(np.cos(theta) * e[c] + np.sin(theta) * e[d])
        return _proj(np.sin(theta) * e[c] - np.cos(theta) * e[d])

    outcomes = [
        ("D1", (_proj(e[1]), _proj(e[1]))),
        ("D2", (_proj(e[0]), rot(0, 1, theta2, False))),
        ("D3", (_proj(e[0]), rot(0, 1, theta2, True))),
        ("D4", (_proj(e[2]), rot(1, 2, theta4, False))),
        ("D5", (_proj(e[2]), rot(1, 2, theta4, True))),
        ("D6", (rot(1, 2, theta6, False), _proj(e[0]))),
        ("D7", (rot(1, 2, theta6, True), _proj(e[0]))),
        ("D8", (rot(0, 1, theta8, False), _proj(e[2]))),
        ("D9", (rot(0, 1, theta8, True), _proj(e[2]))),
    ]
    parties = [Party("A", 3), Party("B", 3)]
    return SeparableMeasurement(parties, outcomes, np.ones(9))


def bennett_three_qubit() -> SeparableMeasurement:
    """Bennett et al.'s eight-state product basis of three qubits; outside
    LOCC.

    The outcomes project onto |000>, |111>, |01+>, |01->, |1+0>, |1-0>,
    |+01> and |-01>, with unit weights (Bennett et al., Phys. Rev. A 59,
    1070 (1999), quant-ph/9804053).  Each party meets the diagonal basis on
    one pair of outcomes, the pattern shifted from party to party, and no
    party can measure first: every root cone is one-dimensional.
    """
    plus = (_KET0 + _KET1) / np.sqrt(2)
    minus = (_KET0 - _KET1) / np.sqrt(2)
    kets = {"0": _KET0, "1": _KET1, "+": plus, "-": minus}
    labels = ["000", "111", "01+", "01-", "1+0", "1-0", "+01", "-01"]
    outcomes = [(label, tuple(_proj(kets[c]) for c in label)) for label in labels]
    parties = [Party("A", 2), Party("B", 2), Party("C", 2)]
    return SeparableMeasurement(parties, outcomes, np.ones(len(outcomes)))


# relations defining the seven-outcome family, shared with its docstring:
#   B1 = 2 B2 = 3 B3          A4 = (A1 + A2) / 2
#   B5 = (I - 2 B1 - B4) / 2  A5 = (A1 + A3) / 3
#   B6 = B1 + B4              A6 = I - A1 - A2
#   B7 = I - B1 - B4          A7 = I - A1 - A3
_SEVEN_WEIGHTS = np.array([2.0, 2.0, 3.0, 2.0, 6.0, 1.0, 1.0])
_SEVEN_MAX_ATTEMPTS = 10_000


def seven_outcome_family(seed: int = 0) -> SeparableMeasurement:
    """A random member of a seven-outcome two-qubit class needing four rounds.

    The local factors obey fixed linear relations (see module source) that
    make the measurement complete with weights (2,2,3,2,6,1,1), forbid any
    first measurement by party A, and leave party B a unique two-outcome
    start.  Free operators are rejection-sampled as scaled random PSD
    matrices until all derived operators are PSD and the spanning sets
    {I, A1, A2, A3} and {I, B1, B4} are linearly independent, which is all
    the protocol analysis relies on.
    """
    rng = np.random.default_rng(seed)
    eye = np.eye(2, dtype=complex)

    def random_psd(scale: float) -> np.ndarray:
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        p = g @ g.conj().T
        return scale * p / np.linalg.norm(p, 2)

    scale = 0.3
    for _ in range(_SEVEN_MAX_ATTEMPTS):
        a1 = random_psd(scale * rng.uniform(0.5, 1.0))
        a2 = random_psd(scale * rng.uniform(0.5, 1.0))
        a3 = random_psd(scale * rng.uniform(0.5, 1.0))
        b1 = random_psd(scale * rng.uniform(0.5, 1.0))
        b4 = random_psd(scale * rng.uniform(0.5, 1.0))
        derived_a = {
            4: (a1 + a2) / 2,
            5: (a1 + a3) / 3,
            6: eye - a1 - a2,
            7: eye - a1 - a3,
        }
        derived_b = {
            2: b1 / 2,
            3: b1 / 3,
            5: (eye - 2 * b1 - b4) / 2,
            6: b1 + b4,
            7: eye - b1 - b4,
        }
        candidates = [derived_a[6], derived_a[7], derived_b[5], derived_b[7]]
        if not all(is_psd(c) for c in candidates):
            scale *= 0.9
            continue
        a_stack = np.stack([eye, a1, a2, a3]).reshape(4, -1)
        b_stack = np.stack([eye, b1, b4]).reshape(3, -1)
        sa = np.linalg.svd(a_stack, compute_uv=False)
        sb = np.linalg.svd(b_stack, compute_uv=False)
        if sa[-1] < 1e-6 * sa[0] or sb[-1] < 1e-6 * sb[0]:
            continue
        a_ops = {1: a1, 2: a2, 3: a3, **derived_a}
        b_ops = {1: b1, 4: b4, **derived_b}
        outcomes = [
            (str(j), (a_ops[j], b_ops[j])) for j in range(1, 8)
        ]
        parties = [Party("A", 2), Party("B", 2)]
        return SeparableMeasurement(parties, outcomes, _SEVEN_WEIGHTS.copy())
    raise LoccForgeError(
        f"could not sample a valid member in {_SEVEN_MAX_ATTEMPTS} attempts")


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def conditional_basis(n_parties: int, dim: int, seed=0) -> SeparableMeasurement:
    """Rank-1 product measurement in which each party's basis depends on the
    outcomes of the parties before it.

    Party 0 measures in a random orthonormal basis; party k measures in a
    random basis drawn afresh for each string of outcomes of parties
    0..k-1.  Outcome (i_0, ..., i_{n-1}) is the product of the matching
    projectors and all weights are one, so the measurement is LOCC, by the
    n-round protocol that follows the party order, with root dims
    (dim, 1, ..., 1).  Total dimension and outcome count are dim**n_parties.
    ``seed`` is anything :func:`numpy.random.default_rng` accepts.
    """
    if n_parties < 2 or dim < 2:
        raise ValueError("need at least two parties of dimension at least two")
    rng = np.random.default_rng(seed)
    bases: dict[tuple[int, ...], np.ndarray] = {}
    outcomes = []
    for idx in product(range(dim), repeat=n_parties):
        factors = []
        for k, i in enumerate(idx):
            if idx[:k] not in bases:
                bases[idx[:k]] = _haar_unitary(dim, rng)
            factors.append(_proj(bases[idx[:k]][:, i]))
        outcomes.append(("-".join(map(str, idx)), tuple(factors)))
    parties = [Party(f"P{k}", dim) for k in range(n_parties)]
    return SeparableMeasurement(parties, outcomes, np.ones(len(outcomes)))


# name: (factory, the one command-line option it takes or None, the option's help)
CATALOG = {
    "qubit-pair": (qubit_pair, None, ""),
    "phase-five": (phase_five, None, ""),
    "bennett-three-qubit": (bennett_three_qubit, None, ""),
    "rotated-dominoes": (rotated_dominoes, "--theta",
                         "T2 T4 T6 T8 (each in (0, pi/4], default pi/4)"),
    "seven-outcome-family": (seven_outcome_family, "--seed", "N (default 0)"),
}
