"""Metamorphic properties of the search: reordering outcomes, reordering
parties, conjugating every factor by a local unitary and rescaling an
outcome against its weight do not change whether a measurement is LOCC.
The verdict must not move, the root cone dimensions must follow the
parties, and every protocol found must pass the independent verifier.
These guard the rank decisions behind the root dimensions and the cones at
every node."""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from locc_forge import (
    SeparableMeasurement,
    Verdict,
    conditional_basis,
    phase_five,
    qubit_pair,
    rotated_dominoes,
    seven_outcome_family,
    synthesize,
    verify_tree,
)

_BUILDERS = {
    "qubit-pair": lambda seed: qubit_pair(),
    "phase-five": lambda seed: phase_five(),
    "rotated-dominoes": lambda seed: rotated_dominoes(),
    "seven-outcome-family": seven_outcome_family,
    "conditional-2x3": lambda seed: conditional_basis(2, 3, seed),
    "conditional-3x2": lambda seed: conditional_basis(3, 2, seed),
}

_CASES = st.tuples(st.sampled_from(sorted(_BUILDERS)), st.integers(0, 20))


@lru_cache(maxsize=None)
def _original(name: str, seed: int):
    m = _BUILDERS[name](seed)
    return m, synthesize(m)


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _transformed(m: SeparableMeasurement, outcome_order, party_order,
                 unitaries=None, scales=None) -> SeparableMeasurement:
    """The measurement with outcomes and parties reordered, every factor of
    party p conjugated by ``unitaries[p]``, and outcome j's first factor
    multiplied and its weight divided by ``scales[j]``."""
    if unitaries is None:
        unitaries = [np.eye(d) for d in m.dims]
    if scales is None:
        scales = np.ones(m.n_outcomes)
    outcomes = []
    for j in outcome_order:
        factors = [unitaries[p] @ m.outcomes[j].factors[p] @ unitaries[p].conj().T
                   for p in party_order]
        factors[0] = scales[j] * factors[0]
        outcomes.append((m.outcomes[j].label, factors))
    weights = [m.weights[j] / scales[j] for j in outcome_order]
    return SeparableMeasurement([m.parties[p] for p in party_order], outcomes, weights)


def _assert_equivalent(original, party_order, moved: SeparableMeasurement):
    cert = synthesize(moved)
    assert cert.verdict == original.verdict
    assert cert.root_dims == tuple(original.root_dims[p] for p in party_order)
    if cert.verdict == Verdict.PROTOCOL_FOUND:
        assert verify_tree(cert.tree, moved).passed


@given(_CASES, st.data())
@settings(max_examples=12, deadline=None)
def test_outcome_permutation_keeps_the_verdict(case, data):
    m, original = _original(*case)
    order = data.draw(st.permutations(range(m.n_outcomes)))
    parties = list(range(len(m.parties)))
    _assert_equivalent(original, parties, _transformed(m, order, parties))


@given(_CASES, st.data())
@settings(max_examples=12, deadline=None)
def test_party_permutation_permutes_the_root_dims(case, data):
    m, original = _original(*case)
    parties = data.draw(st.permutations(range(len(m.parties))))
    _assert_equivalent(original, parties,
                       _transformed(m, range(m.n_outcomes), parties))


@given(_CASES, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=12, deadline=None)
def test_local_unitaries_keep_the_verdict(case, seed):
    m, original = _original(*case)
    rng = np.random.default_rng(seed)
    unitaries = [_haar_unitary(d, rng) for d in m.dims]
    parties = list(range(len(m.parties)))
    _assert_equivalent(original, parties,
                       _transformed(m, range(m.n_outcomes), parties, unitaries))


@given(_CASES, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=12, deadline=None)
def test_rescaling_outcomes_against_their_weights_keeps_the_verdict(case, seed):
    m, original = _original(*case)
    scales = np.random.default_rng(seed).uniform(0.2, 5.0, size=m.n_outcomes)
    parties = list(range(len(m.parties)))
    _assert_equivalent(original, parties,
                       _transformed(m, range(m.n_outcomes), parties, scales=scales))
