"""Metamorphic properties of the search: reordering outcomes, reordering
parties, conjugating every factor by a local unitary and rescaling an
outcome against its weight do not change whether a measurement is LOCC.
The verdict must not move, the root cone dimensions must follow the
parties, and every protocol found must pass the independent verifier.
These guard the rank decisions behind the root dimensions and the cones at
every node."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EYE2, P0, P1
from locc_forge.cones import ConeError
from locc_forge.errors import InconsistentNodeError
from locc_forge import (
    Party,
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


@pytest.mark.parametrize("s", [1e5, 1e6])
def test_an_outcome_scaled_far_up_still_splits(s):
    """A measures {s P0 (x) I, P1 (x) I} with weights (1/s, 1): the root
    splits into the two outcomes though their weights lie five and six
    decades apart, where the ray e_2 is within 1e-9 of the parent in
    cosine."""
    m = SeparableMeasurement([Party("A", 2), Party("B", 2)],
                             [("0", (s * P0, EYE2)), ("1", (P1, EYE2))], [1 / s, 1.0])
    cert = synthesize(m)
    assert cert.verdict == Verdict.PROTOCOL_FOUND and cert.root_dims == (2, 1)
    assert verify_tree(cert.tree, m).passed


def test_six_decades_of_rescaling_keep_the_verdict():
    m, original = _original("conditional-3x2", 1)
    scales = 10 ** np.random.default_rng(1).uniform(-3, 3, m.n_outcomes)
    parties = list(range(len(m.parties)))
    _assert_equivalent(original, parties,
                       _transformed(m, range(m.n_outcomes), parties, scales=scales))


def _uniformly_scaled(m: SeparableMeasurement, s: float) -> SeparableMeasurement:
    """Every factor multiplied by s and every weight divided by s to the
    number of parties: the same outcome operators' weighted sums."""
    outcomes = [(o.label, [s * f for f in o.factors]) for o in m.outcomes]
    return SeparableMeasurement(m.parties, outcomes,
                                np.asarray(m.weights) / s ** len(m.parties))


def _fails_with(error):
    return pytest.mark.xfail(raises=error, strict=True,
                             reason="the root's full route fails at this scale")


@pytest.mark.parametrize("n, d, s", [(2, 3, 30), (2, 3, 100), (2, 3, 1000),
                                     (2, 5, 100), (2, 5, 1000),
                                     (3, 3, 10), (3, 3, 30), (3, 3, 100),
                                     pytest.param(2, 3, 1e4, marks=_fails_with(ConeError)),
                                     pytest.param(2, 5, 1e4, marks=_fails_with(ConeError)),
                                     pytest.param(3, 3, 1000,
                                                  marks=_fails_with(InconsistentNodeError))])
def test_every_factor_scaled_up_keeps_the_protocol(n, d, s):
    """A final mover's cone is read from the factors' equality, not from
    Q's rows of roundoff, which grow with the scale and can clear
    ``build_q``'s absolute row floor (an empty nullspace).  Three larger
    scales still fail at the root, in the full route of cones the frame
    certificate leaves: 2x3 and 2x5 at 1e4 find no ray in party 0's cone,
    and 3x3 at 1000 fails the parent-residual test of every party's."""
    m = conditional_basis(n, d, 0)
    original = synthesize(m)
    moved = _uniformly_scaled(m, s)
    cert = synthesize(moved)
    assert cert.verdict == Verdict.PROTOCOL_FOUND
    assert cert.root_dims == original.root_dims
    assert cert.tree.depth() == original.tree.depth()
    assert verify_tree(cert.tree, moved).passed
