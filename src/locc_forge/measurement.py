"""Separable measurements: validation, completeness weights, local operator spans.

A separable measurement is an ordered list of product outcomes, one positive
local factor per party, together with nonnegative completeness weights w
satisfying sum_j w_j * O_j = I on the joint space.  Coefficient vectors used
by the protocol analysis are always expressed against the *unweighted*
outcome operators O_j; the weights are data of the measurement itself.

Outcome operators and weighted outcome operators are equivalent descriptions
up to rescaling of each outcome; this module stores whatever the caller
supplied and never renormalizes silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import NamedTuple, Sequence

import numpy as np
from scipy.optimize import nnls

from .errors import DimensionMismatchError, IncompleteMeasurementError
from .operators import (
    OperatorBasis,
    as_hermitian,
    independent_subset,
    is_psd,
    min_eigenvalue,
    tensor,
)
from .tolerances import RESIDUAL_TOL


@dataclass(frozen=True)
class Party:
    """A named subsystem with its local Hilbert-space dimension."""

    name: str
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"party {self.name!r} has dimension {self.dim}")


class Outcome(NamedTuple):
    label: str
    factors: tuple[np.ndarray, ...]


class SeparableMeasurement:
    """Ordered product outcomes with completeness weights.

    Parameters
    ----------
    parties : sequence of Party
    outcomes : sequence of (label, factors) pairs
        ``factors`` holds one Hermitian matrix per party, in party order.
    weights : array_like
        Nonnegative completeness weights, one per outcome.
    """

    def __init__(self, parties: Sequence[Party], outcomes: Sequence, weights):
        self.parties = tuple(parties)
        if not self.parties:
            raise ValueError("at least one party required")
        names = [p.name for p in self.parties]
        if len(set(names)) != len(names):
            raise ValueError("party names must be unique")
        if not any(p.dim >= 2 for p in self.parties):
            raise ValueError("at least one party must have dimension >= 2")

        packed = []
        first_with: dict[str, int] = {}
        for j, outcome in enumerate(outcomes):
            label, factors = outcome
            label = str(label)
            if label in first_with:
                raise ValueError(f"outcomes {first_with[label]} and {j} share the "
                                 f"label {label!r}; labels must be unique")
            first_with[label] = j
            if len(factors) != len(self.parties):
                raise DimensionMismatchError(
                    f"outcome {j} has {len(factors)} factors for {len(self.parties)} parties")
            checked = []
            for party, f in zip(self.parties, factors):
                f = as_hermitian(f)
                if f.shape[0] != party.dim:
                    raise DimensionMismatchError(
                        f"outcome {j}: factor for party {party.name!r} has dimension "
                        f"{f.shape[0]}, expected {party.dim}")
                checked.append(f)
            packed.append(Outcome(label, tuple(checked)))
        if not packed:
            raise ValueError("at least one outcome required")
        self.outcomes: tuple[Outcome, ...] = tuple(packed)

        w = np.asarray(weights, dtype=float)
        if w.shape != (len(self.outcomes),):
            raise DimensionMismatchError(
                f"{len(self.outcomes)} outcomes but weight vector of shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0) or not np.any(w > 0):
            raise ValueError("weights must be nonnegative with at least one positive")
        self.weights: np.ndarray = w
        self._complement_cache: dict[int, np.ndarray] = {}
        self._local_span_cache: dict[int, OperatorBasis] = {}
        self._complement_span_cache: dict[int, OperatorBasis] = {}
        self._pairing_cache: dict[int, object] = {}     # feasibility.PartyTables

    # -- basic geometry -------------------------------------------------

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(p.dim for p in self.parties)

    @property
    def total_dim(self) -> int:
        return prod(self.dims)

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    def party_index(self, name: str) -> int:
        for i, p in enumerate(self.parties):
            if p.name == name:
                return i
        raise KeyError(f"no party named {name!r}")

    def labels(self) -> list[str]:
        return [o.label for o in self.outcomes]

    # -- cached operator stacks -----------------------------------------

    @cached_property
    def outcome_operators(self) -> np.ndarray:
        """(n, D, D) stack of the joint product operators O_j."""
        return np.stack([tensor(o.factors) for o in self.outcomes])

    def local_factors(self, party: int) -> np.ndarray:
        """(n, d_p, d_p) stack of the named party's factors."""
        return np.stack([o.factors[party] for o in self.outcomes])

    def complement_factors(self, party: int) -> np.ndarray:
        """(n, D/d_p, D/d_p) stack of joint factors of all parties but one."""
        cached = self._complement_cache.get(party)
        if cached is None:
            rest = [
                [f for q, f in enumerate(o.factors) if q != party] or
                [np.eye(1, dtype=complex)]
                for o in self.outcomes
            ]
            cached = np.stack([tensor(fs) for fs in rest])
            self._complement_cache[party] = cached
        return cached


# -- validation ----------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str
    where: str
    magnitude: float

    def __str__(self) -> str:
        return f"{self.kind} at {self.where}: {self.magnitude:.3e}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]
    completeness_residual: float

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(m: SeparableMeasurement, residual_tol: float = RESIDUAL_TOL) -> ValidationReport:
    """Check positivity of every factor and completeness with the stored weights.

    Violations are reported as data with their magnitudes, not raised.
    """
    violations: list[Violation] = []
    for j, outcome in enumerate(m.outcomes):
        for p, factor in zip(m.parties, outcome.factors):
            if not is_psd(factor):
                violations.append(Violation(
                    "negative factor",
                    f"outcome {outcome.label!r}, party {p.name!r}",
                    min_eigenvalue(factor)))
    total = np.einsum("j,jab->ab", m.weights, m.outcome_operators)
    residual = float(np.abs(total - np.eye(m.total_dim)).max())
    if not residual <= residual_tol:     # a NaN residual is a violation too
        violations.append(Violation("incomplete", "weighted outcome sum", residual))
    return ValidationReport(tuple(violations), residual)


def infer_weights(outcome_operators: np.ndarray,
                  residual_tol: float = RESIDUAL_TOL) -> np.ndarray:
    """Nonnegative weights solving sum_j w_j O_j = I, or raise.

    Solved as nonnegative least squares on the realified vectorization.
    """
    ops = np.asarray(outcome_operators, dtype=complex)
    n, dim = ops.shape[0], ops.shape[1]
    cols = ops.reshape(n, -1).T
    a = np.vstack([cols.real, cols.imag])
    b = np.concatenate([np.eye(dim).ravel(), np.zeros(dim * dim)])
    w, _ = nnls(a, b)
    total = np.einsum("j,jab->ab", w, ops)
    residual = float(np.abs(total - np.eye(dim)).max())
    if residual > residual_tol:
        raise IncompleteMeasurementError(
            f"no nonnegative weights complete the measurement (residual {residual:.3e})")
    w[w < 0] = 0.0
    return w


# -- operator spans ------------------------------------------------------


def local_span(m: SeparableMeasurement, party: int) -> OperatorBasis:
    """Basis of the span of one party's outcome factors, greedy in outcome order.

    Built once per party and cached on the measurement.
    """
    cached = m._local_span_cache.get(party)
    if cached is None:
        factors = list(m.local_factors(party))
        idx = independent_subset(factors)
        cached = OperatorBasis([factors[i] for i in idx], check=False)
        m._local_span_cache[party] = cached
    return cached


def complement_span(m: SeparableMeasurement, party: int) -> OperatorBasis:
    """Basis of the span of the joint factors of all parties except one.

    The excluded party's bystanders are treated as a single joint system, so
    multi-party measurements reduce to the two-sided analysis.  Built once
    per party and cached on the measurement.
    """
    cached = m._complement_span_cache.get(party)
    if cached is None:
        joint = list(m.complement_factors(party))
        idx = independent_subset(joint)
        cached = OperatorBasis([joint[i] for i in idx], check=False)
        m._complement_span_cache[party] = cached
    return cached
