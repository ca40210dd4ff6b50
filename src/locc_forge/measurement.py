"""Separable measurements: the checks that make one, completeness weights,
local operator spans.

A separable measurement is an ordered list of product outcomes, one positive
local factor per party, together with nonnegative completeness weights w
satisfying sum_j w_j * O_j = I on the joint space.  The constructor of
:class:`SeparableMeasurement` is the one place where this is checked, so
every measurement that exists is one: the search, its verdicts and the
verifier never see input that is not.  Coefficient vectors used by the
protocol analysis are always expressed against the *unweighted* outcome
operators O_j; the weights are data of the measurement itself.

Outcome operators and weighted outcome operators are equivalent descriptions
up to rescaling of each outcome; this module never rescales either.  Each
factor, once checked as Hermitian within tolerance, is stored as its
Hermitian part, which is a copy of the supplied matrix when that is
exactly Hermitian.  The storage is one read-only (n, d_p, d_p) stack per
party; an outcome's factors are views into the stacks, and the outcome
operators are formed from them by broadcasting, one product per party.
The constructor checks shapes, dimensions and labels in one pass over the
outcomes and the factors' numbers in one pass per party's stack
(:func:`operators.hermitian_parts`), and still names the first defect in
(outcome, party) order.

The measurement owns the real frames that its completeness check, the
search and the verifier read: each party's (:func:`identity_r`), each cut's
other-parties side and the joint R, each built once, on first use, and
stored read-only.  The constructor's completeness check builds the
parties' frames and the joint R; each cut's side waits for the first
reader of that party's (:meth:`SeparableMeasurement.cut_r`), so a root
check builds only the sides of the parties its certificate leaves.  So
does :attr:`SeparableMeasurement.outcomes_independent`, the certificate that
the outcome operators are linearly independent with room to spare, which
lets the search skip a party that cannot move without building its Q.  It
is built on first use, from one SVD of the joint R's outcome columns, and
reads every cut side's row count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod, sqrt
from typing import NamedTuple, Sequence

import numpy as np

from . import cones
from .errors import IncompleteMeasurementError, MeasurementFormatError
from .operators import (NUMERIC_DEFECTS, hermitian_parts, hermitian_vectors, independent_subset,
                        product_r, square_matrix, tensor)
from .tolerances import MARGINAL_RANK_BAND, PSD_TOL, Q_ROW_FLOOR, RANK_FACTOR, RESIDUAL_TOL


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
        ``factors`` holds one positive semidefinite Hermitian matrix per
        party, in party order.
    weights : array_like, optional
        Nonnegative completeness weights, one per outcome.  When omitted
        they are inferred by nonnegative least squares on :attr:`joint_r`.

    The constructor checks, in this order, the structure, that every factor
    is positive semidefinite (:func:`operators.is_psd`'s rule, read from the
    cached spectra; a NaN eigenvalue fails), the weights' format, and
    completeness: the Frobenius norm of sum_j w_j O_j - I, read through
    :attr:`joint_r`, whose columns keep the trace pairings, must be at most
    RESIDUAL_TOL, and a NaN residual fails.  Every refusal is a
    :class:`MeasurementFormatError` whose location is the path of the
    offending field in the JSON format of :mod:`locc_forge.io`, such as
    ``outcomes[2].factors[1]`` for the first negative factor in (outcome,
    party) order; an incomplete sum is an
    :class:`IncompleteMeasurementError`, located at ``outcomes``.

    Shapes, dimensions and labels are checked in one pass over the
    outcomes, and each factor's numbers (:func:`operators.as_hermitian`'s
    rule) in one pass per party's stack; the refusal is the one the
    per-factor order meets first: each outcome's factors in party order, a
    factor's numbers before its party's dimension, its factors before its
    label.

    What was checked cannot change afterwards: the weights are copied, and
    they and each party's factor stack, of which every factor is a view,
    are stored read-only.  A write to the caller's arrays leaves the
    measurement as it was, and a write to the measurement's raises at once.
    """

    def __init__(self, parties: Sequence[Party], outcomes: Sequence, weights=None):
        self.parties = tuple(parties)
        if not self.parties:
            raise MeasurementFormatError("at least one party required", "parties")
        for i, p in enumerate(self.parties):
            if p.name in (q.name for q in self.parties[:i]):
                raise MeasurementFormatError(f"party name {p.name!r} is taken",
                                             f"parties[{i}].name")
        if not any(p.dim >= 2 for p in self.parties):
            raise MeasurementFormatError("at least one party must have dimension >= 2",
                                         "parties")

        columns: list[list[np.ndarray]] = [[] for _ in self.parties]
        labels: list[str] = []
        structural = None
        try:            # the cheap per-factor checks; the numeric ones follow per party
            first_with: dict[str, int] = {}
            for j, (label, factors) in enumerate(outcomes):
                where = f"outcomes[{j}]"
                if len(factors) != len(self.parties):
                    raise MeasurementFormatError(
                        f"{len(factors)} factors for {len(self.parties)} parties",
                        f"{where}.factors")
                for k, (party, column, f) in enumerate(zip(self.parties, columns, factors)):
                    try:
                        f = square_matrix(f)
                    except ValueError as exc:
                        raise MeasurementFormatError(str(exc), f"{where}.factors[{k}]") from None
                    if f.shape[0] != party.dim:     # its numbers are named first
                        defect = int(hermitian_parts(f[None])[1][0])
                        message = NUMERIC_DEFECTS[defect - 1] if defect else (
                            f"dimension {f.shape[0]} does not match party {party.name!r} "
                            f"(dim {party.dim})")
                        raise MeasurementFormatError(message, f"{where}.factors[{k}]")
                    column.append(f)
                label = str(label)
                if label in first_with:
                    raise MeasurementFormatError(f"outcomes {first_with[label]} and {j} share "
                                                 f"the label {label!r}", f"{where}.label")
                first_with[label] = j
                labels.append(label)
            if not labels:
                raise MeasurementFormatError("at least one outcome required", "outcomes")
        except Exception as exc:
            structural = exc
        # a numeric defect before the structural one in (outcome, party) order
        # is the one named
        stacks = _hermitian_stacks(columns)
        if structural is not None:
            raise structural
        self._stacks = stacks
        self.outcomes: tuple[Outcome, ...] = _outcome_views(labels, stacks)

        spectra = self._factor_spectra
        negative = np.stack([~(e[:, 0] >= -PSD_TOL * np.maximum(1.0, np.abs(e).max(axis=1)))
                             for e in spectra], axis=1)
        if negative.any():
            j, k = np.argwhere(negative)[0]
            raise MeasurementFormatError(f"factor is not positive semidefinite (smallest "
                                         f"eigenvalue {spectra[k][j, 0]:.3e})",
                                         f"outcomes[{j}].factors[{k}]")

        n = len(self.outcomes)
        if weights is None:         # nonnegative least squares on the joint R
            w, _ = cones.nnls(self.joint_r[:, :n], self.joint_r[:, n])
            w[w < 0] = 0.0
        else:
            w = np.array(weights, dtype=float)
            if w.shape != (n,):
                raise MeasurementFormatError(
                    f"{n} outcomes but weight vector of shape {w.shape}", "outcomes")
            bad = np.flatnonzero(~(np.isfinite(w) & (w >= 0)))
            if bad.size:
                raise MeasurementFormatError("weight must be a finite nonnegative number",
                                             f"outcomes[{bad[0]}].weight")
        residual = float(np.linalg.norm(self.joint_r @ np.append(w, -1.0)))
        if not residual <= RESIDUAL_TOL:     # a NaN residual fails too
            which = "no nonnegative weights" if weights is None else "the weights do not"
            raise IncompleteMeasurementError(
                f"incomplete: {which} bring the weighted outcome sum to the identity "
                f"(residual {residual:.3e} in the Frobenius norm)")
        self.weights: np.ndarray = _frozen(w)

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

    def labels(self) -> list[str]:
        return [o.label for o in self.outcomes]

    # -- cached operator stacks -----------------------------------------

    @cached_property
    def outcome_operators(self) -> np.ndarray:
        """(n, D, D) stack of the joint product operators O_j, formed from the
        factor stacks by one broadcast product per party after the first."""
        out = _kron_stack(self._stacks, self.n_outcomes)
        return out.copy() if len(self._stacks) == 1 else out

    def local_factors(self, party: int) -> np.ndarray:
        """(n, d_p, d_p) stack of the named party's factors: the
        measurement's storage of them, read-only."""
        return self._stacks[party]

    # -- cached frames: built once, read-only -------------------------------

    @cached_property
    def party_rs(self) -> tuple[np.ndarray, ...]:
        """Each party's :func:`identity_r` of its factors.  A product's Gram
        is the entrywise product of its parties' Grams, so :func:`product_r`
        of these is an R of the outcome operators and the identity, and of
        the other parties' an R of their side of a cut."""
        return tuple(_frozen(identity_r(stack)) for stack in self._stacks)

    def cut_r(self, party: int) -> np.ndarray:
        """The other-parties side of the cut (party | rest): a frame, with
        the identity on the other parties as column n, of the joint factors
        C_j = (x)_{q != party} F_j^q.  It is the other party's frame when
        there is one, else the :func:`product_r` of theirs trimmed by
        :func:`trimmed_r`'s rule, so it has the side's span dimension.  Each
        side is built on first use, so a root check whose certificate
        settles a party never folds that party's side."""
        side = self._cut_sides.get(party)
        if side is None:
            others = self.party_rs[:party] + self.party_rs[party + 1:]
            side = others[0] if len(others) == 1 else \
                _frozen(trimmed_r(product_r(others, self.n_outcomes + 1)))
            self._cut_sides[party] = side
        return side

    @cached_property
    def _cut_sides(self) -> dict[int, np.ndarray]:
        """The cut sides built so far, by party."""
        return {}

    @cached_property
    def joint_r(self) -> np.ndarray:
        """The :func:`product_r` of every party's frame: an R of the outcome
        operators and, as column n, the identity."""
        return _frozen(product_r(self.party_rs, self.n_outcomes + 1))

    @cached_property
    def outcomes_independent(self) -> bool:
        """Whether the outcome operators are certified linearly independent,
        with room to spare for every rank decision of the search.

        The certificate bounds sigma_min / sigma_max of the outcome
        operators' vectorizations, which are J = ``joint_r[:, :n]``'s, and
        accepts when it exceeds 4 ``MARGINAL_RANK_BAND`` ``RANK_FACTOR``
        rows, rows being the largest shape any node's Q can have: r_p (r_c -
        1) for party p's frame and cut side, or n.  It also asks
        sigma_min >= ``Q_ROW_FLOOR`` sqrt(2 rows n), so that rows
        ``feasibility.build_q`` drops as zero move no singular value by more
        than a factor sqrt(2) (see ``engine``, which reads the certificate).

        Built on first use, by the first party the search finds unable to
        move, from one SVD of J: on conditional_basis(9, 2, 0), n = 512,
        with its frames built, 29 ms; at 6x3, n = 729, 102 ms (shared 2-core
        x86 host, one BLAS thread).
        """
        n, rs = self.n_outcomes, self.party_rs
        rows = max([n] + [len(a) * (len(self.cut_r(p)) - 1) for p, a in enumerate(rs)])
        need = 4.0 * MARGINAL_RANK_BAND * RANK_FACTOR * rows
        floor = Q_ROW_FLOOR * sqrt(2.0 * rows * n)
        if need >= 1.0 or len(self.joint_r) < n:
            return False
        sigma = np.linalg.svd(self.joint_r[:, :n], compute_uv=False)
        return bool(sigma[-1] >= need * sigma[0] and sigma[-1] >= floor)

    @cached_property
    def _factor_spectra(self) -> tuple[np.ndarray, ...]:
        """Each party's (n, d_p) ascending factor eigenvalues, one eigvalsh
        per party's factor stack."""
        return tuple(_frozen(np.linalg.eigvalsh(stack)) for stack in self._stacks)

    @cached_property
    def extreme_eigenvalues(self) -> np.ndarray:
        """(2, n): the smallest and the largest eigenvalue of each O_j.  Those
        of O_j = (x)_q F_j^q are extreme products of its factors' extreme
        eigenvalues."""
        low = high = np.ones(self.n_outcomes)
        for eigs in self._factor_spectra:
            ends = np.stack([low * eigs[:, 0], low * eigs[:, -1],
                             high * eigs[:, 0], high * eigs[:, -1]])
            low, high = ends.min(axis=0), ends.max(axis=0)
        return _frozen(np.stack([low, high]))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _hermitian_stacks(columns: list[list[np.ndarray]]) -> tuple[np.ndarray, ...]:
    """Each party's factors stacked as their :func:`hermitian_parts`, read-only,
    refusing the first factor in (outcome, party) order that has a numeric
    defect.  Columns may differ in length, as when a structural defect
    stopped the outcomes early; empty ones are left out."""
    stacks, first = [], None
    for k, column in enumerate(columns):
        if column:
            h, defect = hermitian_parts(np.stack(column))
            stacks.append(_frozen(h))
            bad = np.flatnonzero(defect)
            if bad.size and (first is None or bad[0] < first[0]):   # ties go to the lower k
                first = (int(bad[0]), k, NUMERIC_DEFECTS[defect[bad[0]] - 1])
    if first is not None:
        j, k, message = first
        raise MeasurementFormatError(message, f"outcomes[{j}].factors[{k}]")
    return tuple(stacks)


def _outcome_views(labels: Sequence[str], stacks: Sequence[np.ndarray]) -> tuple[Outcome, ...]:
    """The labelled outcomes, each factor a view into its party's stack."""
    return tuple(Outcome(label, factors)
                 for label, factors in zip(labels, zip(*map(list, stacks))))


def factor_operands(m: SeparableMeasurement) -> list:
    """:func:`numpy.einsum` operands of the factor stacks, each followed by its
    labels: 0 is the outcome, 1 + q party q's row and 1 + k + q its column."""
    k = len(m.dims)
    return [x for q in range(k) for x in (m.local_factors(q), [0, 1 + q, 1 + k + q])]


def _kron_stack(stacks: Sequence[np.ndarray], n: int) -> np.ndarray:
    """(n, a, a) stack of the outcomes' Kronecker products of (n, d_q, d_q)
    factor stacks, in order; (n, 1, 1) ones when there are none."""
    out = stacks[0] if len(stacks) else np.ones((n, 1, 1))
    for s in stacks[1:]:
        a, d = out.shape[1], s.shape[1]
        out = (out[:, :, None, :, None] * s[:, None, :, None, :]).reshape(n, a * d, a * d)
    return out


def reconstruct(m: SeparableMeasurement, coeffs) -> np.ndarray:
    """The joint operator sum_j c_j O_j, formed with no (n, D, D) stack: the
    outcomes' products over the first half of the parties and over the
    rest are joined by one matrix product, c scaling the second half.  A
    half whose product overflows makes the sum NaN even where c_j = 0."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (m.n_outcomes,):
        raise ValueError(f"expected {m.n_outcomes} coefficients, got shape {c.shape}")
    stacks = [m.local_factors(q) for q in range(len(m.parties))]
    n, half = len(c), len(stacks) // 2
    left, right = _kron_stack(stacks[:half], n), _kron_stack(stacks[half:], n)
    a, b = left.shape[1], right.shape[1]
    out = left.reshape(n, a * a).T @ (c[:, None] * right.reshape(n, b * b))
    return out.reshape(a, a, b, b).transpose(0, 2, 1, 3).reshape(a * b, a * b)


def trimmed_r(h: np.ndarray) -> np.ndarray:
    """A frame of the columns of a real matrix H with its span's dimension:
    its columns keep their dot products, and a slice of leading columns is
    a frame of those columns alone.

    H is split as H~ D, D the diagonal of its column norms (1 for a zero
    column).  With U_k the left singular vectors of H~ whose singular
    values exceed max(H.shape) * eps * sigma_1, the frame is U_k^T H, so k
    is the span's dimension and not min(H.shape).  |R x| = |U_k U_k^T H x|
    differs from |H x| by at most sigma_(k+1) |D x| <= sigma_(k+1) sum_j
    |x_j| |h_j|, with sigma_1 <= sqrt(columns), and the product U_k^T H
    errs by eps times each column's norm: both are of the form of the
    backward error of a Householder R of H, so residuals read through the
    frame are as rigorous as through that R however the columns are scaled.
    """
    norms = np.linalg.norm(h, axis=0)
    norms[norms == 0] = 1.0
    u, sigma, _ = np.linalg.svd(h / norms, full_matrices=False)
    k = int(np.count_nonzero(sigma > max(h.shape) * np.finfo(float).eps * sigma[0]))
    return u[:, :k].T @ h


def identity_r(ops: np.ndarray) -> np.ndarray:
    """Real (k, n + 1) :func:`trimmed_r` frame of the
    :func:`hermitian_vectors` of an (n, d, d) stack and, as column n, the
    identity: R[:, :n] is a frame of the stack alone, and k the dimension
    of the span of the stack and the identity."""
    return trimmed_r(hermitian_vectors(np.concatenate([ops, np.eye(ops.shape[1])[None]])).T)


# -- operator spans ------------------------------------------------------


def local_span(m: SeparableMeasurement, party: int) -> np.ndarray:
    """(k, d_p, d_p) basis of the span of one party's outcome factors, greedy
    in outcome order."""
    factors = m.local_factors(party)
    return factors[independent_subset(list(factors))]


def complement_span(m: SeparableMeasurement, party: int) -> np.ndarray:
    """(k, D/d_p, D/d_p) basis of the span of the joint factors of all parties
    except one, greedy in outcome order.

    The excluded party's bystanders are treated as a single joint system, so
    multi-party measurements reduce to the two-sided analysis.
    """
    joint = np.stack([tensor([f for q, f in enumerate(o.factors) if q != party]
                             or [np.eye(1)]) for o in m.outcomes])
    return joint[independent_subset(list(joint))]
