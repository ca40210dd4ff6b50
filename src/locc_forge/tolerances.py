"""Centralized numerical tolerance policy.

Every rank decision in the library (operator independence, nullspace
dimension, cone dimension) uses the cutoff formula of
:func:`rank_threshold`, because impossibility verdicts hinge on whether a
nullspace is exactly one-dimensional.  The factor of the nullspace decision
is a user knob, ``Tolerances.rank_factor``, recorded in every certificate;
span selection and the Gram condition check keep the module constants
:data:`RANK_FACTOR` and :data:`GRAM_CONDITION_LIMIT`.

The remaining constants are residual-style tolerances.  They are absolute
bounds on max-norm residuals of quantities that are O(1) by construction
(coefficient vectors are compared after L1 normalization, operators after
scaling by their largest entry).
"""

from __future__ import annotations

from dataclasses import dataclass

RANK_FACTOR = 1e-11
"""Rank cutoff is ``max(rows, cols) * sigma_max * RANK_FACTOR``."""

HERMITICITY_TOL = 1e-10
"""Max-norm asymmetry allowed in a Hermitian matrix, relative to its largest entry."""

PSD_TOL = 1e-9
"""Eigenvalue floor for positivity, relative to the largest eigenvalue magnitude."""

RESIDUAL_TOL = 1e-8
"""Reconstruction, completeness, factorization, and decomposition residuals."""

NULLSPACE_RESIDUAL_TOL = 1e-9
"""Allowed |Q v| for nullspace vectors and extreme rays."""

SCALE_TOL = 1e-9
"""Smallest admissible scale in a ray decomposition."""

DUPLICATE_TOL = 1e-8
"""Cosine distance below which two rays count as the same ray."""

LEAF_SUPPORT_TOL = 1e-9
"""Relative size of the second-largest coefficient at a single-outcome leaf."""

GRAM_CONDITION_LIMIT = 1e12
"""Gram matrices worse conditioned than this are rejected as degenerate."""

MARGINAL_RANK_BAND = 10.0
"""Singular values within this factor of the rank cutoff trigger a warning."""


def rank_threshold(shape: tuple[int, int], sigma_max: float,
                   factor: float = RANK_FACTOR) -> float:
    """Singular-value cutoff for deciding the rank of a ``shape`` matrix."""
    return max(shape) * sigma_max * factor


@dataclass(frozen=True)
class Tolerances:
    """User-overridable knobs, threaded through feasibility analysis and search.

    ``rank_factor`` scales the rank cutoff of each constraint matrix's
    nullspace (:func:`locc_forge.feasibility.nullspace`), which sets every
    cone dimension; span selection and the Gram condition check do not read
    it.  ``residual`` bounds the max-norm residual checks.  The fixed
    module-level constants cover the rest.
    """

    rank_factor: float = RANK_FACTOR
    residual: float = RESIDUAL_TOL

    def rank_threshold(self, shape: tuple[int, int], sigma_max: float) -> float:
        return rank_threshold(shape, sigma_max, self.rank_factor)

    def as_dict(self) -> dict[str, float]:
        return {"rank_factor": self.rank_factor, "residual": self.residual}


DEFAULT_TOL = Tolerances()
