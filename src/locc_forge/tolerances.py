"""Centralized numerical tolerance policy.

Every rank decision of the search (nullspace dimension, cone dimension,
independence of ray sets and of nonnegative least-squares columns) uses the
one cutoff of :func:`rank_threshold`, with the fixed factor
:data:`RANK_FACTOR`, because impossibility verdicts hinge on whether a
nullspace is exactly one-dimensional.  The cutoff is part of the method,
not a setting: no caller can change it.  The spans' frames are cut at
roundoff instead, eps times their size (``measurement.trimmed_r``), and no
conditioning limit refuses a span.  A one-dimensional root cone may be
decided without Q or the SVD, by the frame certificate of ``feasibility``,
but only where the rank rule provably agrees: the certificate bounds Q's
two smallest singular values against this cutoff and the marginal band,
with rounding bounds derived from eps, the bracket of Q's shape and the
magnitudes of Q's Gram, and falls back to the SVD whenever it cannot
prove the rule's answer.  It adds no tolerance.  The
residual tolerance
:data:`RESIDUAL_TOL` is fixed the same way: no caller sets a tolerance, and
the search has no round limit, so a verdict depends only on the measurement.

Most remaining constants are residual-style tolerances.  They are absolute
bounds on max-norm residuals of quantities that are O(1) by construction
(coefficient vectors are compared after L1 normalization, operators after
scaling by their largest entry).  Completeness, wherever it is measured
(the ``SeparableMeasurement`` constructor, with the given weights or the
ones it infers, the impossibility self-check and the verifier's root), and
the verifier's other operator checks are Frobenius norms, which bound the
max norm: all three read completeness through the measurement's joint R,
as the same quantity, and a tree the verifier passes at
:data:`RESIDUAL_TOL` passes max-norm checks too.  The
two ``NNLS_`` constants set the nonnegative least-squares solver's
roundoff floor and iteration limit.
"""

from __future__ import annotations

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

SPLIT_BOUND_MARGIN = 1e3
"""Factor by which the smallest singular value of a ray set must clear the
rank cutoff before ``cones.decompose`` trusts its least-squares solution
(prune on its residual, or take its scales) without a nonnegative
least-squares solve."""

NNLS_GRADIENT_FACTOR = 10.0
"""A column is a candidate to enter the passive set of ``cones.nnls`` when
its gradient a_j . r, per unit column norm, exceeds this many times
``max(rows, cols) * eps * |b|``; smaller gradients are roundoff."""

NNLS_ITERATIONS_PER_COLUMN = 3
"""``cones.nnls`` gives up after this many passive-set solves per column
(Lawson and Hanson's iteration limit of 3n)."""

MARGINAL_RANK_BAND = 10.0
"""Singular values within this factor of the rank cutoff trigger a warning."""

Q_ROW_FLOOR = 1e-13
"""``feasibility.build_q`` drops a row of Q whose largest entry is at most
this times max(1, Q's largest entry): an identically zero row, up to
roundoff."""


def rank_threshold(shape: tuple[int, int], sigma_max: float) -> float:
    """Singular-value cutoff for deciding the rank of a ``shape`` matrix.

    ``shape`` is the shape of the matrix whose rank is decided, not of a
    factor whose SVD is taken in its place: ``feasibility.nullspace``
    passes Q's shape when it takes the singular values from Q's R.
    """
    return max(shape) * sigma_max * RANK_FACTOR
