from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EYE2, P0, PPLUS, SIGMA_X, SIGMA_Z
from locc_forge import seven_outcome_family
from locc_forge.operators import (
    as_hermitian,
    embed_at,
    hermitian_vectors,
    independent_subset,
    is_psd,
    khatri_rao,
    project_factor,
    tensor,
)
from locc_forge.tolerances import rank_threshold
from oracles import complement_factors, greedy_svd_independent_subset, hand_kron


class TestTensor:
    def test_rank_one_projector_product(self):
        out = tensor([P0, P0])
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.array_equal(out, expected)

    def test_identity_product(self):
        assert np.array_equal(tensor([EYE2, EYE2]), np.eye(4))

    def test_projector_cross_block(self):
        # hand expansion: [0] (x) [+] has the 1/2-filled block at rows/cols {0,1}
        out = tensor([P0, PPLUS])
        assert np.allclose(out, hand_kron(P0, PPLUS))
        assert np.allclose(out[:2, :2], 0.5 * np.ones((2, 2)))
        assert np.abs(out[2:, :]).max() == 0.0
        assert np.abs(out[:, 2:]).max() == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tensor([])

    def test_three_factor_order(self):
        a, b, c = P0, SIGMA_X, np.eye(3, dtype=complex)
        assert np.array_equal(tensor([a, b, c]), hand_kron(hand_kron(a, b), c))


# dyadic entries keep every product exact, so associativity holds bitwise
_dyadic = st.integers(-8, 8).map(lambda n: n / 4.0)


def _herm2(diag0, diag1, re, im):
    return np.array([[diag0, re + 1j * im], [re - 1j * im, diag1]])


@given(*(st.tuples(_dyadic, _dyadic, _dyadic, _dyadic) for _ in range(3)))
@settings(max_examples=50, deadline=None)
def test_tensor_associative_on_exact_entries(ta, tb, tc):
    a, b, c = (_herm2(*t) for t in (ta, tb, tc))
    left = tensor([tensor([a, b]), c])
    right = tensor([a, tensor([b, c])])
    assert np.array_equal(left, right)


class TestRealCoordinates:
    def test_hermitian_vectors_pair_as_traces(self):
        rng = np.random.default_rng(5)
        for d in (1, 2, 3, 5):
            g = rng.standard_normal((4, d, d)) + 1j * rng.standard_normal((4, d, d))
            ops = g + g.conj().transpose(0, 2, 1)
            vecs = hermitian_vectors(ops)
            assert vecs.shape == (4, d * d) and vecs.dtype == np.float64
            traces = np.einsum("mij,nji->mn", ops, ops).real
            assert np.abs(vecs @ vecs.T - traces).max() <= 1e-12 * np.abs(traces).max()
            assert np.array_equal(vecs[:, :d], np.diagonal(ops, axis1=1, axis2=2).real)

    def test_khatri_rao_is_a_kron_per_column(self):
        rng = np.random.default_rng(6)
        tables = [rng.standard_normal((k, 5)) for k in (2, 3, 1, 4)]
        got = khatri_rao(tables, 5)
        assert got.shape == (24, 5)
        for j in range(5):
            want = np.ones(1)
            for t in tables:
                want = np.kron(want, t[:, j])
            assert np.array_equal(got[:, j], want)
        assert np.array_equal(khatri_rao([], 3), np.ones((1, 3)))

    def test_independent_subset_chooses_real_vectors_as_complex_ones(self):
        rng = np.random.default_rng(7)
        base = rng.standard_normal((3, 10))
        vecs = np.vstack([base, base[:2].sum(axis=0), rng.standard_normal((2, 10))])
        got = independent_subset(list(vecs))
        assert got == independent_subset(list(vecs.astype(complex))) == [0, 1, 2, 4, 5]
        assert got == greedy_svd_independent_subset(list(vecs))


class TestIndependentSubset:
    def test_sum_is_dependent(self):
        assert independent_subset([EYE2, SIGMA_Z, EYE2 + SIGMA_Z]) == [0, 1]

    def test_seven_outcome_family_spans(self):
        m = seven_outcome_family(3)
        a = [o.factors[0] for o in m.outcomes]
        ops = [EYE2, a[0], a[1], a[2]]
        assert independent_subset(ops) == [0, 1, 2, 3]

    def test_random_hermitians_capped_at_space_dimension(self):
        rng = np.random.default_rng(11)
        ops = []
        for _ in range(20):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            ops.append((g + g.conj().T) / 2)
        # the Hermitian operators on C^3 form a 9-dimensional real space
        assert len(independent_subset(ops)) == 9

    def test_all_zero(self):
        assert independent_subset([np.zeros((2, 2))] * 3) == []

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            independent_subset([EYE2, np.full((2, 2), np.nan)])


# -- the incremental rank test against the greedy-SVD reference ---------------


def _random_hermitians(rng, n, d):
    g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    return list((g + g.conj().transpose(0, 2, 1)) / 2)


@contextmanager
def _counting_square_svds():
    """Count SVDs of square matrices, the exact fallback of the rank test."""
    original = np.linalg.svd
    count = [0]

    def svd(a, *args, **kwargs):
        if a.shape[0] == a.shape[1]:
            count[0] += 1
        return original(a, *args, **kwargs)

    np.linalg.svd = svd
    try:
        yield count
    finally:
        np.linalg.svd = original


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3]), st.data())
@settings(max_examples=60, deadline=None)
def test_rank_deficient_stacks_match_reference(seed, d, data):
    rng = np.random.default_rng(seed)
    rank = data.draw(st.integers(1, d * d - 1))
    n = data.draw(st.integers(rank + 1, rank + 6))
    gens = np.stack(_random_hermitians(rng, rank, d))
    ops = list(np.einsum("nr,rab->nab", rng.standard_normal((n, rank)), gens))
    got = independent_subset(ops)
    assert got == greedy_svd_independent_subset(ops)
    assert len(got) == rank


_SCALES = [1.0, -1.0, 2.5, 1e-3, 1e3, -1e-6]
_STEP = st.tuples(st.sampled_from(["new", "copy", "zero", "sum"]),
                  st.integers(0, 100), st.integers(0, 100), st.sampled_from(_SCALES))


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3]),
       st.lists(_STEP, min_size=1, max_size=14))
@settings(max_examples=80, deadline=None)
def test_repeated_scaled_and_zero_operators_match_reference(seed, d, steps):
    rng = np.random.default_rng(seed)
    ops = []
    for kind, i, j, scale in steps:
        if kind == "new" or (kind in ("copy", "sum") and not ops):
            ops.append(scale * _random_hermitians(rng, 1, d)[0])
        elif kind == "copy":
            ops.append(scale * ops[i % len(ops)])
        elif kind == "sum":
            ops.append(ops[i % len(ops)] + scale * ops[j % len(ops)])
        else:
            ops.append(np.zeros((d, d), dtype=complex))
    assert independent_subset(ops) == greedy_svd_independent_subset(ops)


@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 6), st.sampled_from([3, 4]),
       st.sampled_from([1 - 1e-2, 1 + 1e-2]))
@settings(max_examples=40, deadline=None)
def test_smallest_singular_value_at_cutoff_takes_exact_path(seed, rows, d, factor):
    """The last candidate's bounds straddle the cutoff, so only an SVD decides.

    The stack is U diag(s) V with orthonormal rows V and s = (1, s_1, ...,
    s_min), s_min = factor * cutoff.  U is the identity but for a 45-degree
    rotation of the last two rows, so the last candidate's residual is about
    sqrt(2) * s_min and the Frobenius bound on sigma_max exceeds 1.1.
    """
    rng = np.random.default_rng(seed)
    n_cols = d * d
    g = rng.standard_normal((n_cols, rows)) + 1j * rng.standard_normal((n_cols, rows))
    v = np.linalg.qr(g)[0].T
    s = np.concatenate([[1.0], rng.uniform(0.5, 1.0, rows - 2),
                        [factor * rank_threshold((rows, n_cols), 1.0)]])
    u = np.eye(rows)
    u[-2:, -2:] = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2)
    ops = [row.reshape(d, d) for row in (u * s) @ v]
    with _counting_square_svds() as fallbacks:
        got = independent_subset(ops)
    assert fallbacks[0] >= 1
    assert got == greedy_svd_independent_subset(ops)
    assert got == list(range(rows if factor > 1 else rows - 1))


def test_every_catalog_span_matches_reference(catalog_all):
    for m in catalog_all.values():
        for p in range(len(m.parties)):
            for stack in (m.local_factors(p), complement_factors(m, p)):
                ops = list(stack)
                assert independent_subset(ops) == greedy_svd_independent_subset(ops)


class TestIsPsd:
    def test_projector(self):
        assert is_psd(P0)

    def test_sigma_z(self):
        assert not is_psd(SIGMA_Z)

    def test_seven_outcome_family_derived_operator(self):
        m = seven_outcome_family(1)
        b = [o.factors[1] for o in m.outcomes]
        # 2 * B5 reconstructs I - 2 B1 - B4, positive by construction
        assert is_psd(EYE2 - 2 * b[0] - b[3])
        assert np.linalg.eigvalsh(EYE2 - 2 * b[0] - b[3])[0] > -1e-12


class TestHermitianValidation:
    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            as_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            as_hermitian(np.zeros((2, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, value):
        bad = EYE2.copy()
        bad[1, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            as_hermitian(bad)

    def test_overflowing_magnitude_rejected(self):
        # an overflowing Hermitian part is refused at the constructor (see
        # test_measurement); here |a_01| overflows while the anti-Hermitian
        # part, which also overflows, leaves a finite Hermitian part
        with pytest.raises(ValueError, match="too large"):
            as_hermitian(np.array([[0, 1.3e308 + 1.3e308j], [-1.3e308 + 1.3e308j, 0]]))

    def test_largest_finite_sums_stored_unchanged(self):
        big = np.array([[8.9e307, 8.9e307j], [complex(0, -8.9e307), -8.9e307]])
        assert as_hermitian(big).tobytes() == big.tobytes()

    def test_exactly_hermitian_stored_byte_for_byte(self):
        # the literal -1j is complex(-0.0, -1.0); (a + a^H) / 2 would store
        # +0.0 in its place
        a = np.array([[1, 1j], [-1j, 1]])
        assert np.signbit(a[1, 0].real)
        h = as_hermitian(a)
        assert h.tobytes() == a.tobytes()
        assert not np.shares_memory(h, a)

    def test_scale_invariance(self):
        big = 1e8 * P0.astype(complex)
        big[0, 1] += 1e-4j   # tiny relative to the 1e8 entry scale
        as_hermitian(big)
        small = np.eye(2, dtype=complex)
        small[0, 1] += 1e-4j  # same asymmetry at O(1) scale is over tolerance
        with pytest.raises(ValueError):
            as_hermitian(small)


class TestEmbedding:
    def test_embed_middle_slot(self):
        rng = np.random.default_rng(3)
        dims = (2, 3, 2)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        y = hand_kron(a, b)
        full = embed_at(x, y, 1, dims)
        expected = hand_kron(hand_kron(a, x), b)
        assert np.abs(full - expected).max() < 1e-12

    def test_project_factor_roundtrip(self):
        rng = np.random.default_rng(4)
        dims = (2, 2)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        abar = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        op = embed_at(x, abar, 0, dims)
        got, residual = project_factor(op, abar, 0, dims)
        assert residual < 1e-12
        assert np.abs(got - x).max() < 1e-12
