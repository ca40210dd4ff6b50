import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from locc_forge import cones
from locc_forge.catalog import conditional_basis
from locc_forge.cones import decompose, extreme_rays
from locc_forge.feasibility import feasible_cone, root_context
from oracles import brute_force_rays, combination_decompose

SEVEN_WEIGHTS = np.array([2.0, 2.0, 3.0, 2.0, 6.0, 1.0, 1.0])


def rays_equal(got, expected, tol=1e-8):
    if len(got) != len(expected):
        return False
    return all(np.abs(g - e).max() < tol for g, e in zip(got, expected))


class TestExtremeRays:
    def test_paired_coordinates(self):
        # nullspace {(a, a, b, b)} intersected with the orthant
        q = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
        rays = extreme_rays(q)
        assert rays_equal(rays, [np.array([0, 0, 0.5, 0.5]),
                                 np.array([0.5, 0.5, 0, 0])])

    def test_seven_outcome_root(self, m_seven):
        cone = feasible_cone(root_context(m_seven, 1))
        expected = [np.array([1.0, 0, 3, 0, 6, 0, 1]) / 11,
                    np.array([1.0, 2, 0, 2, 0, 1, 0]) / 6]
        assert rays_equal(sorted(cone.extreme_rays,
                                 key=lambda r: tuple(np.round(r, 12))),
                          sorted(expected,
                                 key=lambda r: tuple(np.round(r, 12))))

    def test_one_dim_nonnegative_nullspace(self):
        v = np.array([1.0, 2.0, 3.0])
        # build a matrix whose kernel is span{v}
        q = np.array([[2.0, -1.0, 0.0], [0.0, 3.0, -2.0]])
        assert np.abs(q @ v).max() < 1e-12
        rays = extreme_rays(q)
        assert rays_equal(rays, [v / v.sum()])

    def test_zero_row_constraint_matrix(self):
        # no constraints at all: the cone is the whole orthant
        rays = extreme_rays(np.zeros((0, 3)))
        assert rays_equal(rays, [np.eye(3)[i] for i in (2, 1, 0)])

    def test_matches_brute_force_on_catalog_roots(self, catalog_all):
        for m in catalog_all.values():
            for party in range(len(m.parties)):
                cone = feasible_cone(root_context(m, party))
                if cone.nullspace_dim > 3:
                    continue
                expected = brute_force_rays(cone.qmatrix)
                assert rays_equal(list(cone.extreme_rays), expected), \
                    f"{party} mismatch"


@st.composite
def random_cone_matrix(draw):
    """A small constraint matrix with a guaranteed nontrivial nonneg kernel."""
    n = draw(st.integers(3, 6))
    k = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    # kernel contains a strictly positive vector, mirroring completeness
    pos = rng.uniform(0.2, 1.0, size=n)
    extra = rng.standard_normal((n, k - 1)) if k > 1 else np.zeros((n, 0))
    kern = np.column_stack([pos, extra])
    qmat, _ = np.linalg.qr(kern)
    full = rng.standard_normal((n, n))
    comp = full - qmat @ (qmat.T @ full)
    rows = comp.T[np.linalg.norm(comp.T, axis=1) > 1e-8]
    return rows


@given(random_cone_matrix())
@settings(max_examples=60, deadline=None)
def test_double_description_matches_sign_pattern_oracle(q):
    if q.shape[0] == 0:
        return
    got = extreme_rays(q)
    expected = brute_force_rays(q)
    assert rays_equal(got, expected)


def test_double_description_matches_oracle_on_wider_nullspaces():
    # the acceptance gate stops at dimension 3; push the same comparison
    # to dimensions 4 and 5
    rng = np.random.default_rng(12345)
    checked = 0
    while checked < 40:
        n = int(rng.integers(5, 9))
        k = int(rng.integers(4, min(n, 6)))
        pos = rng.uniform(0.2, 1.0, size=n)
        kern = np.column_stack([pos, rng.standard_normal((n, k - 1))])
        qmat, _ = np.linalg.qr(kern)
        full = rng.standard_normal((n, n))
        comp = full - qmat @ (qmat.T @ full)
        rows = comp.T[np.linalg.norm(comp.T, axis=1) > 1e-8]
        if rows.shape[0] == 0:
            continue
        assert rays_equal(extreme_rays(rows), brute_force_rays(rows))
        checked += 1


class TestDecompose:
    def test_unique_two_ray_split(self):
        rays = [np.array([0.5, 0.5, 0, 0]), np.array([0, 0, 0.5, 0.5])]
        parent = np.ones(4)
        decs = decompose(parent, rays)
        assert len(decs) == 1
        assert decs[0].rays_used == (0, 1)
        assert np.allclose(decs[0].scales, [2.0, 2.0])

    def test_seven_outcome_root_split(self, m_seven):
        cone = feasible_cone(root_context(m_seven, 1))
        decs = decompose(SEVEN_WEIGHTS, list(cone.extreme_rays))
        assert len(decs) == 1
        total = sum(s * cone.extreme_rays[i]
                    for i, s in zip(decs[0].rays_used, decs[0].scales))
        assert np.abs(total - SEVEN_WEIGHTS).max() < 1e-8
        scales = sorted(decs[0].scales)
        assert scales == pytest.approx([6.0, 11.0], abs=1e-8)

    def test_parent_equal_to_single_ray(self):
        ray = np.array([0.2, 0.8])
        assert decompose(np.array([0.2, 0.8]), [ray]) == []

    def test_no_term_proportional_to_parent(self):
        parent = np.array([1.0, 1.0])
        rays = [np.array([0.5, 0.5]), np.array([1.0, 0.0]),
                np.array([0.0, 1.0])]
        decs = decompose(parent, rays)
        for dec in decs:
            assert 0 not in dec.rays_used
        assert len(decs) == 1
        assert decs[0].rays_used == (1, 2)

    def test_exactness_and_positivity(self, m_pair):
        cone = feasible_cone(root_context(m_pair, 0))
        for dec in decompose(m_pair.weights, list(cone.extreme_rays)):
            total = sum(s * cone.extreme_rays[i]
                        for i, s in zip(dec.rays_used, dec.scales))
            assert np.abs(total - m_pair.weights).max() < 1e-8
            assert all(s > 1e-9 for s in dec.scales)
            assert len(dec.rays_used) >= 2

    def test_residual_filter(self):
        rays = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        assert decompose(np.array([1.0, 1.0]), rays)          # exact
        assert decompose(np.array([1.0, -0.5]), rays) == []   # infeasible

    def test_max_support_limits_subsets(self):
        rays = [np.eye(4)[i] for i in range(4)]
        parent = np.ones(4)
        decs = decompose(parent, rays)
        assert len(decs) == 1 and len(decs[0].rays_used) == 4


def _random_split_case(rng):
    """(parent, rays) with at most ten rays, often more rays than dimensions.

    Half the cases are sparse random nonnegative rays with a parent drawn
    from the cone of a random subset; the other half are the extreme rays
    of {c >= 0 : Q c = 0} for a random Q whose kernel holds a positive
    vector, which is the parent.
    """
    while True:
        if rng.random() < 0.5:
            n = int(rng.integers(3, 7))
            r = int(rng.integers(3, 11))
            rays = rng.uniform(0.0, 1.0, (r, n)) * (rng.random((r, n)) < 0.7)
            rays = rays[rays.sum(axis=1) > 0]
            rays /= rays.sum(axis=1, keepdims=True)
            weights = rng.uniform(0.2, 2.0, len(rays)) * (rng.random(len(rays)) < 0.7)
            parent = weights @ rays
        else:
            n = int(rng.integers(5, 9))
            k = int(rng.integers(3, 5))
            parent = rng.uniform(0.2, 1.0, size=n)
            kern, _ = np.linalg.qr(np.column_stack(
                [parent, rng.standard_normal((n, k - 1))]))
            full = rng.standard_normal((n, n))
            comp = full - kern @ (kern.T @ full)
            rays = np.array(extreme_rays(comp.T))
        if 2 <= len(rays) <= 10 and parent.any():
            return parent, list(rays)


class TestDecomposeAgainstCombinations:
    """`decompose` walks the vertices of {s >= 0 : R s = parent}; the oracle
    tries every combination of rays."""

    def test_random_cones(self):
        rng = np.random.default_rng(20260)
        non_simplicial = 0
        for _ in range(80):
            parent, rays = _random_split_case(rng)
            mat = np.column_stack(rays)
            non_simplicial += np.linalg.matrix_rank(mat) < len(rays)
            got = decompose(parent, rays)
            expected = dict(combination_decompose(parent, rays))
            for dec in got:
                assert dec.rays_used in expected
                assert np.abs(dec.scales - expected[dec.rays_used]).max() <= 1e-12
            returned = {dec.rays_used for dec in got}
            for support in expected:
                if np.linalg.matrix_rank(mat[:, list(support)]) == len(support):
                    assert support in returned
            keys = [(len(d.rays_used), d.rays_used) for d in got]
            assert keys == sorted(keys)
        assert non_simplicial >= 40

    @pytest.fixture()
    def nnls_calls(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return nnls(*args, **kwargs)

        monkeypatch.setattr(cones, "nnls", counted)
        return calls

    def test_simplicial_cone_costs_at_most_one_solve_per_ray_plus_one(
            self, nnls_calls):
        rng = np.random.default_rng(7)
        for d in range(2, 11):
            rays = rng.uniform(0.0, 1.0, (d, d + int(rng.integers(0, 3))))
            assert np.linalg.matrix_rank(rays) == d
            inner = rng.uniform(0.5, 1.5, d) @ rays
            face = np.r_[rng.uniform(0.5, 1.5, 2), np.zeros(d - 2)] @ rays
            for parent, size in ((inner, d), (face, 2)):
                nnls_calls.clear()
                decs = decompose(parent, list(rays))
                assert len(nnls_calls) <= d + 1
                assert [len(dec.rays_used) for dec in decs] == [size]

    def test_wide_root_cone_costs_at_most_one_solve_per_ray_plus_one(
            self, nnls_calls):
        m = conditional_basis(2, 10, 0)
        cone = feasible_cone(root_context(m, 0))
        assert len(cone.extreme_rays) == cone.nullspace_dim == 10
        decs = decompose(m.weights, list(cone.extreme_rays))
        assert len(nnls_calls) <= 11
        assert [len(dec.rays_used) for dec in decs] == [10]
