import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space, qr
from scipy.optimize import nnls as scipy_nnls

from conftest import audit_instances, benchmark_instances, catalog_instances, domino_angle_sets
from locc_forge import Verdict, check_root, cones, engine, feasibility
from locc_forge.catalog import (
    conditional_basis,
    phase_five,
    qubit_pair,
    rotated_dominoes,
    seven_outcome_family,
)
from locc_forge.cones import ConeError, decompose, extreme_rays
from locc_forge.engine import synthesize
from locc_forge.feasibility import NodeContext, build_q, feasible_cone, nullspace, root_context
from locc_forge.tolerances import NULLSPACE_RESIDUAL_TOL
from oracles import (
    brute_force_rays,
    combination_decompose,
    generic_tail_rays,
    half_line_rays,
    planar_double_description_rays,
)

SEVEN_WEIGHTS = np.array([2.0, 2.0, 3.0, 2.0, 6.0, 1.0, 1.0])


def rays_equal(got, expected, tol=1e-8):
    if len(got) != len(expected):
        return False
    return all(np.abs(g - e).max() < tol for g, e in zip(got, expected))


def rays_of(q):
    """Extreme rays of {c >= 0 : q c = 0} on the library's nullspace."""
    return extreme_rays(q, nullspace(q, q.shape[1])[0])


class TestExtremeRays:
    def test_paired_coordinates(self):
        # nullspace {(a, a, b, b)} intersected with the orthant
        q = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
        rays = rays_of(q)
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
        rays = rays_of(q)
        assert rays_equal(rays, [v / v.sum()])

    def test_zero_row_constraint_matrix(self):
        # no constraints at all: the cone is the whole orthant
        rays = rays_of(np.zeros((0, 3)))
        assert rays_equal(rays, [np.eye(3)[i] for i in (2, 1, 0)])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_orthant_closed_form_matches_brute_force(self, n, monkeypatch):
        # a Q with no rows skips the double description
        def refused(*args):
            raise AssertionError("double description run on the orthant")

        monkeypatch.setattr(cones, "_double_description", refused)
        q = np.zeros((0, n))
        rays = rays_of(q)
        assert np.array_equal(rays, np.eye(n)[::-1])
        expected = sorted(brute_force_rays(q), key=lambda r: tuple(np.round(r, 12)))
        assert rays_equal(list(rays), expected)

    def test_one_dimensional_closed_form_matches_brute_force(self):
        # a nonnegative 1-D nullspace with vanishing entries: one ray, zero
        # exactly where the nullspace vector vanishes
        rng = np.random.default_rng(19)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            v = rng.uniform(0.1, 1.0, n) * (rng.uniform(size=n) < 0.6)
            if not v.any():
                v[int(rng.integers(n))] = 1.0
            basis = (v / np.linalg.norm(v) * rng.choice([-1.0, 1.0]))[:, None]
            q = np.linalg.svd(np.eye(n) - basis @ basis.T)[2][:n - 1]
            rays = extreme_rays(q, basis)
            assert len(rays) == 1
            assert np.array_equal(rays[0] == 0, v == 0)
            assert np.abs(rays[0] - v / v.sum()).max() <= 1e-12
            assert rays_equal(list(rays), brute_force_rays(q))

    def test_mixed_sign_one_dimensional_nullspace_is_trivial(self):
        basis = np.array([[0.6], [-0.8], [0.0]])
        q = np.array([[0.8, 0.6, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(cones.ConeError, match="trivial"):
            extreme_rays(q, basis)

    def test_matches_brute_force_on_catalog_roots(self, catalog_all):
        for m in catalog_all.values():
            for party in range(len(m.parties)):
                ctx = root_context(m, party)
                cone = feasible_cone(ctx)
                if cone.nullspace_dim > 3:
                    continue
                expected = brute_force_rays(build_q(ctx))
                assert rays_equal(list(cone.extreme_rays), expected), \
                    f"{party} mismatch"


class TestOneDimensionalCones:
    """A one-column nullspace basis is answered in closed form, with the
    bytes and errors of the double description's generic half-line route."""

    def test_impossible_roots_run_no_double_description(self, monkeypatch):
        def refused(*args):
            raise AssertionError("double description run on a one-dimensional cone")

        monkeypatch.setattr(cones, "_double_description", refused)
        measurements = [phase_five()] + [rotated_dominoes(*a) for a in domino_angle_sets()]
        assert len(measurements) == 22
        for m in measurements:
            roots = check_root(m)
            assert tuple(r.nullspace_dim for r in roots) == (1, 1)
            w = np.asarray(m.weights, dtype=float)
            for root in roots:
                assert root.extreme_rays.shape == (1, len(w))
                assert np.abs(root.extreme_rays[0] - w / w.sum()).max() <= 1e-12

    def test_a_stack_of_one_dimensional_cones_is_read_at_once(self):
        # each row of the stacked answer is that cone's own ray, byte for
        # byte, and one cone whose ray fails the residual test fails the stack
        rng = np.random.default_rng(5)
        qs, bases = [], []
        for _ in range(4):
            ray = rng.uniform(0.1, 1.0, size=5)
            q = rng.standard_normal((7, 5))
            q -= np.outer(q @ ray, ray) / (ray @ ray)
            qs.append(q)
            bases.append(nullspace(q, 5)[0] * rng.choice([-1.0, 1.0]))
        assert all(b.shape == (5, 1) for b in bases)
        stacked = extreme_rays(np.stack(qs), np.stack(bases))
        assert stacked.shape == (4, 5)
        for row, q, basis in zip(stacked, qs, bases):
            assert row.tobytes() == extreme_rays(q, basis)[0].tobytes()
        qs[2] = qs[2] + 1e-6
        with pytest.raises(ConeError):
            extreme_rays(np.stack(qs), np.stack(bases))

    def test_double_description_entered_with_three_columns_or_more(self, monkeypatch):
        widths, cones_met = [], []
        dd, rays_of_cone = cones._double_description, cones.extreme_rays

        def counted_dd(a):
            widths.append(a.shape[1])
            return dd(a)

        def counted_rays(q, basis):
            cones_met.append((basis.shape[1], q.shape[0] > 0))
            return rays_of_cone(q, basis)

        monkeypatch.setattr(cones, "_double_description", counted_dd)
        monkeypatch.setattr(cones, "extreme_rays", counted_rays)
        # the parties' factor classes would read every cone of these bases
        # class by class, as half-lines; the full route takes them here
        monkeypatch.setattr(feasibility, "_class_cone", lambda ctx: None)
        # 5x2 meets cones of one and two dimensions only, 4x3 also of three
        for m in (conditional_basis(5, 2, 0), conditional_basis(4, 3, 0)):
            assert synthesize(m).verdict is Verdict.PROTOCOL_FOUND
        assert widths and min(widths) >= 3
        # every constrained cone of three or more dimensions, and no other
        assert (1, True) in cones_met and (2, True) in cones_met
        assert len(widths) == sum(k >= 3 and constrained for k, constrained in cones_met)

    def test_bitwise_equal_to_the_generic_route_on_the_benchmark(self, monkeypatch):
        # every context the search meets, every root's, and every skipped
        # party's gets its Q and nullspace basis built directly: a root cone
        # certified from the frames builds no Q, so recording the search's
        # own calls would miss the roots' half-lines
        contexts = []

        def recorded(ctx):
            contexts.append(ctx)
            return feasible_cone(ctx)

        def also_skipped(self, party, coeffs):
            skipped = self.stats.parties_skipped
            cone = analyse(self, party, coeffs)
            if self.stats.parties_skipped > skipped:
                contexts.append(NodeContext(self.m, party, coeffs))
            return cone

        analyse = engine._Search.analyse
        monkeypatch.setattr(engine, "feasible_cone", recorded)
        monkeypatch.setattr(engine._Search, "analyse", also_skipped)
        for m in benchmark_instances():
            synthesize(m)
            contexts += [root_context(m, p) for p in range(len(m.parties))]
        met = 0
        for ctx in contexts:
            q = build_q(ctx)
            basis, _ = nullspace(q, len(ctx.support))
            if basis.shape[1] != 1:
                continue
            met += 1
            got = extreme_rays(q, basis)
            expected = half_line_rays(q, basis)
            assert got.shape == expected.shape == (1, len(basis))
            assert got.tobytes() == expected.tobytes()
        assert met >= 100

    @staticmethod
    def _q_for(basis):
        """Rows spanning the orthogonal complement of the unit column."""
        n = len(basis)
        return np.linalg.svd(np.eye(n) - basis @ basis.T)[2][:n - 1]

    def test_vanishing_entries_are_exact_zeros(self):
        # entries at most 1e-10 of the largest vanish, of either sign; one
        # just above that is live
        col = np.array([1.0, 1e-10, -1e-10, 0.5e-10, np.nextafter(1e-10, 1.0), -0.0])
        basis = (col / np.linalg.norm(col))[:, None]
        q = self._q_for(basis)
        got, expected = extreme_rays(q, basis), half_line_rays(q, basis)
        assert got.tobytes() == expected.tobytes()
        assert np.array_equal(got[0] == 0, [False, True, True, True, False, True])
        assert not np.signbit(got).any()
        got = extreme_rays(q, -basis)          # the sign follows the largest entry
        assert got.tobytes() == expected.tobytes()

    def test_errors_match_the_generic_route(self):
        # a live entry of the other sign leaves the cone trivial, even one
        # just above the vanishing cutoff
        for col in ([0.6, -0.8, 0.0], [1.0, -np.nextafter(1e-10, 1.0), 0.0]):
            basis = np.array(col)[:, None]
            for route in (extreme_rays, half_line_rays):
                with pytest.raises(ConeError, match="cone is trivial"):
                    route(self._q_for(basis), basis)
        # a ray whose residual on Q exceeds the tolerance is dropped
        basis = np.array([[0.6], [0.8], [0.0]])
        drift = 3 * NULLSPACE_RESIDUAL_TOL * np.array([[1.0, 0.0, 0.0]])
        q = self._q_for(basis)
        for route in (extreme_rays, half_line_rays):
            assert route(q, basis).shape == (1, 3)
            with pytest.raises(ConeError, match="no nonnegative ray found"):
                route(q + drift, basis)


def _outcome(route, q, basis):
    """A route's rays, or its ConeError message."""
    try:
        return route(q, basis)
    except ConeError as err:
        return str(err)


def _assert_same_rays(got, expected):
    """Exact supports, the same row count, rays within 1e-14."""
    assert got.shape == expected.shape
    assert np.array_equal(got > 0, expected > 0)
    assert np.abs(got - expected).max() <= 1e-14


def _whitened(rows):
    """Rows under the symmetric map that makes the columns orthonormal; it
    keeps each row's side of every line through the origin."""
    vals, vecs = np.linalg.eigh(rows.T @ rows)
    return rows @ (vecs / np.sqrt(vals)) @ vecs.T


def _turned(row, angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([c * row[0] - s * row[1], s * row[0] + c * row[1]])


@st.composite
def planar_bases(draw):
    """An n x 2 orthonormal basis whose rows sit in an arc narrower or wider
    than a half-plane, with one row split into two that are parallel, nearly
    parallel (a few activity tolerances apart) or exactly opposite, and
    rows at and just above the vanishing cutoff."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 7))
    width = draw(st.sampled_from([0.5, 0.95, 1.05, 1.9])) * np.pi
    angles = rng.uniform(0.0, width, n)
    angles[:2] = (0.0, width)
    angles += rng.uniform(0.0, 2 * np.pi)
    basis = _whitened(rng.uniform(0.2, 1.0, n)[:, None]
                      * np.column_stack([np.cos(angles), np.sin(angles)]))
    i = draw(st.integers(0, n - 1))
    split = draw(st.sampled_from(["none", "parallel", "near", "opposite"]))
    if split != "none":
        t = rng.uniform(0.1, 0.9)
        gap = {"parallel": 0.0, "opposite": 0.0,
               "near": draw(st.floats(2.0, 10.0)) * cones._ACTIVITY_TOL}[split]
        sign = -1.0 if split == "opposite" else 1.0
        pair = [np.sqrt(t) * _turned(basis[i], gap / 2),
                sign * np.sqrt(1 - t) * _turned(basis[i], -gap / 2)]
        basis = np.vstack([basis[:i], pair, basis[i + 1:]])
    cutoff = cones._VANISHING_TOL * float(np.linalg.norm(basis, axis=1).max())
    tiny = []
    for _ in range(draw(st.integers(0, 2))):
        axis = np.eye(2)[int(rng.integers(2))] * rng.choice([-1.0, 1.0])
        tiny.append(draw(st.sampled_from([
            cutoff * axis,                                  # vanishes
            np.nextafter(cutoff, 1.0) * axis,               # live
            (1 + 1e-12) * cutoff * _turned(basis[i], 0.5) / np.linalg.norm(basis[i]),
        ])))
    rows = np.vstack([basis, *tiny]) if tiny else basis
    return rows[rng.permutation(len(rows))]


class TestTwoDimensionalCones:
    """A two-column nullspace basis is answered in closed form, with the
    supports, rays and errors of the double description."""

    def test_matches_the_double_description_on_the_benchmark(self, monkeypatch):
        # benchmark_instances() holds the seven-outcome family at seeds 0-9;
        # seeds 10 and 11 stand in for the conditional bases' planar cones,
        # which their parties' factor classes now read as half-lines
        met = []
        rays_of_cone = cones.extreme_rays

        def recorded(q, basis):
            out = rays_of_cone(q, basis)
            if basis.ndim == 2 and basis.shape[1] == 2 and q.shape[0] > 0:
                met.append((q, basis, out))
            return out

        monkeypatch.setattr(cones, "extreme_rays", recorded)
        for m in benchmark_instances() + [seven_outcome_family(s) for s in (10, 11)]:
            synthesize(m)
        assert len(met) >= 60
        for q, basis, got in met:
            _assert_same_rays(got, planar_double_description_rays(q, basis))

    def test_catalog_synthesis_runs_no_planar_double_description(self, monkeypatch):
        dd = cones._double_description

        def refused_on_planes(a):
            if a.shape[1] == 2:
                raise AssertionError("double description run on a planar cone")
            return dd(a)

        monkeypatch.setattr(cones, "_double_description", refused_on_planes)
        for m in catalog_instances():
            assert synthesize(m).verdict in (Verdict.PROTOCOL_FOUND, Verdict.IMPOSSIBLE_AT_ROOT)

    @given(planar_bases())
    @settings(max_examples=300, deadline=None)
    @example(np.array([[0.6, 0.0], [-0.3, 0.0], [0.0, 1.0], [0.0, 0.0]]) / [[np.sqrt(0.45), 1]])
    def test_degenerate_planes_match_the_double_description(self, basis):
        q = null_space(basis.T).T
        got = _outcome(extreme_rays, q, basis)
        expected = _outcome(planar_double_description_rays, q, basis)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert not isinstance(got, str), got
            _assert_same_rays(got, expected)

    def test_exactly_opposite_rows_leave_a_half_line(self):
        basis = np.array([[0.6, 0.0], [-0.3, 0.0], [0.0, 1.0]]) / [[np.sqrt(0.45), 1]]
        q = null_space(basis.T).T
        got = extreme_rays(q, basis)
        assert np.array_equal(got, [[0.0, 0.0, 1.0]])
        _assert_same_rays(got, planar_double_description_rays(q, basis))
        flipped = np.vstack([basis, [[0.0, -1e-3]]])     # a live row on the other side
        for route in (extreme_rays, planar_double_description_rays):
            with pytest.raises(ConeError, match="cone is trivial"):
                route(null_space(flipped.T).T, flipped)

    def test_all_rows_vanishing(self):
        basis, q = np.zeros((4, 2)), np.eye(4)
        for route in (extreme_rays, planar_double_description_rays):
            with pytest.raises(ConeError, match="all constraint rows vanish"):
                route(q, basis)


def _same_outcome(got, want):
    """The same ConeError message, or the same rays byte for byte."""
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestShortTails:
    """A one- or two-column basis has its own tail in ``extreme_rays``,
    with the output bytes and errors of the tail the double description's
    rays take (``oracles.generic_tail_rays``)."""

    def test_byte_equal_on_every_audit_cone(self, monkeypatch):
        met = {1: 0, 2: 0}
        rays_of_cone = cones.extreme_rays

        def checked(q, basis):
            got = _outcome(rays_of_cone, q, basis)
            k = basis.shape[1]
            if k in met and q.shape[0] > 0:
                _same_outcome(got, _outcome(generic_tail_rays, q, basis))
                met[k] += 1
            if isinstance(got, str):
                raise ConeError(got)
            return got

        monkeypatch.setattr(cones, "extreme_rays", checked)
        for m in audit_instances():
            synthesize(m)
            # a root cone certified from the frames calls no extreme_rays:
            # its full route does
            for p in range(len(m.parties)):
                feasible_cone(root_context(m, p))
        assert met[1] > 250 and met[2] > 250

    @given(planar_bases())
    @settings(max_examples=300, deadline=None)
    @example(np.array([[0.6, 0.0], [-0.3, 0.0], [0.0, 1.0], [0.0, 0.0]]) / [[np.sqrt(0.45), 1]])
    def test_byte_equal_on_degenerate_planes_and_their_columns(self, basis):
        q = null_space(basis.T).T
        assume(len(q) > 0)
        _same_outcome(_outcome(extreme_rays, q, basis), _outcome(generic_tail_rays, q, basis))
        col = basis[:, :1] / np.linalg.norm(basis[:, 0])
        q = null_space(col.T).T
        _same_outcome(_outcome(extreme_rays, q, col), _outcome(generic_tail_rays, q, col))


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
    got = rays_of(q)
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
        assert rays_equal(rays_of(rows), brute_force_rays(rows))
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

    @pytest.mark.parametrize("small", [1e-5, 1e-6])
    def test_ray_near_the_parent_in_angle_is_used(self, small):
        # e_2's cosine with the parent (small, 1) is within 1e-9 of 1, but
        # no multiple of it passes the split's exactness test
        decs = decompose(np.array([small, 1.0]), np.eye(2))
        assert [d.rays_used for d in decs] == [(0, 1)]
        assert decs[0].scales == pytest.approx([small, 1.0], rel=1e-12)

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
            rays = rays_of(comp.T)
        if 2 <= len(rays) <= 10 and parent.any():
            return parent, list(rays)


@pytest.fixture()
def nnls_calls(monkeypatch):
    """Record the arguments of every call to `cones.nnls`."""
    calls = []
    solve = cones.nnls

    def counted(a, b):
        calls.append((np.array(a), np.array(b)))
        return solve(a, b)

    monkeypatch.setattr(cones, "nnls", counted)
    return calls


@pytest.fixture()
def split_attempts(monkeypatch):
    """Record every ray set `decompose` tries, whether the least-squares
    bound settles it or `cones.nnls` does."""
    calls = []
    split = cones._split_scales

    def counted(mat, parent, bound):
        calls.append(mat.shape[1])
        return split(mat, parent, bound)

    monkeypatch.setattr(cones, "_split_scales", counted)
    return calls


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

    def test_simplicial_cone_costs_one_solve(self, split_attempts):
        # an independent ray set has at most one split: once it is found,
        # no smaller set is tried, for an inner parent and a face parent alike
        rng = np.random.default_rng(7)
        for d in range(2, 11):
            rays = rng.uniform(0.0, 1.0, (d, d + int(rng.integers(0, 3))))
            assert np.linalg.matrix_rank(rays) == d
            inner = rng.uniform(0.5, 1.5, d) @ rays
            face = np.r_[rng.uniform(0.5, 1.5, 2), np.zeros(d - 2)] @ rays
            for parent, size in ((inner, d), (face, 2)):
                split_attempts.clear()
                decs = decompose(parent, list(rays))
                assert split_attempts == [d]
                assert [len(dec.rays_used) for dec in decs] == [size]

    def test_wide_root_cone_costs_one_solve(self, split_attempts):
        m = conditional_basis(2, 10, 0)
        cone = feasible_cone(root_context(m, 0))
        assert len(cone.extreme_rays) == cone.nullspace_dim == 10
        decs = decompose(m.weights, list(cone.extreme_rays))
        assert split_attempts == [10]
        assert [len(dec.rays_used) for dec in decs] == [10]


class TestLeastSquaresBound:
    """`decompose` settles a ray set from one SVD when its rays are
    independent: it prunes on the least-squares residual, takes nonnegative
    least-squares scales as they are, and calls `cones.nnls` otherwise."""

    @staticmethod
    def assert_matches_oracle(parent, rays):
        got = decompose(parent, rays)
        expected = combination_decompose(parent, rays)
        assert [dec.rays_used for dec in got] == [support for support, _ in expected]
        for dec, (_, scales) in zip(got, expected):
            assert np.abs(dec.scales - scales).max() <= 1e-12 * max(1.0, scales.max())

    @staticmethod
    def assert_simplicial(rays):
        assert np.linalg.matrix_rank(np.column_stack(rays)) == len(rays)

    def test_catalog_syntheses_need_no_nnls(self, nnls_calls, monkeypatch):
        # rays with exact zeros leave no roundoff-negative least-squares
        # scale at a parent on a face of the cone; every split of these
        # two-ray cones goes through decompose here, not the closed form
        monkeypatch.setattr(engine, "planar_split", lambda coeffs, rays: None)
        decompose_calls = []
        monkeypatch.setattr(engine, "decompose",
                            lambda *a: decompose_calls.append(1) or decompose(*a))
        for m in (qubit_pair(), phase_five(), rotated_dominoes(),
                  *(seven_outcome_family(s) for s in range(10))):
            synthesize(m)
        assert nnls_calls == [] and len(decompose_calls) > 40

    def test_catalog_roots_need_no_nnls(self, catalog_all, nnls_calls):
        for m in catalog_all.values():
            for party in range(len(m.parties)):
                rays = list(feasible_cone(root_context(m, party)).extreme_rays)
                self.assert_simplicial(rays)
                self.assert_matches_oracle(m.weights, rays)
        assert nnls_calls == []

    @pytest.mark.parametrize("dim", range(4, 13))
    def test_wide_conditional_basis_roots_need_no_nnls(self, dim, nnls_calls):
        m = conditional_basis(2, dim, 0)
        rays = list(feasible_cone(root_context(m, 0)).extreme_rays)
        self.assert_simplicial(rays)
        self.assert_matches_oracle(m.weights, rays)
        assert nnls_calls == []

    def test_random_simplicial_cones_need_no_nnls(self, nnls_calls):
        rng = np.random.default_rng(8)
        for _ in range(40):
            d = int(rng.integers(2, 9))
            rays = rng.uniform(0.0, 1.0, (d, d + int(rng.integers(0, 4))))
            rays /= rays.sum(axis=1, keepdims=True)
            parent = rng.uniform(0.2, 2.0, d) @ rays
            self.assert_simplicial(list(rays))
            self.assert_matches_oracle(parent, list(rays))
        assert nnls_calls == []

    def test_residual_between_the_bound_and_sqrt_n_times_it_falls_back(
            self, nnls_calls):
        # parent = 2 a1 + 3 a2 + e with e orthogonal to a1 and a2 and spread
        # over n = 16 entries: its max-norm is below the residual tolerance,
        # so (a1, a2) is an exact split, while its 2-norm is above it.  The
        # third ray a3 = a1 + a2 - beta f, with f orthogonal to a1 and a2 and
        # e.f > 0, absorbs part of e at a negative least-squares scale.
        rng = np.random.default_rng(3)
        n, tol = 16, 1e-8
        a1, a2 = rng.uniform(0.5, 1.5, (2, n))
        frame, _ = np.linalg.qr(np.column_stack([a1, a2]))

        def off_span(v):
            return v - frame @ (frame.T @ v)

        e = off_span(rng.choice([-1.0, 1.0], n))
        e *= 0.9 * tol / np.abs(e).max()
        g = off_span(rng.standard_normal(n))
        g -= e * (e @ g) / (e @ e)
        f = e / np.linalg.norm(e) + g / np.linalg.norm(g)
        f /= np.linalg.norm(f)
        a3 = a1 + a2 - 0.2 * f
        rays = [a / a.sum() for a in (a1, a2, a3)]
        parent = 2 * rays[0] + 3 * rays[1] + e
        assert np.all(parent > 0) and np.all(a3 > 0) and parent.max() < 1.0

        mat = np.column_stack(rays)
        ls, *_ = np.linalg.lstsq(mat, parent, rcond=None)
        ls_residual = np.linalg.norm(mat @ ls - parent)
        assert tol < ls_residual <= np.sqrt(n) * tol
        assert ls[2] < 0
        self.assert_matches_oracle(parent, rays)
        assert [dec.rays_used for dec in decompose(parent, rays)] == [(0, 1)]
        assert len(nnls_calls) >= 1


def _with_dependent_columns(base, copies, rng):
    """``base`` plus ``copies`` duplicated or scaled copies of its columns,
    shuffled."""
    picks = rng.integers(0, base.shape[1], copies)
    factors = rng.choice([1.0, 2.0, 0.5, -1.0, 1e-3], copies)
    a = np.column_stack([base, base[:, picks] * factors])
    return a[:, rng.permutation(a.shape[1])]


def _cancelling_base(m, rng):
    """(m, k) columns holding a nearly opposite pair u + d v, -u + d v: a
    nonnegative combination with coefficients near 1/d reaches v, so the
    residual b - a x carries roundoff far above eps |b|."""
    u, v = np.linalg.qr(rng.standard_normal((m, 2)))[0].T
    d = 10.0 ** -rng.uniform(3, 7)
    rest = rng.standard_normal((m, int(rng.integers(0, m - 1))))
    return np.column_stack([u + d * v, -u + d * v, rest])


def _right_hand_side(a, rng, random):
    if random:
        return rng.standard_normal(a.shape[0])
    x = rng.uniform(0.0, 2.0, a.shape[1]) * (rng.random(a.shape[1]) < 0.6)
    return a @ x + 1e-3 * rng.standard_normal(a.shape[0])


@st.composite
def nnls_problems(draw):
    """(a, b) with full column rank, more columns than rows, or duplicated
    and scaled columns (of a random or a cancelling base), and b either
    random or a nonnegative combination of the columns plus a little
    noise."""
    kind = draw(st.sampled_from(["full", "wide", "deficient", "cancelling"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "full":
        n = draw(st.integers(1, 8))
        a = rng.standard_normal((draw(st.integers(n, 12)), n))
    elif kind == "wide":
        m = draw(st.integers(1, 6))
        a = rng.standard_normal((m, draw(st.integers(m + 1, 12))))
    elif kind == "deficient":
        m = draw(st.integers(2, 10))
        base = rng.standard_normal((m, draw(st.integers(1, m))))
        a = _with_dependent_columns(base, draw(st.integers(1, 4)), rng)
    else:
        a = _with_dependent_columns(_cancelling_base(draw(st.integers(2, 6)), rng),
                                    draw(st.integers(1, 4)), rng)
    return a, _right_hand_side(a, rng, draw(st.booleans()))


class TestNNLS:
    @given(nnls_problems())
    # two passive columns span both rows; a duplicate of one still gains
    # by roundoff and must not be tried as a third
    @example((np.array([[-2.55566503, 2.04091912, 2.04091912],
                        [-0.56776961, 0.41809885, 0.41809885]]),
              np.array([-0.23193238, -0.86521308])))
    @settings(max_examples=200, deadline=None)
    def test_kkt_basic_and_as_good_as_scipy(self, problem):
        a, b = problem
        x, rnorm = cones.nnls(a, b)
        assert x.shape == (a.shape[1],) and np.all(x >= 0)
        r = b - a @ x
        assert rnorm == pytest.approx(np.linalg.norm(r), rel=1e-12, abs=1e-14)
        # KKT: no column can lower the residual, and the gradient vanishes
        # on the columns in use
        grad = a.T @ r
        floor = 1e-9 * np.linalg.norm(a, axis=0).max() * (
            np.linalg.norm(b) + np.linalg.norm(a) * np.linalg.norm(x))
        assert np.all(grad <= floor)
        assert np.all(np.abs(grad[x > 0]) <= floor)
        # relative to scipy's residual, plus roundoff of |b - a x| where the
        # optimum is 0 (scipy then reports an exact 0.0 from its factors)
        ref_x, _ = scipy_nnls(a, b)
        ref = np.linalg.norm(b - a @ ref_x)
        roundoff = 1e-13 * (np.linalg.norm(b) + np.linalg.norm(a) * max(
            np.linalg.norm(x), np.linalg.norm(ref_x)))
        assert abs(rnorm - ref) <= 1e-10 * ref + roundoff
        used = a[:, x > 0]
        assert np.linalg.matrix_rank(used) == used.shape[1]

    def test_dependent_columns_never_enter(self):
        # a column that depends on the passive set has a gradient of pure
        # roundoff, which the gradient floor alone does not stop when the
        # passive columns nearly cancel
        rng = np.random.default_rng(0)
        for i in range(600):
            m = int(rng.integers(2, 11))
            if i % 4 < 2:
                base = _cancelling_base(m, rng)
            else:
                base = rng.standard_normal((m, int(rng.integers(1, m + 1))))
            a = _with_dependent_columns(base, int(rng.integers(1, 5)), rng)
            x, _ = cones.nnls(a, _right_hand_side(a, rng, i % 2 == 0))
            used = a[:, x > 0]
            assert np.linalg.matrix_rank(used) == used.shape[1]

    def test_zero_right_hand_side_and_zero_columns(self):
        x, rnorm = cones.nnls(np.zeros((3, 2)), np.ones(3))
        assert np.array_equal(x, np.zeros(2)) and rnorm == pytest.approx(np.sqrt(3))
        x, rnorm = cones.nnls(np.eye(3), np.zeros(3))
        assert np.array_equal(x, np.zeros(3)) and rnorm == 0.0

    def test_non_convergence_raises_a_named_error(self, monkeypatch):
        monkeypatch.setattr(cones, "NNLS_ITERATIONS_PER_COLUMN", 0)
        with pytest.raises(cones.NNLSConvergenceError):
            cones.nnls(np.eye(2), np.ones(2))


class TestIndependentRows:
    def test_pivots_match_scipy_on_gaussian_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(1, min(n, 8) + 1))
            a = rng.standard_normal((n, k))
            _, _, piv = qr(a.T, mode="economic", pivoting=True)
            assert cones._independent_rows(a, k) == sorted(int(i) for i in piv[:k])

    def test_tied_or_dependent_rows_still_give_rank_k(self):
        rng = np.random.default_rng(12)
        cases = [
            np.vstack([np.eye(3), np.eye(3)]),                   # all norms tie
            np.vstack([np.eye(3), -np.eye(3), np.full((1, 3), 3 ** -0.5)]),
            # the three largest rows are parallel
            np.array([[10.0, 0, 0], [9, 0, 0], [-8, 0, 0], [0, 1, 0], [0, 0, 1]]),
        ]
        for _ in range(30):
            base = rng.standard_normal((3, 3))
            copies = base[rng.integers(0, 3, 12)] * rng.choice([1.0, -1.0, 2.0, 0.5], (12, 1))
            cases.append(np.vstack([copies, base])[rng.permutation(15)])
        for a in cases:
            picked = cones._independent_rows(a, 3)
            assert len(set(picked)) == 3
            assert np.linalg.matrix_rank(a[picked]) == 3
