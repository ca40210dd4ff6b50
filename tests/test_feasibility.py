import warnings
from contextlib import nullcontext

import numpy as np
import pytest

from conftest import (
    EYE2,
    P0,
    P1,
    audit_instances,
    benchmark_instances,
    catalog_instances,
    domino_angle_sets,
)
from locc_forge import (
    Party,
    SeparableMeasurement,
    Verdict,
    bennett_three_qubit,
    check_root,
    conditional_basis,
    phase_five,
    qubit_pair,
    rotated_dominoes,
    seven_outcome_family,
    synthesize,
)
from locc_forge.errors import IncompleteMeasurementError, InconsistentNodeError, NotProductError
from locc_forge.feasibility import (
    MarginalRankWarning,
    NodeContext,
    build_q,
    certified_root_cones,
    factorize,
    feasible_cone,
    _bystander_coords,
    nullspace,
    root_context,
)
from locc_forge.measurement import complement_span, local_span, reconstruct
from locc_forge.cones import ConeError, extreme_rays
from locc_forge.operators import project_factor
from locc_forge.tolerances import MARGINAL_RANK_BAND, rank_threshold
from oracles import (
    bystander_operator,
    complement_factors,
    dense_build_q,
    face_qmatrix,
    mixed_basis_q,
    nullspace_projector,
    projector_of,
    rank_cutoff_marginal,
    rank_cutoff_nullspace,
    search_frames,
    whole_cone_rays,
)

SEVEN_WEIGHTS = np.array([2.0, 2.0, 3.0, 2.0, 6.0, 1.0, 1.0])


def my_nullspace_projector(q, n):
    basis, _ = nullspace(q, n)
    return basis @ basis.T


class TestBuildQ:
    def test_qubit_pair_second_party_root(self, m_pair):
        q = build_q(root_context(m_pair, 1))
        assert q.shape == (3, 4)
        # single nullspace direction along (1, 1, 1, 1)
        target = projector_of([np.ones(4)])
        assert np.abs(my_nullspace_projector(q, 4) - target).max() < 1e-10
        assert np.abs(nullspace_projector(q, 4) - target).max() < 1e-10

    def test_qubit_pair_first_party_root(self, m_pair):
        q = build_q(root_context(m_pair, 0))
        target = projector_of([[1, 1, 0, 0], [0, 0, 1, 1]])
        assert np.abs(my_nullspace_projector(q, 4) - target).max() < 1e-10

    def test_phase_five_root_shape_and_nullspace(self, m_phase):
        q = build_q(root_context(m_phase, 0))
        assert q.shape == (6, 5)
        target = projector_of([np.ones(5)])
        assert np.abs(my_nullspace_projector(q, 5) - target).max() < 1e-10

    def test_entries_real_matrix(self, m_phase):
        q = build_q(root_context(m_phase, 1))
        assert q.dtype == np.float64

    def test_inconsistent_bystander_rejected(self, catalog_all):
        # a node that is not a product across the party's cut has no
        # consistent bystander operator; the node is blamed, not the
        # measurement's completeness
        for ctx in _non_product_contexts(catalog_all):
            with pytest.raises(InconsistentNodeError,
                               match="parent coefficients violate the node constraints"):
                feasible_cone(ctx)

    def test_zero_bystander_rejected(self, catalog_all):
        for m in catalog_all.values():
            for party in range(len(m.parties)):
                ctx = NodeContext(m, party, np.zeros(m.n_outcomes))
                with pytest.raises(InconsistentNodeError, match="zero"):
                    build_q(ctx)

    def test_basis_independence_across_catalog(self, catalog_all):
        rng = np.random.default_rng(2024)
        for m in catalog_all.values():
            for party in range(len(m.parties)):
                ctx = root_context(m, party)
                reference = my_nullspace_projector(build_q(ctx), m.n_outcomes)
                for _ in range(10):
                    q = mixed_basis_q(ctx, rng)
                    proj = my_nullspace_projector(q, m.n_outcomes)
                    assert np.abs(proj - reference).max() < 1e-8

    def test_basis_independence_below_root(self, m_seven):
        rng = np.random.default_rng(99)
        ctx = NodeContext(m_seven, 0, np.array([1., 0, 3, 0, 6, 0, 1]))  # I (x) B7
        # Q is built on the node's support, outcomes 1, 3, 5 and 7
        assert ctx.support.tolist() == [0, 2, 4, 6]
        reference = my_nullspace_projector(build_q(ctx), 4)
        target = projector_of([[1, 3, 6, 0], [0, 0, 0, 1]])
        assert np.abs(reference - target).max() < 1e-8
        for _ in range(10):
            proj = my_nullspace_projector(mixed_basis_q(ctx, rng), 4)
            assert np.abs(proj - reference).max() < 1e-8


class TestPartyTables:
    """The search reads the measurement's frames: acting = R_p[:, :n],
    coords = R_c[:, :n] and identity = R_c[:, n]."""

    def test_built_once_per_party(self, monkeypatch, catalog_all):
        # once the measurement holds its frames, the search builds none
        import locc_forge.measurement as measurement

        contexts = [root_context(m, p) for m in catalog_all.values()
                    for p in range(len(m.parties))]
        first = [build_q(ctx) for ctx in contexts]

        def refused(*args):
            raise AssertionError("a frame was built again")

        for name in ("identity_r", "trimmed_r", "product_r"):
            monkeypatch.setattr(measurement, name, refused)
        for ctx, q in zip(contexts, first):
            assert np.array_equal(build_q(ctx), q)

    def test_tables_built_without_joint_operators(self, monkeypatch):
        # the other parties' side comes from the per-party frames, so no
        # Kronecker product of operators is formed
        import locc_forge.measurement as measurement
        import locc_forge.operators as operators

        m = conditional_basis(4, 3, 0)

        def refused(*args):
            raise AssertionError("a joint operator was formed")

        for module in (operators, measurement):
            monkeypatch.setattr(module, "tensor", refused)
        monkeypatch.setattr(np, "kron", refused)
        for p in range(len(m.parties)):
            assert len(search_frames(m, p)[1]) >= 1

    def test_tables_match_their_definitions(self, catalog_all):
        # the conditional bases give Khatri-Rao complements of 2 to 4 parties
        for m in [*catalog_all.values(), conditional_basis(3, 3, 0),
                  conditional_basis(4, 2, 0), conditional_basis(5, 2, 0)]:
            for p in range(len(m.parties)):
                acting, coords, identity = search_frames(m, p)
                local = m.local_factors(p)
                want = np.einsum("mij,nij->mn", local.conj(), local).real
                assert np.abs(acting.T @ acting - want).max() < 1e-10
                comp = complement_factors(m, p)
                want = np.einsum("mij,nij->mn", comp.conj(), comp).real
                assert np.abs(coords.T @ coords - want).max() < 1e-10
                # the eps trim keeps the dimensions of the greedy spans
                assert len(coords) == len(complement_span(m, p))
                assert len(acting) == len(local_span(m, p))
                # the identity's coordinates solve coords^T y = Tr C exactly
                traces = np.trace(comp, axis1=1, axis2=2).real
                want, *_ = np.linalg.lstsq(coords.T, traces, rcond=None)
                assert np.abs(identity - want).max() < 1e-10

    def test_near_parallel_span_kept_and_zero_span_refused(self):
        # A's factors I and I + 1e-7 Z pass the rank cutoff of
        # independent_subset, though their Gram matrix has condition number
        # about 1e15 (I - 1e-7 Z completes the measurement)
        z = 1e-7 * np.diag([1.0, -1.0])
        m = SeparableMeasurement([Party("A", 2), Party("B", 2)],
                                 [("0", (EYE2, P0)), ("1", (EYE2 + z, P1)),
                                  ("2", (EYE2 - z, P1))], [1.0, 0.5, 0.5])
        for p in range(2):
            acting = search_frames(m, p)[0]
            assert len(acting) == len(local_span(m, p)) == 2
            local = m.local_factors(p)
            want = np.einsum("mij,nij->mn", local.conj(), local).real
            assert np.abs(acting.T @ acting - want).max() < 1e-10
        # a party whose factors are all zero has an empty span and no frame,
        # and so does a cut whose other parties' factors are (each outcome
        # here has a zero factor on B or C); either makes every outcome
        # zero, so the constructor refuses the measurement as incomplete
        # and no such span reaches build_q
        with pytest.raises(IncompleteMeasurementError, match="residual 2.000e"):
            SeparableMeasurement([Party("A", 2), Party("B", 2)],
                                 [("0", (0 * EYE2, P0)), ("1", (0 * EYE2, P1))], [1.0, 1.0])
        with pytest.raises(IncompleteMeasurementError, match="residual 2.828e"):
            SeparableMeasurement([Party("A", 2), Party("B", 2), Party("C", 2)],
                                 [("0", (P0, 0 * EYE2, P0)), ("1", (P1, P0, 0 * EYE2))],
                                 [1.0, 1.0])


def _below_root(ctx) -> bool:
    """Whether the node's bystander operator is not a multiple of the identity."""
    abar = bystander_operator(ctx)
    eye = np.eye(len(abar))
    return len(abar) > 1 and not np.allclose(abar * len(abar) / np.trace(abar), eye)


def _non_product_contexts(catalog_all) -> list:
    """Contexts at random coefficient vectors whose dense node operator is
    clearly not X (x) Abar across the acting party's cut."""
    rng = np.random.default_rng(7)
    out = []
    for m in [*catalog_all.values(), conditional_basis(2, 3, 4), conditional_basis(3, 3, 17)]:
        for party in range(len(m.parties)):
            for _ in range(3):
                ctx = NodeContext(m, party, rng.uniform(0.0, 1.0, m.n_outcomes))
                op = reconstruct(m, ctx.coeffs)
                _, residual = project_factor(op, bystander_operator(ctx), party, m.dims)
                if residual > 1e-3 * np.abs(op).max():
                    out.append(ctx)
    assert len(out) >= 20
    return out


def _build_every_pair(monkeypatch) -> None:
    """Have the search also call build_q on the (party, node) pairs below the
    root that it answers without Q: those of a party that cannot move."""
    import locc_forge.engine as engine
    import locc_forge.feasibility as feasibility

    analyse = engine._Search.analyse

    def analysed(self, party, coeffs):
        built = self.stats.cones_built
        cone = analyse(self, party, coeffs)
        if self.stats.cones_built == built:
            feasibility.build_q(NodeContext(self.m, party, coeffs))
        return cone

    monkeypatch.setattr(engine._Search, "analyse", analysed)


def _search_contexts(monkeypatch, measurements) -> list:
    """The context of every build_q call made by synthesizing each
    measurement, with every pair below the root built."""
    import locc_forge.feasibility as feasibility

    _build_every_pair(monkeypatch)
    original = feasibility.build_q
    contexts = []

    def recorded(ctx):
        contexts.append(ctx)
        return original(ctx)

    monkeypatch.setattr(feasibility, "build_q", recorded)
    for m in measurements:
        synthesize(m)
    return contexts


class TestBystanderCoords:
    """y, read from the node's coefficients, against the dense partial trace."""

    def test_parallel_to_dense_abar_at_every_node(self, monkeypatch, catalog_all):
        measurements = [*catalog_all.values(), conditional_basis(3, 4, 0),
                        conditional_basis(5, 2, 0), conditional_basis(3, 3, 17)]
        contexts = _search_contexts(monkeypatch, measurements)
        assert any(map(_below_root, contexts))
        for ctx in contexts:
            m, p = ctx.measurement, ctx.acting_party
            acting, coords, _ = search_frames(m, p)
            y = _bystander_coords(acting, coords, ctx.coeffs)
            # the oracle's Abar in the same coordinates, from its pairings
            # Tr(Abar C_n) with the complement factors: coords^T y = pairings
            abar = bystander_operator(ctx)
            pairings = np.einsum("ij,nij->n", abar.conj(), complement_factors(m, p)).real
            want, *_ = np.linalg.lstsq(coords.T, pairings, rcond=None)
            y, want = y / np.linalg.norm(y), want / np.linalg.norm(want)
            assert np.abs(y - np.sign(y @ want) * want).max() <= 1e-10


def _dense_off_span_gram(ctx) -> np.ndarray:
    """[Tr(N_m N_n)] for N_n = L_n (x) (C_n - <Abar, C_n> Abar / |Abar|^2),
    formed from dense operators."""
    m, p, abar = ctx.measurement, ctx.acting_party, bystander_operator(ctx)
    comp = complement_factors(m, p)
    along = np.einsum("ij,nij->n", abar.conj(), comp) / np.vdot(abar, abar)
    perp = comp - along[:, None, None] * abar
    ops = np.stack([np.kron(a, c) for a, c in zip(m.local_factors(p), perp)])
    flat = ops.reshape(len(ops), -1)
    return (flat.conj() @ flat.T).real


class TestIsometricQ:
    """Q c holds coordinates of the part of sum_n c_n O_n off span_A (x) Abar."""

    def test_gram_of_q_is_the_off_span_gram_at_every_node(self, monkeypatch):
        contexts = _search_contexts(monkeypatch, (qubit_pair(), seven_outcome_family(0),
                                                  conditional_basis(3, 3, 17)))
        assert any(map(_below_root, contexts))
        for ctx in contexts:
            q = build_q(ctx)
            # Q holds the support's columns; the tolerance keeps the scale
            # of the whole Gram, whose support block can be pure roundoff
            gram = _dense_off_span_gram(ctx)
            want = gram[np.ix_(ctx.support, ctx.support)]
            assert np.abs(q.T @ q - want).max() <= 1e-10 * np.abs(gram).max()


def _oracle_measurements():
    return [qubit_pair(), phase_five(), rotated_dominoes(),
            seven_outcome_family(0), conditional_basis(3, 3, 17),
            conditional_basis(2, 5, 17)]


class TestAgainstDenseOracle:
    """The coefficient-space build_q against the dense-operator reference."""

    def test_nullspaces_match_at_every_node(self, monkeypatch):
        import locc_forge.feasibility as feasibility

        original = feasibility.build_q
        contexts = []

        def compared(ctx):
            q = original(ctx)
            n = len(ctx.support)
            want = my_nullspace_projector(dense_build_q(ctx), n)
            assert np.abs(my_nullspace_projector(q, n) - want).max() < 1e-8
            contexts.append(ctx)
            return q

        monkeypatch.setattr(feasibility, "build_q", compared)
        _build_every_pair(monkeypatch)
        measurements = _oracle_measurements()
        for m in measurements:
            synthesize(m)
        below_root = [c for c in contexts if _below_root(c)]
        assert len(contexts) > 4 * len(measurements) and below_root

    def test_same_off_span_bystander_rejected(self, catalog_all):
        # a non-product node lies off span_A (x) Abar for every Abar
        for ctx in _non_product_contexts(catalog_all):
            for analyze in (feasible_cone, dense_build_q):
                with pytest.raises(InconsistentNodeError):
                    analyze(ctx)
        m = seven_outcome_family(0)
        for ctx in (NodeContext(m, 0, np.array([1.0, 0, 3, 0, 6, 0, 1])),
                    NodeContext(m, 0, np.array([1.0, 0, 3, 0, 0, 0, 0]))):
            feasible_cone(ctx)
            dense_build_q(ctx)

    def test_trees_match_search_on_oracle(self, monkeypatch):
        import locc_forge.engine as engine
        import locc_forge.feasibility as feasibility

        def flatten(node):
            return [(n.acting_party, len(n.children),
                     None if n.leaf_outcome is None else n.leaf_outcome[0],
                     np.asarray(n.coeffs, float)) for n, _ in node.walk()]

        found = [synthesize(m) for m in _oracle_measurements()]
        # every (party, node) pair of the reference search goes through the
        # dense Q, those of a party that cannot move included
        monkeypatch.setattr(feasibility, "build_q", dense_build_q)
        monkeypatch.setattr(engine._Search, "analyse",
                            lambda self, p, c: feasible_cone(NodeContext(self.m, p, c)))
        for cert, m in zip(found, _oracle_measurements()):
            ref = synthesize(m)
            assert cert.verdict == ref.verdict
            assert cert.root_dims == ref.root_dims
            assert (cert.tree is None) == (ref.tree is None)
            if ref.tree is None:
                continue
            got, want = flatten(cert.tree), flatten(ref.tree)
            assert [g[:3] for g in got] == [w[:3] for w in want]
            for g, w in zip(got, want):
                assert np.abs(g[3] - w[3]).max() <= 1e-9 * max(1.0, np.abs(w[3]).max())


class TestFaceRestriction:
    """Below the root a cone is built on its node's support: the face of the
    whole cone where every other coefficient is 0."""

    def test_rays_are_the_whole_cone_rays_on_the_support(self, monkeypatch, catalog_all):
        measurements = [*catalog_all.values(), conditional_basis(3, 4, 0),
                        conditional_basis(5, 2, 0), conditional_basis(3, 3, 17)]
        contexts = list(_search_contexts(monkeypatch, measurements))
        restricted = 0
        for ctx in contexts:
            n = ctx.measurement.n_outcomes
            cone = feasible_cone(ctx)
            off = np.setdiff1d(np.arange(n), ctx.support)
            restricted += len(off) > 0
            want = [r for r in whole_cone_rays(ctx) if np.abs(r[off]).max(initial=0.0) <= 1e-10]
            got = np.array(cone.extreme_rays)
            assert got.shape == (len(want), n)
            gap = np.abs(got[:, None, :] - np.array(want)[None, :, :]).max(axis=2)
            assert np.all(gap.min(axis=1) <= 1e-10)
            assert len(set(gap.argmin(axis=1).tolist())) == len(want)
            # exact zeros off the support, and no roundoff residue on it
            assert not np.any(got[:, off])
            assert not np.any((got > 0) & (got < 1e-12 * got.max(axis=1, keepdims=True)))
        assert restricted > len(contexts) / 2

    def test_root_keeps_every_outcome(self, catalog_all):
        for m in catalog_all.values():
            for party in range(len(m.parties)):
                ctx = root_context(m, party)
                cone = feasible_cone(ctx)
                assert ctx.support.tolist() == list(range(m.n_outcomes))
                assert np.array_equal(face_qmatrix(ctx), build_q(ctx))
                assert cone.extreme_rays.shape[1] == m.n_outcomes

    def test_face_matrix_describes_the_face(self, m_seven):
        ctx = NodeContext(m_seven, 0, np.array([1.0, 0, 3, 0, 6, 0, 1]))
        cone = feasible_cone(ctx)
        q = face_qmatrix(ctx)
        assert q.shape[1] == 7
        # the face's nullspace basis: the support's, zero on outcomes 2, 4, 6
        face_basis, _ = nullspace(build_q(ctx), 4)
        basis = np.zeros((7, face_basis.shape[1]))
        basis[ctx.support] = face_basis
        assert cone.nullspace_dim == basis.shape[1]
        # the unit rows pin outcomes 2, 4 and 6 to zero
        assert np.abs(q @ basis).max() < 1e-12
        assert np.abs(my_nullspace_projector(q, 7) - basis @ basis.T).max() < 1e-10


class TestFeasibleCone:
    def test_qubit_pair_first_party(self, m_pair):
        cone = feasible_cone(root_context(m_pair, 0))
        assert cone.nullspace_dim == 2
        rays = sorted(tuple(np.round(r, 9)) for r in cone.extreme_rays)
        assert rays == [(0, 0, 0.5, 0.5), (0.5, 0.5, 0, 0)]

    def test_qubit_pair_second_party(self, m_pair):
        cone = feasible_cone(root_context(m_pair, 1))
        assert cone.nullspace_dim == 1
        assert len(cone.extreme_rays) == 1

    def test_seven_outcome_second_party(self, m_seven):
        ctx = root_context(m_seven, 1)
        cone = feasible_cone(ctx)
        assert cone.nullspace_dim == 2
        # the completeness vector lies in the nullspace
        basis, _ = nullspace(build_q(ctx), 7)
        coords = basis.T @ (SEVEN_WEIGHTS / SEVEN_WEIGHTS.sum())
        back = basis @ coords
        assert np.abs(back - SEVEN_WEIGHTS / SEVEN_WEIGHTS.sum()).max() < 1e-10

    def test_weights_in_nullspace_for_all_parties(self, catalog_all):
        for m in catalog_all.values():
            w = m.weights / m.weights.sum()
            for party in range(len(m.parties)):
                q = build_q(root_context(m, party))
                if q.shape[0]:
                    assert np.abs(q @ w).max() < 1e-9

    def test_rays_satisfy_constraints(self, catalog_all):
        for m in catalog_all.values():
            for party in range(len(m.parties)):
                ctx = root_context(m, party)
                cone = feasible_cone(ctx)
                q = build_q(ctx)
                for ray in cone.extreme_rays:
                    assert ray.min() >= 0
                    assert abs(ray.sum() - 1.0) < 1e-12
                    if q.shape[0]:
                        assert np.abs(q @ ray).max() < 1e-9

    def test_product_guarantee(self, catalog_all):
        # all cone vectors reconstruct to (acting factor) x (bystander)
        rng = np.random.default_rng(42)
        for m in catalog_all.values():
            dims = m.dims
            for party in range(len(m.parties)):
                ctx = root_context(m, party)
                cone = feasible_cone(ctx)
                for _ in range(5):
                    mix = rng.uniform(0.1, 1.0, size=len(cone.extreme_rays))
                    vec = sum(t * r for t, r in zip(mix, cone.extreme_rays))
                    op = reconstruct(m, vec)
                    factorize(op, bystander_operator(ctx), party, dims)  # raises on failure

    def test_parent_outside_cone_rejected(self, m_pair):
        ctx = NodeContext(m_pair, 1, np.array([1.0, 0.5, 0.25, 0.1]))
        with pytest.raises(InconsistentNodeError):
            feasible_cone(ctx)


def _counting_qr(monkeypatch) -> list:
    calls = []
    qr = np.linalg.qr

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return calls


class TestNullspaceOnR:
    """A tall Q's SVD runs on the R of its QR; the rank is decided for Q."""

    def test_root_q_matches_direct_svd(self):
        shapes = set()
        for m in benchmark_instances():
            n = m.n_outcomes
            for party in range(len(m.parties)):
                q = build_q(root_context(m, party))
                basis, marginal = nullspace(q, n)
                direct = rank_cutoff_nullspace(q, n)
                assert basis.shape[1] == direct.shape[1]
                assert marginal == (q.shape[0] > 0 and rank_cutoff_marginal(q))
                assert np.abs(basis @ basis.T - direct @ direct.T).max() < 1e-12
                shapes.add(q.shape)
        # both paths are exercised
        assert (663, 64) in shapes and any(r > c >= 32 for r, c in shapes)
        assert any(0 < c < 32 for _, c in shapes)

    def test_cutoff_reads_q_shape_not_r_shape(self, monkeypatch):
        # sigma = 1e-9 sigma_1 lies below Q's cutoff, 200 * 1e-11 = 2e-9,
        # and above R's, 40 * 1e-11 = 4e-10
        rng = np.random.default_rng(7)
        u, _ = np.linalg.qr(rng.standard_normal((200, 40)))
        v, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        sigma = np.append(np.logspace(0, -1, 39), 1e-9)
        q = (u * sigma) @ v.T
        assert rank_threshold((40, 40), 1.0) < 1e-9 < rank_threshold((200, 40), 1.0)
        calls = _counting_qr(monkeypatch)
        basis, marginal = nullspace(q, 40)
        assert calls == [(200, 40)]
        assert basis.shape == (40, 1) and marginal
        assert abs(abs(float(basis[:, 0] @ v[:, -1])) - 1.0) < 1e-9

    def test_marginal_band_is_open_at_both_ends(self):
        # sigma exactly at either end of the band is not marginal; one ulp
        # inside either end is
        cutoff = rank_threshold((2, 2), 1.0)
        top, bottom = cutoff * MARGINAL_RANK_BAND, cutoff / MARGINAL_RANK_BAND
        cases = [(top, False), (bottom, False),
                 (np.nextafter(top, 0.0), True), (np.nextafter(bottom, 1.0), True)]
        for s, marginal in cases:
            q = np.diag([1.0, s])
            assert np.array_equal(np.linalg.svd(q, compute_uv=False), [1.0, s])
            assert nullspace(q, 2)[1] is marginal
            assert rank_cutoff_marginal(q) is marginal

    def test_path_chosen_by_shape(self, monkeypatch):
        qs = [build_q(root_context(m, p))
              for m in catalog_instances() for p in range(len(m.parties))]
        assert len(qs) == 66
        deep = conditional_basis(3, 4, [0, 3, 4])
        tall = build_q(root_context(deep, 1))
        assert tall.shape == (663, 64)
        calls = _counting_qr(monkeypatch)
        for q in qs:
            nullspace(q, q.shape[1])
        assert calls == []
        nullspace(tall, 64)
        assert calls == [(663, 64)]


def _full_route(m):
    """Every party's root cone with the frame certificate turned off: Q,
    the nullspace SVD and extreme_rays, the route of every uncertified
    cone."""
    import locc_forge.engine as engine

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "certified_root_cones", lambda m: [None] * len(m.parties))
        return check_root(m)


def _counting(monkeypatch, name: str) -> list:
    """One entry per call of ``feasibility.<name>``: its first argument's shape."""
    import locc_forge.feasibility as feasibility

    calls = []
    original = getattr(feasibility, name)

    def counted(first, *args):
        calls.append(np.shape(first))
        return original(first, *args)

    monkeypatch.setattr(feasibility, name, counted)
    return calls


def _parent_half_line(m, party) -> np.ndarray:
    """The weights' half-line as Q's one-column route gives it: the unit
    L1-normalized weights through ``extreme_rays``."""
    w = np.asarray(m.weights, dtype=float)
    y = w / np.abs(w).sum()
    return extreme_rays(build_q(root_context(m, party)), (y / np.sqrt(y @ y))[:, None])


def _near_identity(eps: float, scales) -> SeparableMeasurement:
    """A measures P0 or P1; after P0, B measures (I +- eps Z) / 2.  Outcome
    j is scaled by scales[j] against its weight.  A's cone is the plane of
    its two outcomes on P0 and the one on P1, but the Gram of B's factors
    projected off the identity is of order eps^2 against magnitudes of
    order 1, so G cancels for A."""
    z = np.diag([1.0, -1.0])
    factors = [(P0, (EYE2 + eps * z) / 2), (P0, (EYE2 - eps * z) / 2), (P1, EYE2)]
    outcomes = [(str(j), (s * a, b)) for j, ((a, b), s) in enumerate(zip(factors, scales))]
    return SeparableMeasurement([Party("A", 2), Party("B", 2)], outcomes,
                                [1 / s for s in scales])


class TestRootCertificate:
    """A one-dimensional root cone is certified from the parties' frames,
    with no Q, and is the cone the full route returns; every other root
    cone takes the full route."""

    def test_audit_root_cones_equal_the_full_route(self):
        certified = fallbacks = 0
        for m in audit_instances():
            for party, (got, full) in enumerate(zip(check_root(m), _full_route(m))):
                assert got.nullspace_dim == full.nullspace_dim
                assert got.marginal_rank == full.marginal_rank
                assert got.extreme_rays.shape == full.extreme_rays.shape
                assert np.array_equal(got.extreme_rays == 0, full.extreme_rays == 0)
                assert np.abs(got.extreme_rays - full.extreme_rays).max() <= 1e-15
                # every one-dimensional root cone is certified, so a bound
                # that drifts loose fails here, not only runs slower
                assert got.certified == (full.nullspace_dim == 1)
                if got.certified:
                    expected = _parent_half_line(m, party)
                else:
                    expected = full.extreme_rays
                assert got.extreme_rays.tobytes() == expected.tobytes()
                certified += got.certified
                fallbacks += not got.certified
        assert (certified, fallbacks) == (259, 97)

    def test_certified_parties_build_no_q(self, monkeypatch):
        builds = _counting(monkeypatch, "build_q")
        measurements = [phase_five()] + [rotated_dominoes(*a) for a in domino_angle_sets()]
        assert len(measurements) == 22
        for m in measurements:
            assert [r.certified for r in check_root(m)] == [True, True]
            assert m._cut_sides == {}
        assert builds == []

    def test_a_cold_root_check_builds_only_uncertified_sides(self):
        """Each cut side is built on first use: at 9x2 the certificate
        settles parties 1-8, so only party 0's side is folded."""
        m = conditional_basis(9, 2, 0)
        assert [r.certified for r in check_root(m)] == [False] + [True] * 8
        assert list(m._cut_sides) == [0]

    def test_bennett_basis_is_impossible_without_q(self, monkeypatch):
        builds = _counting(monkeypatch, "build_q")
        m = bennett_three_qubit()
        cert = synthesize(m)
        assert cert.verdict is Verdict.IMPOSSIBLE_AT_ROOT and cert.root_dims == (1, 1, 1)
        assert [r.certified for r in check_root(m)] == [True, True, True]
        assert builds == []
        assert m._cut_sides == {}

    def test_two_dimensional_cone_falls_back(self, monkeypatch, m_pair):
        calls = _counting(monkeypatch, "nullspace")
        builds = _counting(monkeypatch, "build_q")
        first, second = check_root(m_pair)
        assert len(calls) == 1 and first.nullspace_dim == 2 and not first.certified
        assert second.certified and len(builds) == 1
        full = _full_route(m_pair)[0]
        assert first.extreme_rays.tobytes() == full.extreme_rays.tobytes()

    def test_weight_error_falls_back(self, m_pair):
        # a weight off by 1e-10, which the constructor accepts: Q is the
        # same, but the completeness residual is not roundoff, so B's cone
        # takes the SVD, whose null vector is still the exact weights'
        # direction
        w = np.array(m_pair.weights, dtype=float)
        w[0] = 1.0000000001
        m = SeparableMeasurement(m_pair.parties,
                                 [(o.label, o.factors) for o in m_pair.outcomes], w)
        assert certified_root_cones(m) == [None, None]
        cone = check_root(m)[1]
        assert cone.nullspace_dim == 1 and not cone.marginal_rank and not cone.certified
        assert np.abs(cone.extreme_rays[0] - 0.25).max() <= 1e-15
        # the same measurement with exact weights is certified
        assert certified_root_cones(m_pair)[1] is not None

    @pytest.mark.parametrize("theta, marginal", [(1e-9, True), (1e-7, False)])
    def test_near_degenerate_gap_falls_back(self, monkeypatch, theta, marginal):
        # one domino angle near 0 leaves party B's sigma_(n-1) / sigma_1 at
        # 0.82 theta: inside the marginal band at 1e-9, and above it but
        # within the Gram's roundoff at 1e-7, so neither is certified
        m = rotated_dominoes(theta, np.pi / 4, np.pi / 4, np.pi / 4)
        first, second = certified_root_cones(m)
        assert first is not None and first.certified and second is None
        calls = _counting(monkeypatch, "nullspace")
        with pytest.warns(MarginalRankWarning) if marginal else nullcontext():
            cone = check_root(m)[1]
            assert len(calls) == 1 and not cone.certified
            full = feasible_cone(root_context(m, 1))
        assert cone.nullspace_dim == 1 and cone.marginal_rank is marginal
        assert cone.extreme_rays.tobytes() == full.extreme_rays.tobytes()

    @pytest.mark.parametrize("eps", [10.0 ** -k for k in range(2, 13)])
    @pytest.mark.parametrize("scales", [(1.0, 1.0, 1.0), (1e6, 1.0, 1.0), (1.0, 1e-6, 1.0),
                                        (1e-6, 1e6, 1.0), (1.0, 1.0, 1e6), (1e3, 1e-3, 1e-6)])
    def test_cancelling_gram_is_never_certified_wrongly(self, eps, scales):
        # the certificate bounds rounding by the magnitudes before H - b b^T
        # / d cancels: bounds read from G's computed trace would take
        # rounding noise for a gap and report A's plane as a half-line.  The
        # full route itself fails on some scaled members (ConeError), where
        # nothing may be certified either
        m = _near_identity(eps, scales)
        got = certified_root_cones(m)
        assert got[0] is None
        for party, cone in enumerate(got):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", MarginalRankWarning)
                try:
                    full = feasible_cone(root_context(m, party))
                except ConeError:
                    assert cone is None
                    continue
            if party == 0:
                assert full.nullspace_dim == 2
            if cone is not None:
                assert full.nullspace_dim == 1 and not full.marginal_rank
                assert np.array_equal(cone.extreme_rays == 0, full.extreme_rays == 0)
                assert np.abs(cone.extreme_rays - full.extreme_rays).max() <= 1e-9

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
    def test_near_identity_factors_leave_the_other_party_certified(self, eps):
        # B's cone, a half-line with sigma_(n-1) of order eps, is certified
        # while the Gram's squaring keeps that gap above roundoff
        got = certified_root_cones(_near_identity(eps, (1.0, 1.0, 1.0)))
        assert got[0] is None and got[1] is not None

    @pytest.mark.parametrize("s", [1e-8, 1e-6, 1e-3, 1e3, 1e5, 1e6, 1e7, 1e8])
    def test_an_outcome_scaled_against_its_weight_is_never_certified_wrongly(self, s):
        # A measures {s P0 (x) I, P1 (x) I}: H - b b^T / d is zero for A in
        # exact arithmetic, and the computed one is a positive roundoff
        # matrix, which G's diagonal scales by s^2
        m = SeparableMeasurement([Party("A", 2), Party("B", 2)],
                                 [("0", (s * P0, EYE2)), ("1", (P1, EYE2))], [1 / s, 1.0])
        got = certified_root_cones(m)
        assert got[0] is None
        assert [r.nullspace_dim for r in _full_route(m)] == [2, 1]
        assert [r.nullspace_dim for r in check_root(m)] == [2, 1]

    def test_one_party_takes_the_full_route(self):
        # no other party: the cut side is a single row and Q has none
        m = SeparableMeasurement([Party("A", 2)], [("0", (P0,)), ("1", (P1,))], [1.0, 1.0])
        assert certified_root_cones(m) == [None]
        assert check_root(m)[0].nullspace_dim == 2

    def test_below_the_root_is_not_certified(self, monkeypatch):
        import locc_forge.engine as engine

        met = []

        def recorded(ctx):
            cone = feasible_cone(ctx)
            met.append((ctx.root, cone))
            return cone

        monkeypatch.setattr(engine, "feasible_cone", recorded)
        calls = _counting(monkeypatch, "nullspace")
        for m in benchmark_instances():
            synthesize(m)
        below = [cone for root, cone in met if not root]
        assert any(cone.nullspace_dim == 1 for cone in below)
        # no cone built from Q is certified, and each takes one nullspace call
        assert not any(cone.certified for _, cone in met)
        assert len(calls) == len(met)


class TestReconstruct:
    def test_weights_give_identity(self, catalog_all):
        for m in catalog_all.values():
            op = reconstruct(m, m.weights)
            assert np.abs(op - np.eye(m.total_dim)).max() < 1e-10

    def test_unit_vector_gives_outcome(self, m_pair):
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1.0
            assert np.array_equal(reconstruct(m_pair, e),
                                  m_pair.outcome_operators[j])

    def test_seven_outcome_branch_operator(self, m_seven):
        # coefficients (1,0,3,0,6,0,1) collapse to I (x) B7
        b7 = m_seven.outcomes[6].factors[1]
        op = reconstruct(m_seven, np.array([1.0, 0, 3, 0, 6, 0, 1]))
        assert np.abs(op - np.kron(EYE2, b7)).max() < 1e-12


class TestFactorize:
    def test_identity(self, m_pair):
        out = factorize(np.eye(4, dtype=complex), EYE2, 0, (2, 2))
        assert np.abs(out - EYE2).max() < 1e-12

    def test_diagonal_first_factor(self, m_pair):
        c3 = 0.7
        op = reconstruct(m_pair, np.array([1.0, 1.0, c3, c3]))
        out = factorize(op, EYE2, 0, (2, 2))
        assert np.abs(out - (P0 + c3 * P1)).max() < 1e-12

    def test_seven_outcome_interior_node(self, m_seven):
        a = [o.factors[0] for o in m_seven.outcomes]
        b1 = m_seven.outcomes[0].factors[1]
        op = reconstruct(m_seven, np.array([1.0, 0, 3, 0, 0, 0, 0]))
        out = factorize(op, b1, 0, (2, 2))
        assert np.abs(out - 3 * a[4]).max() < 1e-10   # 3 A5 = A1 + A3

    def test_non_product_raises(self):
        ent = np.zeros((4, 4), dtype=complex)
        ent[0, 0] = ent[0, 3] = ent[3, 0] = ent[3, 3] = 0.5
        with pytest.raises(NotProductError):
            factorize(ent, EYE2, 0, (2, 2))
