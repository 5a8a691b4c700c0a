import tracemalloc

import numpy as np
import pytest

from relqft import causality, fields, frames, lattice
from relqft import operators as ops
from relqft.lattice import LatticePoint, ModelParams
from relqft.tolerances import TOL_FEAS

P3 = ModelParams(3, 2)
P5 = ModelParams(5, 2)


def site_state(params, x):
    d = params.N ** 2
    index = {p: i for i, p in enumerate(params.lattice_points())}
    v = np.zeros(d, dtype=complex)
    v[index[LatticePoint(*x)]] = 1.0
    return np.outer(v, v.conj())


def witness_frame():
    """Sharp sites times uniform boosts at N = 3, with a single-site
    preparation smeared uniformly over the fiber."""
    rep = ops.tensor_product_rep(ops.spacetime_representation(P3),
                                 ops.lorentz_representation(P3))
    fr = frames.build_frame(rep, ops.tensor(site_state(P3, (0, 0)),
                                            np.eye(2, dtype=complex) / 2))
    omega = ops.tensor(site_state(P3, (1, 2)), np.eye(2, dtype=complex) / 2)
    return fr, omega


def prepared(fr, *omegas):
    """One preparation of the frame per state."""
    return [frames.OrientedFrame(fr, omega) for omega in omegas]


def test_frame_einstein_causal_for_commuting_effects():
    fr = frames.fiber_uniform_spacetime_frame(P5)
    pairs, residual = causality.check_frame_einstein_causal(fr)
    assert pairs > 0 and residual <= 1e-10
    assert residual < 1e-14


@pytest.mark.parametrize("params", [P3, P5], ids=["N3", "N5"])
def test_einstein_pairs_are_the_spacelike_pairs_of_frame_points(params):
    fr = frames.fiber_uniform_spacetime_frame(params)
    points = params.frame_points()
    expected = sum(lattice.spacelike(f.x, g.x, params)
                   for i, f in enumerate(points) for g in points[i + 1:])
    assert causality.check_frame_einstein_causal(fr)[0] == expected > 0


def test_spacelike_site_preparations_are_r_causal():
    rep = ops.spacetime_representation(P5)
    fr = frames.fiber_uniform_spacetime_frame(P5)
    system = fields.SystemModel(P5, rep, site_state(P5, (0, 0)))
    of1, of2 = prepared(fr, site_state(P5, (1, 4)), site_state(P5, (4, 1)))
    pairs, micro = causality.check_r_microcausal(system, of1, of2)
    causal = causality.check_r_causal(system, of1, of2)
    assert pairs > 0 and micro <= 1e-10
    assert causality.r_spacelike(of1, of2) and causal <= 1e-10
    assert causal < 1e-14


def test_distinct_diagonal_smearings_on_spacelike_sites(rng):
    # diagonal smearings commute with the sharp site effects, so both the
    # pointwise and the integrated commutators vanish; a generic dense
    # smearing would break the pointwise premise instead
    rep = ops.spacetime_representation(P5)
    fr = frames.fiber_uniform_spacetime_frame(P5)
    phi1 = np.diag(rng.random(rep.dim)).astype(complex)
    phi2 = np.diag(rng.random(rep.dim)).astype(complex)
    system = fields.SystemModel(P5, rep, phi1)
    of1, of2 = prepared(fr, site_state(P5, (1, 4)), site_state(P5, (4, 1)))
    pairs, micro = causality.check_r_microcausal(system, of1, of2, phi1, phi2)
    causal = causality.check_r_causal(system, of1, of2, phi1, phi2)
    assert pairs > 0 and micro <= 1e-10
    assert causal <= 1e-10
    assert causality.r_spacelike(of1, of2)


def test_dense_smearing_breaks_the_pointwise_premise(rng):
    rep = ops.spacetime_representation(P5)
    fr = frames.fiber_uniform_spacetime_frame(P5)
    phi = ops.random_hermitian(rng, rep.dim)
    system = fields.SystemModel(P5, rep, phi)
    pairs, micro = causality.check_r_microcausal(system, *prepared(
        fr, site_state(P5, (1, 4)), site_state(P5, (4, 1))))
    assert pairs > 0 and micro > 1e-10


def test_timelike_site_preparations_are_vacuous():
    rep = ops.spacetime_representation(P5)
    fr = frames.fiber_uniform_spacetime_frame(P5)
    system = fields.SystemModel(P5, rep, site_state(P5, (0, 0)))
    of1, of2 = prepared(fr, site_state(P5, (0, 0)), site_state(P5, (1, 1)))
    pairs, _ = causality.check_r_microcausal(system, of1, of2)
    assert pairs == 0
    assert not causality.r_spacelike(of1, of2)


def test_joint_constraint_shape_and_witness_feasibility():
    fr, omega = witness_frame()
    mu = frames.born_measure(frames.OrientedFrame(fr, omega))
    A, b = causality.joint_constraint_system(fr, mu, mu)
    # one complex row per ordered pair, plus the trace row, over the d^2
    # entries of the operator
    n_points = len(fr.params.frame_points())
    assert A.shape == (n_points ** 2 + 1, fr.dim ** 2)
    assert A.dtype == complex
    assert b.shape == (n_points ** 2 + 1,)
    assert np.max(np.abs(A @ omega.reshape(-1) - b)) < 1e-14
    # the preparation itself satisfies every factorization constraint
    worst = 0.0
    for Ep, wp in zip(fr.effects, mu.weights):
        for Eq, wq in zip(fr.effects, mu.weights):
            lhs = np.trace(omega @ Ep @ Eq)
            worst = max(worst, abs(lhs - wp * wq))
    assert worst < 1e-14


def per_pair_constraint_system(fr, mu1, mu2):
    """The oracle: the constraint rows one effect pair at a time, row
    (p, q) the flattened transpose of E(p)E(q)."""
    rows, rhs = [], []
    for Ep, w1 in zip(fr.effects, np.real(mu1.weights)):
        for Eq, w2 in zip(fr.effects, np.real(mu2.weights)):
            rows.append((Ep @ Eq).T.reshape(-1))
            rhs.append(float(w1 * w2))
    rows.append(np.eye(fr.dim, dtype=complex).reshape(-1))
    rhs.append(1.0)
    return np.array(rows), np.array(rhs)


@pytest.mark.parametrize("frame_rep", ["witness", "regular", "lorentz"])
def test_joint_constraint_system_equals_the_per_pair_loop(rng, frame_rep):
    if frame_rep == "witness":
        fr, _ = witness_frame()
    else:
        rep = getattr(ops, f"{frame_rep}_representation")(P3)
        d = rep.dim
        fr = frames.build_frame(
            rep, np.eye(d) / d + 0.4 * ops.random_psd(rng, d) / d)
    mu1, mu2 = (frames.born_measure(frames.OrientedFrame(
        fr, ops.random_state(rng, fr.dim))) for _ in range(2))
    A, b = causality.joint_constraint_system(fr, mu1, mu2)
    A_loop, b_loop = per_pair_constraint_system(fr, mu1, mu2)
    assert np.array_equal(A, A_loop)
    assert np.array_equal(b, b_loop)


def test_joint_constraint_system_is_capped(monkeypatch):
    fr, omega = witness_frame()
    mu = frames.born_measure(frames.OrientedFrame(fr, omega))
    monkeypatch.setattr(ops, "MAX_FRAME_BYTES", 2**20)
    with pytest.raises(ops.SizeError, match="constraint system of 324 effect pairs"):
        causality.joint_constraint_system(fr, mu, mu)


def pinv_projection(A, b, x):
    """The reference affine projection, through the pseudo-inverse of all
    of A."""
    return x - np.linalg.pinv(A, rcond=1e-10) @ (A @ x - b)


def disjoint_site_system():
    """The witness system of two disjointly supported site preparations,
    which no coordinate vector satisfies."""
    fr, _ = witness_frame()
    mu1, mu2 = (frames.born_measure(frames.OrientedFrame(fr, ops.tensor(
        site_state(P3, x), np.eye(2, dtype=complex) / 2))) for x in ((0, 0), (1, 2)))
    return causality.joint_constraint_system(fr, mu1, mu2)


def test_affine_projection_equals_the_pseudo_inverse_projection(rng, monkeypatch):
    fr, omega = witness_frame()
    mu = frames.born_measure(frames.OrientedFrame(fr, omega))
    witness = causality.joint_constraint_system(fr, mu, mu)
    for A, b in (witness, disjoint_site_system()):
        project = causality.affine_projection(A, b)
        for _ in range(3):
            x = ops.random_operator(rng, fr.dim).reshape(-1)
            assert np.max(np.abs(project(x) - pinv_projection(A, b, x))) < 1e-12
    # rank 9 of 16 coordinates in row blocks of 8: the first block spans 4
    # directions, the second only combines the first, the third adds 3
    # and the fourth 2; b is off the range, so the system is inconsistent.
    # A complex draw has the same blocks; its row space is the range of
    # A^dag, and its row norms count both parts of each entry
    for complex_draw in (False, True):
        def draw(*shape):
            z = rng.standard_normal(shape)
            return z + 1j * rng.standard_normal(shape) if complex_draw else z

        R = draw(9, 16)
        first = rng.standard_normal((8, 4)) @ R[:4]
        A = np.concatenate([first, rng.standard_normal((8, 8)) @ first,
                            rng.standard_normal((8, 7)) @ R[:7],
                            rng.standard_normal((8, 9)) @ R])
        assert np.linalg.matrix_rank(A) == 9
        monkeypatch.setattr(ops, "WORK_BLOCK_BYTES", 3 * 8 * A.itemsize * 16)
        for b in (A @ rng.standard_normal(16), rng.standard_normal(len(A))):
            project = causality.affine_projection(A, b)
            for _ in range(3):
                x = draw(16)
                assert np.max(np.abs(project(x) - pinv_projection(A, b, x))) < 1e-12


def test_find_joint_state_peaks_at_about_the_constraint_matrix():
    # the projection keeps a few row blocks and A Q beside A, so the search
    # peaks at about the constraint matrix it builds
    fr, omega = witness_frame()
    mu = frames.born_measure(frames.OrientedFrame(fr, omega))
    A, _ = causality.joint_constraint_system(fr, mu, mu)
    of = frames.OrientedFrame(*witness_frame())
    tracemalloc.start()
    try:
        result = causality.find_joint_state(of, of)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.converged
    assert peak < 1.5 * A.nbytes, peak / A.nbytes


def test_find_joint_state_certificate():
    of = frames.OrientedFrame(*witness_frame())
    result = causality.find_joint_state(of, of)
    assert result.converged
    assert result.iterations == 1
    assert result.residual < 1e-7
    assert ops.is_state(result.state)


def test_witness_certificate_meets_every_pair_constraint():
    # Tr[rho E(p)E(q)] = mu(p) mu(q) for every ordered pair, one at a time
    of = frames.OrientedFrame(*witness_frame())
    rho = causality.find_joint_state(of, of).state
    effects, weights = of.frame.effects, of.measure.weights
    for Ep, wp in zip(effects, weights):
        for Eq, wq in zip(effects, weights):
            assert abs(np.trace(rho @ Ep @ Eq) - wp * wq) <= TOL_FEAS


def test_disjoint_site_preparations_admit_no_joint_state():
    # with sharp sites, cross terms E(p)E(q) vanish off the diagonal,
    # so factorizing two disjointly supported site preparations would
    # force a trace-zero state; the affine system is empty
    fr, _ = witness_frame()
    omega1 = ops.tensor(site_state(P3, (0, 0)), np.eye(2, dtype=complex) / 2)
    omega2 = ops.tensor(site_state(P3, (1, 2)), np.eye(2, dtype=complex) / 2)
    mu1 = frames.born_measure(frames.OrientedFrame(fr, omega1))
    mu2 = frames.born_measure(frames.OrientedFrame(fr, omega2))
    A, b = causality.joint_constraint_system(fr, mu1, mu2)
    stacked = np.hstack([A, b.reshape(-1, 1)])
    assert (np.linalg.matrix_rank(stacked, tol=1e-10)
            > np.linalg.matrix_rank(A, tol=1e-10))
    result = causality.find_joint_state(*prepared(fr, omega1, omega2),
                                        max_iter=60)
    assert not result.converged
    assert result.iterations == 60
    assert result.state is None
    assert result.residual > 1e-7


def test_r_spacelike_predicate():
    fr, _ = witness_frame()
    omega1 = ops.tensor(site_state(P3, (0, 1)), np.eye(2, dtype=complex) / 2)
    omega2 = ops.tensor(site_state(P3, (1, 0)), np.eye(2, dtype=complex) / 2)
    of1, of2 = prepared(fr, omega1, omega2)
    assert causality.r_spacelike(of1, of2)
    assert not causality.r_spacelike(of1, of1)


def test_r_spacelike_is_the_pairwise_rule_on_supports():
    fr = frames.fiber_uniform_spacetime_frame(P5)
    points = P5.lattice_points()
    # one, two and five supported sites: pure and mixed site states
    omegas = [site_state(P5, (1, 4)), site_state(P5, (4, 1)),
              (site_state(P5, (0, 1)) + site_state(P5, (1, 0))) / 2,
              sum(site_state(P5, (u, 0)) for u in range(5)) / 5]
    records = prepared(fr, *omegas)
    for of1 in records:
        for of2 in records:
            s1, s2 = ([points[i] for i in np.flatnonzero(
                of.disintegration.support)] for of in (of1, of2))
            assert causality.r_spacelike(of1, of2) == all(
                lattice.spacelike(x, y, P5) for x in s1 for y in s2)


def microcausal_by_pairs(system, fr, omega1, omega2, phi1, phi2):
    """(pairs, worst commutator norm): one field and one SVD per point."""
    rf1 = fields.RelationalField(system.with_phi(phi1), fr)
    rf2 = fields.RelationalField(system.with_phi(phi2), fr)
    points = system.params.lattice_points()

    def support(omega):
        mu = frames.born_measure(frames.OrientedFrame(fr, omega))
        return [points[i] for i in np.flatnonzero(frames.disintegrate(mu).support)]

    s1, s2 = support(omega1), support(omega2)
    pairs = [(x1, x2) for x1 in s1 for x2 in s2
             if lattice.spacelike(x1, x2, system.params)]
    worst = 0.0
    for x1, x2 in pairs:
        A = fields.relational_local_field(rf1, omega1, x1)
        B = fields.relational_local_field(rf2, omega2, x2)
        worst = max(worst, ops.op_norm(A @ B - B @ A),
                    ops.op_norm(ops.dagger(A) @ B - B @ ops.dagger(A)))
    return len(pairs), worst


@pytest.mark.parametrize("chunk", [ops.PAIR_CHUNK, 7])
def test_batched_microcausality_matches_the_pair_loop(monkeypatch, rng, chunk):
    monkeypatch.setattr(ops, "PAIR_CHUNK", chunk)
    rep = ops.spacetime_representation(P5)
    fr = frames.fiber_uniform_spacetime_frame(P5)
    diagonal = [np.diag(rng.random(rep.dim)).astype(complex) for _ in range(2)]
    dense = [ops.random_operator(rng, rep.dim) for _ in range(2)]
    full = [ops.random_state(rng, rep.dim) for _ in range(2)]
    sites = [(site_state(P5, (1, 4)) + site_state(P5, (2, 2))) / 2,
             site_state(P5, (4, 1))]
    # whether the fields commute at every spacelike pair of the supports
    cases = [(full, dense, False), (full, diagonal, True),
             (sites, dense, False), (sites, diagonal, True)]
    counts = []
    for (omega1, omega2), (phi1, phi2), commute in cases:
        system = fields.SystemModel(P5, rep, phi1)
        checked, residual = causality.check_r_microcausal(
            system, *prepared(fr, omega1, omega2), phi1, phi2)
        pairs, worst = microcausal_by_pairs(system, fr, omega1, omega2,
                                            phi1, phi2)
        assert checked == pairs > 0
        assert (residual <= 1e-10) == commute
        assert abs(residual - worst) <= 1e-13 * max(1.0, worst)
        counts.append(pairs)
    # two full supports give 200 spacelike pairs, no multiple of the
    # chunk, so the last chunk is a partial one
    assert counts[0] == 200 and 200 % chunk != 0
    assert counts[2] == 2


def test_microcausality_takes_one_born_measure_per_preparation(monkeypatch,
                                                               rng):
    # the pair set comes from the support masks of the two site tables, and
    # the other predicates read the same two records
    calls = []
    original = frames.born_measure

    def counting(of):
        calls.append(of)
        return original(of)

    for module in (frames, fields):
        monkeypatch.setattr(module, "born_measure", counting)
    rep = ops.spacetime_representation(P5)
    fr = frames.fiber_uniform_spacetime_frame(P5)
    system = fields.SystemModel(P5, rep, ops.random_operator(rng, rep.dim))
    of1, of2 = prepared(fr, site_state(P5, (1, 4)), site_state(P5, (4, 1)))
    pairs, _ = causality.check_r_microcausal(system, of1, of2)
    assert pairs == 1
    assert causality.r_spacelike(of1, of2)
    causality.check_r_causal(system, of1, of2)
    assert calls == [of1, of2]


def test_find_joint_state_refuses_preparations_of_two_frames():
    fr, omega = witness_frame()
    other, _ = witness_frame()
    with pytest.raises(ValueError, match="one frame"):
        causality.find_joint_state(frames.OrientedFrame(fr, omega),
                                   frames.OrientedFrame(other, omega))
