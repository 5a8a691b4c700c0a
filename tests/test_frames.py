import tracemalloc

import numpy as np
import pytest

from relqft import fields, frames, scenarios
from relqft import operators as ops
from relqft.lattice import FramePoint, LatticePoint, ModelParams

P3 = ModelParams(3, 2)
P5 = ModelParams(5, 2)


def smeared(rep, rng, strength=0.4):
    d = rep.dim
    seed = np.eye(d, dtype=complex) / d + strength * ops.random_psd(rng, d) / d
    return frames.build_frame(rep, seed)


def test_builtin_frames_are_normalized_covariant():
    for fr in (frames.uniform_frame(ops.lorentz_representation(P3)),
               frames.sharp_regular_frame(P3),
               frames.fiber_uniform_spacetime_frame(P3)):
        assert fr.normalization_defect() < 1e-12
        assert fr.covariance_defect() < 1e-12
        assert len(fr.params.frame_points()) == len(P3.frame_points())


def test_build_frame_normalizes_smeared_seed(rng):
    fr = smeared(ops.regular_representation(P3), rng)
    assert fr.normalization_defect() < 1e-10
    assert fr.covariance_defect() < 1e-10
    for E in fr.effects:
        assert ops.psd_gap(E) > -1e-10


def two_pass_frame(rep, seed):
    """Reference build: conjugate the seed to every point with dense
    matrices, then dress each effect with K^(-1/2) on both sides."""
    orbit = np.stack([U @ seed @ ops.dagger(U) for U in
                      (rep(g) for g in rep.params.group_elements())])
    Kinv = frames._inverse_sqrt(orbit.sum(axis=0))
    return Kinv @ orbit @ Kinv


def test_build_frame_matches_the_two_pass_oracle(rng):
    character = ops.character_representation(
        P5, [LatticePoint(1, 0), LatticePoint(2, 0),
             LatticePoint(4, 0), LatticePoint(3, 0)])
    for rep in (ops.regular_representation(P3),
                ops.regular_representation(P5),
                ops.spacetime_representation(P5),
                ops.lorentz_representation(P5), character):
        d = rep.dim
        seed = np.eye(d, dtype=complex) / d + 0.5 * ops.random_psd(rng, d) / d
        fr = frames.build_frame(rep, seed)
        assert ops.eq_defect(fr.effects, two_pass_frame(rep, seed)) < 1e-13
        assert fr.normalization_defect() < 1e-13


def test_build_frame_is_exactly_covariant_on_permutation_reps(rng):
    for rep in (ops.regular_representation(P3),
                ops.spacetime_representation(P5),
                ops.lorentz_representation(P5)):
        fr = smeared(rep, rng)
        assert fr.covariance_defect(rep.params.group_elements()) == 0.0


def test_smeared_regular_frame_builds_no_dense_matrix(monkeypatch):
    # N = 7: 147 effects of 147 x 147; the build dresses one seed and makes
    # no effect array
    params = ModelParams(7, 2)
    rng = np.random.Generator(np.random.Philox(key=[7, 0]))

    def dense(rep, g):
        raise AssertionError("dense U(g) built")

    monkeypatch.setattr(ops.UnitaryRep, "__call__", dense)
    tracemalloc.start()
    try:
        fr = scenarios.FRAME_BUILDERS["smeared-regular"](params, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "effects" not in vars(fr)
    assert peak < 16 * fr.seed.nbytes < fr.effects.nbytes / 8


# ---------------------------------------------------------------------------
# seed-held frames on the regular representation against the effect array

def _witness_rep(params: ModelParams) -> ops.UnitaryRep:
    return ops.tensor_product_rep(ops.spacetime_representation(params),
                                  ops.lorentz_representation(params))


REGULAR_REPS = {
    "regular-N3": lambda: ops.regular_representation(P3),
    "regular-N5": lambda: ops.regular_representation(P5),
    "regular-N7": lambda: ops.regular_representation(ModelParams(7, 2)),
    "witness-N3": lambda: _witness_rep(P3),
}


@pytest.mark.parametrize("name", REGULAR_REPS)
def test_seed_held_frames_match_the_effect_array(name, rng):
    rep = REGULAR_REPS[name]()
    d = rep.dim
    assert rep.regular_index is not None
    raw = np.eye(d, dtype=complex) / d + 0.5 * ops.random_psd(rng, d) / d
    K = rep.orbit(raw).sum(axis=0)
    assert ops.eq_defect(frames._orbit_sum(rep, raw), K) < 1e-14 * np.abs(K).max()

    fr = frames.build_frame(rep, raw)
    assert "effects" not in vars(fr) and fr.convolution_kernel is not None
    dense = rep.orbit(fr.seed)
    assert np.array_equal(fr.effects, dense)
    flat = dense.reshape(len(dense), -1)
    for X in (ops.random_state(rng, d), ops.random_operator(rng, d)):
        # the dense reference: Tr[X E(f)] as one GEMV with the effect array
        weights = frames.born_measure_trace_class(fr, X).weights
        assert ops.eq_defect(weights, flat @ X.T.reshape(-1)) < 1e-14 * np.abs(X).max()

    # a phased system: the boost orbit of the momentum (1, 0)
    params = rep.params
    momenta = {ops.momentum_boost(b, LatticePoint(1, 0), params)
               for b in params.boosts()}
    character = ops.character_representation(params, sorted(momenta))
    system = fields.SystemModel(params, character,
                                ops.random_operator(rng, character.dim))
    oriented = fields.oriented_fields(system)
    dS = system.dim
    reference = np.einsum("fab,fkl->akbl", oriented, dense).reshape(dS * d, dS * d)
    lifted = fields.relativize(fields.RelationalField(system, fr))
    assert ops.eq_defect(lifted, reference) < 1e-14


@pytest.mark.parametrize("N", [3, 5, 7])
@pytest.mark.parametrize("name", ["smeared-spacetime", "fiber-uniform-spacetime"])
def test_spacetime_frames_read_their_fiber_seeds(name, N, rng):
    # translations act freely and transitively on l2(M): the orbit sum and
    # the Born weights are read from the |C| boosted seeds, and no effect
    # array is built
    params = ModelParams(N, 2)
    fr = scenarios.FRAME_BUILDERS[name](params, rng)
    rep, d = fr.rep, fr.dim
    assert rep.translation_index is not None and fr.convolution_kernel is None
    raw = ops.random_psd(rng, d)
    K = rep.orbit(raw).sum(axis=0)
    assert ops.eq_defect(frames._orbit_sum(rep, raw), K) <= 1e-14 * np.abs(K).max()
    flat = rep.orbit(fr.seed).reshape(len(params.frame_points()), -1)
    for X in (ops.random_state(rng, d), ops.random_operator(rng, d)):
        reference = flat @ X.T.reshape(-1)
        weights = frames.born_measure_trace_class(fr, X).weights
        assert ops.eq_defect(weights, reference) <= 1e-14 * np.abs(reference).max()
    assert fr.normalization_defect() < 1e-13
    assert "effects" not in vars(fr)


def test_translation_index_detects_only_free_transitive_translations():
    assert ops.spacetime_representation(P5).translation_index is not None
    for rep in (ops.regular_representation(P5), ops.lorentz_representation(P5),
                ops.direct_sum_rep([ops.spacetime_representation(P3)] * 2),
                ops.character_representation(P3, P3.lattice_points())):
        assert rep.translation_index is None


@pytest.mark.parametrize("rep", [
    ops.lorentz_representation(P3), ops.spacetime_representation(P3),
    # |G| basis vectors, but two orbits
    ops.direct_sum_rep([ops.spacetime_representation(P3)] * 2),
    # the regular representation in the momentum basis: phased
    ops.tensor_product_rep(
        ops.character_representation(P3, P3.lattice_points()),
        ops.lorentz_representation(P3)),
], ids=["lorentz", "spacetime", "two-orbits", "phased"])
def test_other_representations_take_the_dense_path(rep, rng):
    assert rep.regular_index is None
    fr = smeared(rep, rng)
    assert fr.convolution_kernel is None
    assert fr.normalization_defect() < 1e-12


def test_build_frame_rejects_degenerate_seed():
    rep = ops.lorentz_representation(P3)
    with pytest.raises(frames.DegenerateSeedError):
        frames.build_frame(rep, np.zeros((rep.dim, rep.dim), dtype=complex))


def test_oversized_frames_are_refused_before_allocation(rng):
    # the regular representation at N = 11 would need 1210^3 complex
    # entries: its frames are held by their seeds, and the first read of
    # the effect array is refused before anything of that size is allocated
    params = ModelParams(11, 2)
    rep = ops.regular_representation(params)
    seed = np.eye(rep.dim, dtype=complex) + ops.random_psd(rng, rep.dim) / rep.dim
    for fr in (frames.sharp_regular_frame(params), frames.build_frame(rep, seed)):
        tracemalloc.start()
        try:
            with pytest.raises(ops.SizeError, match="26.4 GiB"):
                fr.effects
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_sharp_regular_frame_is_rank_one_orthogonal():
    fr = frames.sharp_regular_frame(P3)
    for E in fr.effects:
        assert abs(np.trace(E) - 1.0) < 1e-12
        assert ops.eq_defect(E @ E, E) < 1e-12


def test_sharp_regular_frame_basis_state_is_a_delta():
    fr = frames.sharp_regular_frame(P3)
    points = P3.frame_points()
    for i, f in enumerate(points):
        omega = np.zeros((fr.dim, fr.dim), dtype=complex)
        omega[i, i] = 1.0
        mu = frames.born_measure(frames.OrientedFrame(fr, omega))
        assert np.array_equal(mu.weights, np.eye(len(points))[i])
        support = frames.disintegrate(mu).support
        assert np.flatnonzero(support).tolist() == [P3.site_index(f.x)]


def test_swapped_effects_break_covariance():
    # rows 0 and 3 of the table, the identity and ((0, 1), s), are not
    # generators: swapping them swaps those two effects and keeps the rows
    # that covariance_defect conjugates by
    fr = frames.sharp_regular_frame(P3)
    assert {P3.frame_index(g) for g in P3.generators()}.isdisjoint({0, 3})
    table = fr.rep.table.copy()
    table[[0, 3]] = table[[3, 0]]
    swapped = frames.FrameObservable(ops.UnitaryRep(P3, table), fr.seed)
    assert fr.covariance_defect() < 1e-12
    assert swapped.normalization_defect() < 1e-12
    assert np.array_equal(swapped.effects[[3, 0]], fr.effects[[0, 3]])
    assert swapped.covariance_defect() > 0.1


def test_born_measure_probability(rng):
    fr = smeared(ops.regular_representation(P3), rng)
    omega = ops.random_state(rng, fr.dim)
    mu = frames.born_measure(frames.OrientedFrame(fr, omega))
    assert mu.weights.shape == (len(fr.params.frame_points()),)
    assert mu.weights.dtype == np.float64
    assert mu.weights.min() >= -1e-9
    assert abs(mu.weights.sum() - 1.0) < 1e-12


def test_born_measure_rejects_non_hermitian_state(rng):
    fr = smeared(ops.regular_representation(P3), rng)
    with pytest.raises(ops.HermiticityError):
        frames.born_measure(frames.OrientedFrame(
            fr, ops.random_operator(rng, fr.dim)))
    mu = frames.born_measure(frames.OrientedFrame(
        fr, ops.random_hermitian(rng, fr.dim)))
    assert np.isrealobj(mu.weights)


def test_marginals_sum_to_one(rng):
    fr = smeared(ops.regular_representation(P3), rng)
    omega = ops.random_state(rng, fr.dim)
    st = frames.OrientedFrame(fr, omega).disintegration.marginal
    assert abs(st.sum() - 1.0) < 1e-12
    assert st.shape == (len(P3.lattice_points()),)


def test_disintegration_reconstructs_pmf(rng):
    fr = smeared(ops.regular_representation(P3), rng)
    omega = ops.random_state(rng, fr.dim)
    mu = frames.born_measure(frames.OrientedFrame(fr, omega))
    dis = frames.disintegrate(mu)
    assert dis.support.all()
    for site, x in enumerate(P3.lattice_points()):
        assert abs(dis.conditional[site].sum() - 1.0) < 1e-10
        for c, lam in zip(dis.conditional[site], P3.boosts()):
            rebuilt = dis.marginal[site] * c
            expected = mu.weights[P3.frame_index(FramePoint(x, lam))]
            assert abs(rebuilt - expected) < 1e-12


def _site_projector(n: int, i: int) -> np.ndarray:
    E = np.zeros((n, n), dtype=complex)
    E[i, i] = 1.0
    return E


def product_frame(params: ModelParams, fiber_seed: np.ndarray):
    """E(x, lam) = |x><x| (x) G(lam): the orbit of |0><0| (x) fiber_seed on
    the tensor-product representation, whose orbit sum is the identity
    when fiber_seed's boost orbit sums to the identity."""
    rep = ops.tensor_product_rep(ops.spacetime_representation(params),
                                 ops.lorentz_representation(params))
    return frames.build_frame(
        rep, ops.tensor(_site_projector(params.N ** 2, 0), fiber_seed))


def test_product_frame_axioms():
    mixed = np.eye(2, dtype=complex) / 2
    fr = product_frame(P3, mixed)
    assert fr.dim == 18
    assert fr.normalization_defect() < 1e-12
    assert fr.covariance_defect() < 1e-12
    for i, f in enumerate(P3.frame_points()):
        assert np.array_equal(fr.effects[i], ops.tensor(
            _site_projector(9, P3.site_index(f.x)), mixed))


# ---------------------------------------------------------------------------
# a frame is its representation and its seed


def _defined_effects(name: str, fr: frames.FrameObservable) -> np.ndarray:
    """A builder's effect array by its definition, point by point."""
    params, d = fr.params, fr.dim
    points = params.frame_points()
    if name.startswith("uniform"):
        return np.broadcast_to(np.eye(d, dtype=complex) / len(points),
                               (len(points), d, d))
    basis = np.eye(d, dtype=complex)
    if name == "sharp-regular":  # U(g_f) e_0 = e_f
        return np.stack([np.outer(e, e) for e in basis])
    if name == "fiber-uniform-spacetime":
        n_boosts = len(params.boosts())
        return np.stack([np.outer(e, e) / n_boosts
                         for e in basis[[params.site_index(f.x) for f in points]]])
    # a dressed seed, moved by dense permutation matrices
    return np.stack([fr.rep(g) @ fr.seed @ ops.dagger(fr.rep(g))
                     for g in params.group_elements()])


@pytest.mark.parametrize("N", [3, 5])
@pytest.mark.parametrize("name", scenarios.FRAME_BUILDERS)
def test_builder_effects_equal_their_definition(name, N, rng):
    fr = scenarios.FRAME_BUILDERS[name](ModelParams(N, 2), rng)
    assert fr.effects.tobytes() == _defined_effects(name, fr).tobytes()


def fixed_free_representation(params):
    """The regular representation less its p = 0 sector, in the momentum
    basis: the nonzero momenta tensored with the Lorentz representation, a
    phased representation with no translation-fixed vector."""
    return ops.tensor_product_rep(
        ops.character_representation(params, params.lattice_points()[1:]),
        ops.lorentz_representation(params))


def _marginal_cases(params: ModelParams, rng):
    for name, build in scenarios.FRAME_BUILDERS.items():
        yield name, build(params, rng)
    n_boosts = len(params.boosts())
    yield "witness", product_frame(params, np.eye(n_boosts, dtype=complex) / n_boosts)
    # the fixed-free sector of vacuum-orthogonality: a phased representation
    yield "phased-uniform", frames.uniform_frame(fixed_free_representation(params))


@pytest.mark.parametrize("N", [3, 5])
def test_spacetime_marginal_effect_is_the_fiber_sum(N, rng):
    params = ModelParams(N, 2)
    for name, fr in _marginal_cases(params, rng):
        fibers = fr.effects.reshape(N * N, -1, fr.dim, fr.dim)
        marginals = fr.spacetime_marginal_effects(params.lattice_points())
        for i, x in enumerate(params.lattice_points()):
            assert ops.eq_defect(marginals[i],
                                 fibers[i].sum(axis=0)) <= 1e-15, (name, x)


def test_reading_effects_peaks_at_about_the_array():
    # the gather index is built a block at a time, so reading the orbit
    # costs little beyond the array itself
    fr = frames.fiber_uniform_spacetime_frame(ModelParams(7, 2))
    tracemalloc.start()
    try:
        effects = fr.effects
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert effects.shape == (147, 49, 49)
    assert peak < 1.2 * effects.nbytes


def fixed_batch_tensor_sum(frame, stack):
    """The reference tensor sum: on a regular representation the
    convolution formula over fixed batches of 64 frame rows, on any other
    one contraction with the effect array."""
    n, m, d = len(stack), stack.shape[1], frame.dim
    flat = stack.reshape(n, -1)
    B = frame.convolution_kernel
    if B is None:
        total = flat.T @ frame.effects.reshape(n, -1)
        return total.reshape(m, m, d, d).transpose(0, 2, 1, 3).reshape(m * d, m * d)
    index = frame.rep.regular_index
    blocks = np.empty((m, d, m, d), dtype=complex)
    for start in range(0, d, 64):
        k = slice(start, start + 64)
        Z = flat[index.right_quotient[k]].transpose(0, 2, 1) @ B
        Y = np.take_along_axis(Z, index.left_quotient[k, None, :], axis=2)
        blocks[:, k] = Y.reshape(-1, m, m, d).transpose(1, 0, 2, 3)
    return blocks.reshape(m * d, m * d)


@pytest.mark.parametrize("rows", [None, 3])
@pytest.mark.parametrize("rep", [
    ops.regular_representation(P5), ops.regular_representation(ModelParams(7, 2)),
    ops.lorentz_representation(P5)], ids=["regular-N5", "regular-N7", "lorentz-N5"])
def test_tensor_sum_does_not_depend_on_its_row_batches(rep, rows, rng,
                                                       monkeypatch):
    # each frame row's block is one GEMM of its own, so batches of the
    # budget's size (20 rows at N = 5, 24 at N = 7) or of 3 rows give the
    # 64-row sum to the bit
    fr = smeared(rep, rng)
    m = 4 if rep.params.N == 5 else 3
    stack = np.array([ops.random_operator(rng, m)
                      for _ in fr.params.frame_points()])
    if rows is not None:
        monkeypatch.setattr(ops, "WORK_BLOCK_BYTES", 16 * rows * stack.size)
    assert np.array_equal(fr.tensor_sum(stack), fixed_batch_tensor_sum(fr, stack))


@pytest.mark.parametrize("N", [3, 5])
@pytest.mark.parametrize("name", ["smeared-regular", "uniform-regular",
                                  "sharp-regular"])
def test_diagonal_invariance_is_read_from_the_kernel_product(name, N, rng):
    # a phased system, the boost orbit of the momentum (1, 0): the defect
    # of the kernel layout against the relativization Y it never forms
    params = ModelParams(N, 2)
    momenta = {ops.momentum_boost(b, LatticePoint(1, 0), params)
               for b in params.boosts()}
    character = ops.character_representation(params, sorted(momenta))
    assert character.phases is not None
    system = fields.SystemModel(params, character,
                                ops.random_operator(rng, character.dim))
    fr = scenarios.FRAME_BUILDERS[name](params, rng)
    assert fr.convolution_kernel is not None
    rf = fields.RelationalField(system, fr)
    lifted = fields.relativize(rf)
    diagonal = ops.tensor_product_rep(system.rep, fr.rep)
    for g in params.generators():
        expected = ops.eq_defect(diagonal.conjugate(g, lifted), lifted)
        assert abs(fields.relativization_invariance_defect(rf, [g])
                   - expected) <= 1e-15


def test_diagonal_invariance_does_not_depend_on_its_batches(rng, monkeypatch):
    # at N = 5 the budget takes 27 of the 75 columns and rows at a time; a
    # budget below one row takes single rows and the floor of 10 columns
    params = P5
    momenta = [LatticePoint(1, 0), LatticePoint(2, 0),
               LatticePoint(4, 0), LatticePoint(3, 0)]
    system = fields.SystemModel(
        params, ops.character_representation(params, momenta),
        ops.random_operator(rng, len(momenta)))
    rf = fields.RelationalField(
        system, smeared(ops.regular_representation(params), rng))
    budget = fields.relativization_invariance_defect(rf, params.generators())
    monkeypatch.setattr(ops, "WORK_BLOCK_BYTES", 1)
    floor = fields.relativization_invariance_defect(rf, params.generators())
    assert 0 < budget and abs(floor - budget) <= 1e-15


# ---------------------------------------------------------------------------
# index order: every array result against a loop over frame_points()

def _oracle_case(name: str, params: ModelParams, rng):
    """The effect array, a random state and its Born measure: a frame's,
    or for "channel-composed" the composed POVM's, weighted as the
    vacuum-polarization check weighs it."""
    if name == "channel-composed":
        fr = smeared(ops.lorentz_representation(params), rng, 0.8)
        psi = frames.random_mixed_unitary_channel(rng, fr.dim)
        effects = frames.channel_compose(psi, fr)
        omega = ops.random_state(rng, fr.dim)
        weights = (effects.reshape(len(effects), -1) @ omega.T.reshape(-1)).real
        return effects, omega, frames.BornMeasure(weights, params)
    if name == "product":
        fr = product_frame(params, _site_projector(len(params.boosts()), 0))
    else:
        fr = scenarios.FRAME_BUILDERS[name](params, rng)
    omega = ops.random_state(rng, fr.dim)
    return fr.effects, omega, frames.born_measure(frames.OrientedFrame(fr, omega))


@pytest.mark.parametrize("N", [3, 5])
@pytest.mark.parametrize(
    "name", [*scenarios.FRAME_BUILDERS, "product", "channel-composed"])
def test_array_results_match_a_pointwise_reference(name, N, rng):
    params = ModelParams(N, 2)
    effects, omega, mu = _oracle_case(name, params, rng)

    reference = {f: np.trace(omega @ E).real
                 for f, E in zip(params.frame_points(), effects)}
    spacetime = {x: sum(w for f, w in reference.items() if f.x == x)
                 for x in params.lattice_points()}

    for f, w in reference.items():
        assert abs(mu.weights[params.frame_index(f)] - w) < 1e-12
    dis = frames.disintegrate(mu)
    for i, x in enumerate(params.lattice_points()):
        assert abs(dis.marginal[i] - spacetime[x]) < 1e-12
        assert dis.support[i] == (spacetime[x] > 1e-12)
        for j, lam in enumerate(params.boosts()):
            expected = (reference[FramePoint(x, lam)] / spacetime[x]
                        if dis.support[i] else 0.0)
            assert abs(dis.conditional[i, j] - expected) < 1e-10


def test_channel_kraus_and_predual(rng):
    d = 4
    psi = frames.random_mixed_unitary_channel(rng, d)
    assert psi.kraus.shape == (3, d, d)
    assert psi.unitality_defect() < 1e-12
    rho = ops.random_state(rng, d)
    A = ops.random_operator(rng, d)
    lhs = np.trace(rho @ psi.apply(A))
    rhs = np.trace(psi.predual_apply(rho) @ A)
    assert abs(lhs - rhs) < 1e-12
    # a stack maps operator by operator
    stack = np.array([A, ops.dagger(A) @ A])
    assert ops.eq_defect(psi.apply(stack)[1], psi.apply(stack[1])) < 1e-14


def test_channel_compose_requires_unital():
    fr = frames.uniform_frame(ops.lorentz_representation(P3))
    d = fr.dim
    halve = frames.Channel([np.eye(d) / np.sqrt(2)])
    with pytest.raises(frames.ChannelValidationError):
        frames.channel_compose(halve, fr)


def test_channel_compose_preserves_normalization(rng):
    fr = frames.uniform_frame(ops.lorentz_representation(P3))
    psi = frames.random_mixed_unitary_channel(rng, fr.dim)
    composed = frames.channel_compose(psi, fr)
    assert composed.shape == fr.effects.shape
    assert ops.eq_defect(composed.sum(axis=0), np.eye(fr.dim)) < 1e-10


def test_orthogonality_scan_exact_weights():
    rows = frames.vacuum_weight_scan()
    assert [N for N, _ in rows] == [3, 5, 7, 9]
    for N, weight in rows:
        assert abs(weight - 1.0 / (N * N)) < 1e-15


def test_strict_orthogonality_sharp_frame_oracle():
    # each marginal effect of the sharp frame meets the two translation-fixed
    # vectors with operator norm exactly 1/N
    report = frames.strict_vacuum_orthogonality_check(
        frames.sharp_regular_frame(P3))
    assert report.fixed_space_dim == 2
    assert abs(report.residual - 1.0 / 3.0) < 1e-12


def test_strict_orthogonality_thin_norm_equals_the_projector_norm():
    # |F_R(x) V| = |F_R(x) V V^dag| for an orthonormal fixed-space basis V
    fr = frames.uniform_frame(ops.regular_representation(P3))
    report = frames.strict_vacuum_orthogonality_check(fr)
    fixed = ops.translation_fixed_point_projector(fr.rep)
    vals, vecs = np.linalg.eigh(fixed)
    V = vecs[:, vals > 0.5]
    projector_norm = max(
        ops.op_norm(F @ V @ ops.dagger(V))
        for F in fr.spacetime_marginal_effects(P3.lattice_points()))
    assert report.fixed_space_dim == V.shape[1] >= 1
    assert abs(report.residual - projector_norm) < 1e-14


def test_strict_orthogonality_on_fixed_free_subspace():
    regular = ops.regular_representation(P3)
    reduced = fixed_free_representation(P3)
    fixed_rank = round(np.trace(ops.translation_fixed_point_projector(regular)).real)
    assert reduced.dim == regular.dim - fixed_rank == 16
    report = frames.strict_vacuum_orthogonality_check(
        frames.uniform_frame(reduced))
    assert report.fixed_space_dim == 0
    assert report.residual == 0.0


def test_a_fixed_free_frame_takes_no_eigendecomposition(monkeypatch):
    # the rank of the fixed space is the trace of its projector, and rank 0
    # decides the residual before any eigh or marginal effect
    def refused(*args, **kwargs):
        raise AssertionError("not needed on a fixed-free representation")

    monkeypatch.setattr(np.linalg, "eigh", refused)
    monkeypatch.setattr(frames.FrameObservable, "spacetime_marginal_effects",
                        refused)
    report = frames.strict_vacuum_orthogonality_check(
        frames.uniform_frame(fixed_free_representation(P3)))
    assert (report.residual, report.fixed_space_dim) == (0.0, 0)


def all_site_residual(frame):
    """The strict residual by its definition: the largest |F_R(x) V| over
    every site x, with V an orthonormal basis of the fixed space."""
    vals, vecs = np.linalg.eigh(ops.translation_fixed_point_projector(frame.rep))
    V = vecs[:, vals > 0.5]
    return max(ops.op_norm(F @ V) for F in
               frame.spacetime_marginal_effects(frame.params.lattice_points()))


@pytest.mark.parametrize("N", [3, 5])
def test_strict_residual_at_the_origin_is_the_all_site_maximum(N, rng):
    # U(x)^dag V = V makes |F_R(x) V| the same at every site
    params = ModelParams(N, 2)
    regular = ops.regular_representation(params)
    cases = {"sharp": frames.sharp_regular_frame(params),
             "uniform": frames.uniform_frame(regular),
             "smeared": smeared(regular, rng, 0.35),
             "phased-fixed-free": frames.uniform_frame(
                 fixed_free_representation(params))}
    for name, fr in cases.items():
        report = frames.strict_vacuum_orthogonality_check(fr)
        assert (report.fixed_space_dim == 0) == (name == "phased-fixed-free")
        assert abs(report.residual - all_site_residual(fr)) <= 1e-14, name
