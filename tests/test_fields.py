import tracemalloc

import numpy as np
import pytest

from relqft import fields, frames, lattice, net, scenarios
from relqft import operators as ops
from relqft.lattice import FramePoint, GroupElement, LatticePoint, ModelParams
from relqft.tolerances import TOL_SUPP

P3 = ModelParams(3, 2)


def smeared(rep, rng, strength=0.4):
    d = rep.dim
    seed = np.eye(d, dtype=complex) / d + strength * ops.random_psd(rng, d) / d
    return frames.build_frame(rep, seed)


def character_system(rng, params=P3):
    rep = ops.character_representation(
        params, [LatticePoint(1, 0), LatticePoint(2, 0)])
    return fields.SystemModel(params, rep, ops.random_operator(rng, rep.dim))


def test_system_model_validates_shape(rng):
    rep = ops.lorentz_representation(P3)
    with pytest.raises(ops.SizeError):
        fields.SystemModel(P3, rep, np.eye(3, dtype=complex))


def test_oriented_field_at_base_point(rng):
    system = character_system(rng)
    base = FramePoint(LatticePoint(0, 0), 1)
    assert ops.eq_defect(fields.oriented_field(system, base), system.phi) < 1e-15


def test_oriented_field_conjugates(rng):
    system = character_system(rng)
    f = FramePoint(LatticePoint(1, 2), 2)
    U = system.rep(lattice.frame_to_group(f))
    expected = U @ system.phi @ ops.dagger(U)
    assert ops.eq_defect(fields.oriented_field(system, f), expected) < 1e-12


def test_relational_observable_is_restricted_relativization(rng):
    system = character_system(rng)
    fr = smeared(ops.lorentz_representation(P3), rng)
    rf = fields.RelationalField(system, fr)
    omega = ops.random_state(rng, fr.dim)
    lifted = fields.relativize(rf)
    direct = fields.relational_local_observable(rf, omega)
    via_restrict = fields.restrict(lifted, omega, system.dim, fr.dim)
    assert ops.eq_defect(direct, via_restrict) < 1e-12


def lifted_restrict(O, omega, dimS, dimR):
    """The reference: the lifted state 1 (x) w times O, then the partial
    trace over the frame factor."""
    W = np.kron(np.eye(dimS), omega)
    return np.einsum("arbr->ab", (W @ O).reshape(dimS, dimR, dimS, dimR))


@pytest.mark.parametrize("dimS, dimR", [(1, 5), (3, 4), (4, 6)])
def test_restrict_equals_the_lifted_partial_trace(rng, dimS, dimR):
    O = ops.random_operator(rng, dimS * dimR)
    omega = ops.random_state(rng, dimR)
    assert ops.eq_defect(fields.restrict(O, omega, dimS, dimR),
                         lifted_restrict(O, omega, dimS, dimR)) < 1e-14


def test_restrict_duality(rng):
    dimS, dimR = 3, 4
    O = ops.random_operator(rng, dimS * dimR)
    rho = ops.random_state(rng, dimS)
    omega = ops.random_state(rng, dimR)
    lhs = np.trace(rho @ fields.restrict(O, omega, dimS, dimR))
    rhs = np.trace(ops.tensor(rho, omega) @ O)
    assert abs(lhs - rhs) < 1e-12


def test_restrict_product_rule(rng):
    A = ops.random_operator(rng, 3)
    B = ops.random_operator(rng, 4)
    omega = ops.random_state(rng, 4)
    out = fields.restrict(ops.tensor(A, B), omega, 3, 4)
    assert ops.eq_defect(out, np.trace(omega @ B) * A) < 1e-13


def test_uniform_frame_observable_is_group_average(rng):
    system = character_system(rng)
    fr = frames.uniform_frame(ops.lorentz_representation(P3))
    rf = fields.RelationalField(system, fr)
    omega = ops.random_state(rng, fr.dim)
    observable = fields.relational_local_observable(rf, omega)
    averaged = sum(system.rep(g) @ system.phi @ ops.dagger(system.rep(g))
                   for g in P3.group_elements()) / len(P3.group_elements())
    assert ops.eq_defect(observable, averaged) < 1e-12


def test_field_reconstruction_sums_to_observable(rng):
    system = character_system(rng)
    fr = smeared(ops.regular_representation(P3), rng)
    rf = fields.RelationalField(system, fr)
    omega = ops.random_state(rng, fr.dim)
    marginal = frames.OrientedFrame(fr, omega).disintegration.marginal
    rebuilt = sum(w * fields.relational_local_field(rf, omega, x)
                  for x, w in zip(P3.lattice_points(), marginal))
    observable = fields.relational_local_observable(rf, omega)
    assert ops.eq_defect(rebuilt, observable) < 1e-12


def test_preparations_of_another_frame_are_refused(rng):
    params = ModelParams(3, 2)
    rep = ops.regular_representation(params)
    fr, other = frames.uniform_frame(rep), frames.uniform_frame(rep)
    rf = fields.RelationalField(
        fields.SystemModel(params, rep, ops.random_operator(rng, rep.dim)), fr)
    omega = ops.random_state(rng, fr.dim)
    assert ops.eq_defect(
        fields.relational_local_observable(rf, frames.OrientedFrame(fr, omega)),
        fields.relational_local_observable(rf, omega)) == 0.0
    with pytest.raises(ValueError, match="another frame"):
        fields.relational_local_observable(rf, frames.OrientedFrame(other, omega))


def test_extend_trace_class_is_linear(rng):
    system = character_system(rng)
    fr = smeared(ops.lorentz_representation(P3), rng)
    rf = fields.RelationalField(system, fr)
    T1 = ops.random_operator(rng, fr.dim)
    T2 = ops.random_operator(rng, fr.dim)
    lhs = fields.extend_trace_class(rf, 2.0 * T1 - 1.5j * T2)
    rhs = (2.0 * fields.extend_trace_class(rf, T1)
           - 1.5j * fields.extend_trace_class(rf, T2))
    assert ops.eq_defect(lhs, rhs) < 1e-12


def test_base_point_independence(rng):
    # moving the orientation base along g0 multiplies every transporter on
    # the right; the relational observable is unchanged provided the
    # generator is co-rotated by the same element
    system = character_system(rng)
    fr = smeared(ops.regular_representation(P3), rng)
    omega = ops.random_state(rng, fr.dim)
    g0 = GroupElement(LatticePoint(1, 2), 2)
    U0 = system.rep(g0)
    moved_phi = U0 @ system.phi @ ops.dagger(U0)
    # the moved frame's effect at g is U(g) U(g0) D U(g0)^dag U(g)^dag,
    # the old effect at g g0
    moved_frame = frames.FrameObservable(fr.rep, fr.rep.conjugate(g0, fr.seed))
    lhs = fields.relational_local_observable(
        fields.RelationalField(system, fr), omega)
    rhs = fields.relational_local_observable(
        fields.RelationalField(system.with_phi(moved_phi), moved_frame), omega)
    assert ops.eq_defect(lhs, rhs) < 1e-12


def test_relativization_channel_laws(rng):
    system = character_system(rng)
    fr = smeared(ops.lorentz_representation(P3), rng)
    channel = fields.relativization_channel(
        fields.RelationalField(system, fr), ops.random_state(rng, fr.dim))
    d = system.dim
    eye = np.eye(d, dtype=complex)
    assert ops.eq_defect(channel(eye), eye) < 1e-12
    phi = ops.random_operator(rng, d)
    assert ops.eq_defect(channel(ops.dagger(phi)),
                         ops.dagger(channel(phi))) < 1e-12
    assert ops.op_norm(channel(phi)) <= ops.op_norm(phi) + 1e-12
    assert ops.psd_gap(channel(ops.random_psd(rng, d))) > -1e-10
    # the Kadison-Schwarz order that holds for every unital positive map
    gap = ops.psd_gap(channel(ops.dagger(phi) @ phi)
                      - ops.dagger(channel(phi)) @ channel(phi))
    assert gap > -1e-10


def test_mixed_order_two_positivity_fails_on_sharp_frames():
    # with a sharp frame and a delta preparation the channel is a unitary
    # conjugation, where the order-reversed two-positivity difference has
    # an eigenvalue of exactly -1 for a nilpotent generator
    fr = frames.sharp_regular_frame(P3)
    rep = ops.spacetime_representation(P3)
    system = fields.SystemModel(P3, rep, np.zeros((9, 9), dtype=complex))
    delta = np.zeros((fr.dim, fr.dim), dtype=complex)
    delta[0, 0] = 1.0
    channel = fields.relativization_channel(
        fields.RelationalField(system, fr), delta)
    phi = np.zeros((9, 9), dtype=complex)
    phi[0, 1] = 1.0
    mixed_gap = ops.psd_gap(channel(ops.dagger(phi) @ phi)
                            - channel(phi) @ ops.dagger(channel(phi)))
    valid_gap = ops.psd_gap(channel(ops.dagger(phi) @ phi)
                            - ops.dagger(channel(phi)) @ channel(phi))
    assert abs(mixed_gap + 1.0) < 1e-12
    assert valid_gap > -1e-12


def test_predual_polarization_duality(rng):
    system = character_system(rng)
    fr = smeared(ops.lorentz_representation(P3), rng)
    rf = fields.RelationalField(system, fr)
    omega = ops.random_state(rng, fr.dim)
    rho = ops.random_state(rng, system.dim)
    polarized = fields.predual_polarization(rf, omega, rho)
    for _ in range(5):
        phi = ops.random_operator(rng, system.dim)
        test_rf = fields.RelationalField(system.with_phi(phi), fr)
        lhs = np.trace(rho @ fields.relational_local_observable(test_rf, omega))
        rhs = np.trace(polarized @ phi)
        assert abs(lhs - rhs) < 1e-12


def test_predual_polarization_fixes_invariant_states(rng):
    system = character_system(rng)
    fr = smeared(ops.regular_representation(P3), rng)
    rf = fields.RelationalField(system, fr)
    omega = ops.random_state(rng, fr.dim)
    invariant = np.eye(system.dim, dtype=complex) / system.dim
    out = fields.predual_polarization(rf, omega, invariant)
    assert ops.eq_defect(out, invariant) < 1e-14


def test_globally_oriented_certificate(rng):
    fr = frames.fiber_uniform_spacetime_frame(P3)
    omega = ops.random_state(rng, fr.dim)
    assert fields.certify_globally_oriented(frames.disintegrate(
        frames.born_measure(frames.OrientedFrame(fr, omega))))
    # a generic smeared frame couples position and boost conditionals
    coupled = smeared(ops.regular_representation(P3), rng, strength=0.8)
    weights = frames.disintegrate(frames.born_measure(
        frames.OrientedFrame(coupled, ops.random_state(rng, coupled.dim))))
    assert weights.conditional.shape == (9, 2)
    assert weights.support.all()


def per_point_sum(system, weights, A, adjoint=False):
    """sum_f weights[f] U A U^dag (or U^dag A U), one frame point at a time."""
    total = np.zeros((system.dim, system.dim), dtype=complex)
    for g, w in zip(system.params.group_elements(), weights):
        U = system.rep(g)
        total += w * (ops.dagger(U) @ A @ U if adjoint else U @ A @ ops.dagger(U))
    return total


@pytest.mark.parametrize("frame_rep", ["regular", "lorentz", "spacetime"])
def test_orbit_sums_match_per_point_loops(rng, frame_rep):
    system = character_system(rng)
    fr = smeared(getattr(ops, f"{frame_rep}_representation")(P3), rng)
    rf = fields.RelationalField(system, fr)
    omega = ops.random_state(rng, fr.dim)
    weights = frames.born_measure(frames.OrientedFrame(fr, omega)).weights
    points = P3.frame_points()

    lifted = sum(ops.tensor(fields.oriented_field(system, f), E)
                 for f, E in zip(points, fr.effects))
    assert ops.eq_defect(fields.relativize(rf), lifted) < 1e-14

    phi = ops.random_operator(rng, system.dim)
    channel = fields.relativization_channel(rf, omega)
    assert ops.eq_defect(channel(phi), per_point_sum(system, weights, phi)) < 1e-14

    rho = ops.random_state(rng, system.dim)
    assert ops.eq_defect(fields.predual_polarization(rf, omega, rho),
                         per_point_sum(system, weights, rho, adjoint=True)) < 1e-14

    T = ops.random_operator(rng, fr.dim)
    trace_weights = [np.trace(T @ E) for E in fr.effects]
    assert ops.eq_defect(fields.extend_trace_class(rf, T),
                         per_point_sum(system, trace_weights, system.phi)) < 1e-13


def test_relativize_refuses_oversized_products_before_allocating():
    # 49-dimensional system on a 147-dimensional frame: 7203 > MAX_DIM
    P7 = ModelParams(7, 2)
    system = fields.SystemModel(P7, ops.spacetime_representation(P7),
                                np.eye(49, dtype=complex))
    fr = frames.uniform_frame(ops.regular_representation(P7))
    tracemalloc.start()
    try:
        with pytest.raises(ops.SizeError, match="7203"):
            fields.relativize(fields.RelationalField(system, fr))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_invariance_defect_is_refused_only_where_y_is_formed(rng,
                                                             monkeypatch):
    # the regular frame measures diagonal invariance without forming Y, so
    # the tensor-product guard refuses only the Lorentz frame, which forms
    # its 4 x 4-dimensional Y
    P5 = ModelParams(5, 2)
    rep = ops.character_representation(
        P5, [LatticePoint(k, 0) for k in (1, 2, 4, 3)])
    system = fields.SystemModel(P5, rep, ops.random_operator(rng, rep.dim))
    regular = frames.uniform_frame(ops.regular_representation(P5))
    lorentz = frames.uniform_frame(ops.lorentz_representation(P5))
    defect = fields.relativization_invariance_defect(
        fields.RelationalField(system, regular), P5.generators())
    monkeypatch.setattr(ops, "MAX_DIM", 15)
    assert fields.relativization_invariance_defect(
        fields.RelationalField(system, regular), P5.generators()) == defect
    with pytest.raises(ops.SizeError, match="dimension 16 exceeds 15"):
        fields.relativization_invariance_defect(
            fields.RelationalField(system, lorentz), P5.generators())
    with pytest.raises(ops.SizeError, match="dimension 400 exceeds 15"):
        fields.relativize(fields.RelationalField(system, regular))


# ---------------------------------------------------------------------------
# unit weights read from the seed, against the effect array

#: Every builder's frame at N = 3 and 5, and the product-frame witness.
UNIT_WEIGHT_FRAMES = [*((name, N) for N in (3, 5)
                        for name in scenarios.FRAME_BUILDERS), ("witness", 3)]


def unit_weight_frame(name, N, rng):
    if name == "witness":
        return scenarios._witness_frame()[0]
    return scenarios.FRAME_BUILDERS[name](ModelParams(N, 2), rng)


def weighted_columns(effects):
    """The columns of an (|F|, k, k) stack read as (|F|, k^2) that are
    nonzero at some frame point."""
    flat = effects.reshape(len(effects), -1)
    return flat[:, flat.any(axis=0)]


@pytest.mark.parametrize("name, N", UNIT_WEIGHT_FRAMES,
                         ids=[f"{name}-{N}" for name, N in UNIT_WEIGHT_FRAMES])
def test_unit_weights_equal_the_effect_array(name, N, rng):
    fr = unit_weight_frame(name, N, rng)
    effects = fr.rep.orbit(fr.seed)  # the oracle, not the frame's cache
    weights = fr.unit_weights()
    reference = weighted_columns(effects)
    assert weights.shape == reference.shape
    assert weights.tobytes() == reference.tobytes()
    # the localized bases of the net's regions: empty, site, slice, diamond
    empty, site, cauchy, _, diamond = scenarios._net_regions(fr.params)
    for region in (empty, site, cauchy, diamond):
        V = net.states_supported_in(fr, region)
        weights = fr.unit_weights(V)
        reference = weighted_columns(ops.dagger(V) @ effects @ V)
        assert weights.shape == reference.shape
        assert np.max(np.abs(weights - reference), initial=0.0) <= 1e-15
    # only frames with no free layout read their effect array
    assert ("effects" in vars(fr)) == (fr.rep.free_index is None)
    assert (fr.rep.free_index is None) == ("lorentz" in name)


@pytest.mark.parametrize("name", [n for n in scenarios.FRAME_BUILDERS
                                  if n.startswith("smeared")])
def test_unit_weights_of_a_generic_basis(name, rng):
    # on a smeared frame every unit of a generic basis carries weight
    fr = scenarios.FRAME_BUILDERS[name](ModelParams(5, 2), rng)
    V = np.linalg.qr(ops.random_operator(rng, fr.dim))[0][:, :(fr.dim + 2) // 3]
    weights = fr.unit_weights(V)
    reference = weighted_columns(ops.dagger(V) @ fr.rep.orbit(fr.seed) @ V)
    assert weights.shape == reference.shape == (len(fr.params.frame_points()),
                                                V.shape[1] ** 2)
    assert np.max(np.abs(weights - reference)) <= 1e-15


def test_unit_weights_drop_the_rounding_residue_of_zero_weights(rng):
    # the uniform frame's effects are multiples of the identity, so of the
    # units of an isometry only the k diagonal ones carry weight; the
    # off-diagonal ones are rounding residue, whose exact zeros differ
    # between the seed path and the effect array
    fr = scenarios.FRAME_BUILDERS["uniform-regular"](ModelParams(5, 2), rng)
    effect_array = frames.FrameObservable(fr.rep, fr.seed)
    vars(effect_array)["convolution_kernel"] = None  # read the effect array
    for _ in range(3):
        V = np.linalg.qr(ops.random_operator(rng, fr.dim))[0][:, :33]
        weights = fr.unit_weights(V)
        reference = effect_array.unit_weights(V)
        assert weights.shape == reference.shape == (fr.dim, 33)
        assert np.max(np.abs(weights - reference)) <= 1e-15
        assert np.max(np.abs(weights - 1 / fr.dim)) <= 1e-15
    assert "effects" not in vars(fr) and "effects" in vars(effect_array)


@pytest.mark.parametrize("basis", [False, True], ids=["units", "basis"])
def test_unit_weights_refuse_oversized_arrays_before_allocating(basis,
                                                                monkeypatch):
    # a smeared regular frame at N = 7 puts weight on all 147^2 units, whose
    # (147, 147^2) weights are 51 MB
    P7 = ModelParams(7, 2)
    fr = scenarios.smeared_frame(ops.regular_representation(P7),
                                 ops.make_rng(5), 0.35)
    V = np.eye(fr.dim, dtype=complex) if basis else None
    assert fr.convolution_kernel.nbytes < 2**19  # kept by the frame
    monkeypatch.setattr(ops, "MAX_FRAME_BYTES", 2**20)
    tracemalloc.start()
    try:
        with pytest.raises(ops.SizeError, match="weights of 21609 matrix units"):
            fr.unit_weights(V)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert "effects" not in vars(fr)


#: One boost-closed momentum orbit per model, for the character systems.
ORBITS = {3: [(1, 0), (2, 0)], 5: [(1, 0), (2, 0), (4, 0), (3, 0)]}


def table_system(kind, params, rng):
    if kind == "character":
        rep = ops.character_representation(
            params, [LatticePoint(*p) for p in ORBITS[params.N]])
    else:
        rep = getattr(ops, f"{kind}_representation")(params)
    return fields.SystemModel(params, rep, ops.random_operator(rng, rep.dim))


def site_mixture(params, weights):
    """Diagonal state on l2(M): weights[x] on the sites x it names."""
    omega = np.zeros((params.N ** 2, params.N ** 2), dtype=complex)
    for x, w in weights.items():
        omega[params.site_index(x), params.site_index(x)] = w
    return omega


def local_fields_by_definition(system, frame, omega, tol_supp):
    """phi_w(x) = sum_lam cond(lam | x) U phi U^dag for every site x, one
    frame point at a time from its Born weight Tr[omega E(f)]."""
    params = system.params
    table = {x: np.zeros((system.dim, system.dim), dtype=complex)
             for x in params.lattice_points()}
    pmf = {f: np.sum(omega.T * E).real
           for f, E in zip(params.frame_points(), frame.effects)}
    for x in params.lattice_points():
        fiber = [f for f in params.frame_points() if f.x == x]
        marginal = sum(pmf[f] for f in fiber)
        if marginal <= tol_supp:
            continue
        for f in fiber:
            U = system.rep(lattice.frame_to_group(f))
            table[x] += pmf[f] / marginal * (U @ system.phi @ ops.dagger(U))
    return table


@pytest.mark.parametrize("N", [3, 5])
@pytest.mark.parametrize("kind", ["regular", "spacetime", "lorentz", "character"])
def test_site_table_matches_the_definition(rng, kind, N):
    params = ModelParams(N, 2)
    system = table_system(kind, params, rng)
    oriented = fields.oriented_fields(system)
    assert oriented.shape == (len(params.frame_points()), system.dim, system.dim)
    for f, phi_f in zip(params.frame_points(), oriented):
        assert ops.eq_defect(phi_f, fields.oriented_field(system, f)) < 1e-13

    sharp = frames.fiber_uniform_spacetime_frame(params)
    smeared_frame = smeared(ops.spacetime_representation(params), rng)
    # three sites carry weight; tol_supp = 0.25 cuts the lightest one
    mixture = site_mixture(params, {(0, 0): 0.5, (1, 2): 0.3, (2, 1): 0.2})
    cases = [(sharp, mixture, 0.25, 2), (sharp, mixture, TOL_SUPP, 3),
             (smeared_frame, ops.random_state(rng, N * N), TOL_SUPP, N * N)]
    for fr, omega, tol_supp, n_supported in cases:
        rf = fields.RelationalField(system, fr)
        of = frames.OrientedFrame(fr, omega, tol_supp)
        table = fields.relational_local_fields(rf, of)
        dis = of.disintegration
        assert table.shape == (N * N, system.dim, system.dim)
        assert dis.support.sum() == n_supported
        expected = local_fields_by_definition(system, fr, omega, tol_supp)
        for x in params.lattice_points():
            row = table[params.site_index(x)]
            assert ops.eq_defect(row, expected[x]) < 1e-13
            assert ops.eq_defect(
                fields.relational_local_field(rf, of, x), row) == 0.0
            if not dis.support[params.site_index(x)]:
                assert not row.any()


@pytest.mark.parametrize("N", [3, 5])
def test_site_table_gathers_only_the_supported_frame_points(rng, N, monkeypatch):
    # a one-site preparation gathers the |C| oriented fields of its site,
    # not all |G|, and every table is the contraction of the whole oriented
    # stack to the bit
    params = ModelParams(N, 2)
    system = table_system("character", params, rng)
    fr = frames.fiber_uniform_spacetime_frame(params)
    rf = fields.RelationalField(system, fr)
    cases = [(site_mixture(params, {(1, 2): 1.0}), len(params.boosts())),
             (np.eye(N * N, dtype=complex) / N ** 2, len(params.frame_points()))]
    orbit = ops.UnitaryRep.orbit
    gathered = []

    def counting(rep, A, *rows):
        stack = orbit(rep, A, *rows)
        if rep is system.rep:
            gathered.append(len(stack))
        return stack

    monkeypatch.setattr(ops.UnitaryRep, "orbit", counting)
    by_site = fields.oriented_fields(system).reshape(N * N, -1, system.dim ** 2)
    for omega, n_rows in cases:
        of = frames.OrientedFrame(fr, omega)
        gathered.clear()
        table = fields.relational_local_fields(rf, of)
        assert gathered == [n_rows]
        whole = of.disintegration.conditional[:, None, :] @ by_site
        assert np.array_equal(table, whole.reshape(table.shape))
