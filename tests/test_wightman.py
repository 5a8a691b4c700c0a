import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from relqft import fields, frames, lattice, wightman
from relqft import operators as ops
from relqft.lattice import LatticePoint, ModelParams
from relqft.operators import HermiticityError
from relqft.wightman import InvarianceError

P3 = ModelParams(3, 2)
P7 = ModelParams(7, 2)
P5 = ModelParams(5, 2)
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def spec_on(fr, *factors):
    """The spec of (state, operator) factors, each state prepared on fr."""
    return wightman.VevSpec(tuple((frames.OrientedFrame(fr, omega), phi)
                                  for omega, phi in factors))


def random_spec(rng, fr, dim, n=2):
    return spec_on(fr, *((ops.random_state(rng, fr.dim),
                          ops.random_operator(rng, dim)) for _ in range(n)))


def lifted_stage(rng):
    rep = ops.spacetime_representation(P5)
    vac = wightman.VacuumModel.pure(rep, np.ones(rep.dim, dtype=complex))
    fr = frames.fiber_uniform_spacetime_frame(P5)
    return rep, vac, fr, random_spec(rng, fr, rep.dim)


def orbit_rep(params, seed_momentum):
    p = LatticePoint(*seed_momentum)
    orbit = []
    while p not in orbit:
        orbit.append(p)
        p = ops.momentum_boost(params.s, p, params)
    return ops.character_representation(params, orbit)


def test_vacuum_model_rejects_non_density():
    rep = ops.spacetime_representation(P3)
    with pytest.raises(HermiticityError):
        wightman.VacuumModel(rep, 2.0 * np.eye(rep.dim, dtype=complex))


def test_vacuum_model_rejects_non_invariant_state():
    rep = ops.spacetime_representation(P3)
    site = np.zeros((rep.dim, rep.dim), dtype=complex)
    site[0, 0] = 1.0
    with pytest.raises(InvarianceError):
        wightman.VacuumModel(rep, site)


def test_pure_vacuum_normalizes():
    rep = ops.spacetime_representation(P3)
    vac = wightman.VacuumModel.pure(rep, 7.0 * np.ones(rep.dim))
    assert abs(np.trace(vac.state) - 1.0) < 1e-14


def test_one_point_vev_is_the_observable_expectation(rng):
    rep, vac, fr, _ = lifted_stage(rng)
    omega = ops.random_state(rng, fr.dim)
    phi = ops.random_operator(rng, rep.dim)
    spec = spec_on(fr, (omega, phi))
    rf = fields.RelationalField(fields.SystemModel(P5, rep, phi), fr)
    A = fields.relational_local_observable(rf, omega)
    assert abs(wightman.vev(vac, spec) - np.trace(vac.state @ A)) < 1e-14


def test_hermiticity_identity_for_generic_operators(rng):
    _, vac, fr, spec = lifted_stage(rng)
    kernels = wightman.KernelArrays(vac, fr)
    assert wightman.hermiticity_check(kernels, spec) < 1e-12


def test_gram_matrix_is_positive(rng):
    rep, vac, fr, _ = lifted_stage(rng)
    families = [random_spec(rng, fr, rep.dim) for _ in range(3)]
    G = wightman.gram_matrix(vac, families)
    assert ops.herm_defect(G) < 1e-12
    assert ops.psd_gap(G) >= -1e-10
    # the einsum against the per-entry trace definition
    prods = []
    for spec in families:
        acc = np.eye(vac.dim, dtype=complex)
        for of, phi in spec.factors:
            acc = acc @ fields.relational_local_observable(
                fields.RelationalField(fields.SystemModel(P5, rep, phi), fr),
                of.omega)
        prods.append(acc)
    for j, A in enumerate(prods):
        for k, B in enumerate(prods):
            assert abs(G[j, k] - np.trace(vac.state @ ops.dagger(B) @ A)) < 1e-12


def test_kernel_reconstruction(rng):
    _, vac, fr, spec = lifted_stage(rng)
    kernels = wightman.KernelArrays(vac, fr)
    assert wightman.kernel_reconstruction_defect(kernels, spec) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_array_is_the_product_of_table_rows(rng, n):
    rep, vac, fr, _ = lifted_stage(rng)
    spec = random_spec(rng, fr, rep.dim, n)
    tables = [fields.relational_local_fields(
        fields.RelationalField(fields.SystemModel(P5, rep, phi), fr),
        of.omega) for of, phi in spec.factors]
    K = wightman.kernel_array(vac, spec)
    assert K.shape == (25,) * n
    kernels = wightman.KernelArrays(vac, fr)
    points = P5.lattice_points()
    for idx in rng.integers(25, size=(20, n)):
        acc = np.array(vac.state, dtype=complex)
        for table, i in zip(tables, idx):
            acc = acc @ table[i]
        product = np.trace(acc)
        assert abs(K[tuple(idx)] - product) < 1e-12
        value = wightman.kernel(kernels, spec, [points[i] for i in idx])
        assert abs(value - product) < 1e-12
        assert value == K[tuple(idx)]
    with pytest.raises(ValueError, match="one lattice point per factor"):
        wightman.kernel(kernels, spec, [LatticePoint(0, 0)] * (n + 1))


def test_kernel_array_does_not_depend_on_blas_threads():
    script = (
        "import hashlib\n"
        "from relqft import runner, scenarios, wightman\n"
        "from relqft.config import DEFAULT_CONFIG\n"
        "rng = runner.check_rng(DEFAULT_CONFIG.seed, 'wightman-suite')\n"
        "_, _, vacuum, _, spec = scenarios._wightman_stage(DEFAULT_CONFIG, rng)\n"
        "print(hashlib.sha256(wightman.kernel_array(vacuum, spec)"
        ".tobytes()).hexdigest())\n")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [str(SRC), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        digests.append(done.stdout)
    assert digests[0] == digests[1]


def test_difference_kernel_base_independence(rng):
    rep, vac, fr, _ = lifted_stage(rng)
    omega = np.eye(fr.dim, dtype=complex) / fr.dim
    spec = spec_on(fr, (omega, ops.random_operator(rng, rep.dim)),
                   (omega, ops.random_operator(rng, rep.dim)))
    table = wightman.difference_kernel(vac, spec)
    assert table.shape == (5, 5)
    kernels = wightman.KernelArrays(vac, fr)
    # the reduced kernel equals the pointwise kernel anchored anywhere
    for xi in (LatticePoint(2, 3), LatticePoint(0, 4)):
        for base in (LatticePoint(0, 0), LatticePoint(3, 1)):
            pts = (LatticePoint((base.u + xi.u) % 5, (base.v + xi.v) % 5), base)
            assert abs(table[xi] - wightman.kernel(kernels, spec, pts)) < 1e-12


def test_difference_kernel_needs_oriented_full_support(rng):
    rep, vac, fr, _ = lifted_stage(rng)
    site = np.zeros((fr.dim, fr.dim), dtype=complex)
    site[0, 0] = 1.0
    spec = spec_on(fr, (site, ops.random_operator(rng, rep.dim)),
                   (site, ops.random_operator(rng, rep.dim)))
    with pytest.raises(wightman.OrientationError):
        wightman.difference_kernel(vac, spec)


def test_spectral_support_tracks_momentum_sign():
    # the boost orbit of (1, 0) mod 7 is {1, 2, 4}, which is disjoint
    # from its negative; a transform with the wrong DFT sign would put
    # the weight on the mirror momenta instead
    rep = ops.direct_sum_rep([ops.trivial_representation(P7),
                              orbit_rep(P7, (1, 0))])
    e0 = np.zeros(rep.dim, dtype=complex)
    e0[0] = 1.0
    vac = wightman.VacuumModel.pure(rep, e0)
    fr = frames.fiber_uniform_spacetime_frame(P7)
    rng = ops.make_rng(11)
    omega = np.eye(fr.dim, dtype=complex) / fr.dim
    spec = spec_on(fr, (omega, ops.random_operator(rng, rep.dim)),
                   (omega, ops.random_operator(rng, rep.dim)))
    report = wightman.spectral_check(vac, spec)
    assert not report.vacuous
    assert report.max_leak <= 1e-9
    sigma = set(ops.translation_character_support(rep)) - {LatticePoint(0, 0)}
    mirror = {LatticePoint((-q.u) % 7, (-q.v) % 7) for q in sigma}
    assert sigma.isdisjoint(mirror)
    assert max(abs(report.table[q]) for q in sigma) > 0.1
    assert max(abs(report.table[q]) for q in mirror) <= 1e-9


def test_mixed_vacuum_leaks_onto_momentum_differences():
    # a maximally mixed invariant state on the orbit characters is not a
    # spectral vacuum: weight appears at differences of support momenta,
    # here at zero, which lies outside the support
    rep = orbit_rep(P3, (1, 0))
    vac = wightman.VacuumModel(rep, np.eye(2, dtype=complex) / 2)
    fr = frames.fiber_uniform_spacetime_frame(P3)
    rng = ops.make_rng(11)
    omega = np.eye(fr.dim, dtype=complex) / fr.dim
    spec = spec_on(fr, (omega, ops.random_operator(rng, rep.dim)),
                   (omega, ops.random_operator(rng, rep.dim)))
    report = wightman.spectral_check(vac, spec)
    assert not report.vacuous
    assert report.max_leak > 1e-9
    leak_zero = abs(report.table[LatticePoint(0, 0)])
    assert leak_zero > 0.1
    assert abs(report.max_leak - leak_zero) < 1e-12
    # hermiticity balances the weight on the two orbit momenta
    assert abs(abs(report.table[LatticePoint(1, 0)])
               - abs(report.table[LatticePoint(2, 0)])) < 1e-10
    differences = {LatticePoint(0, 0), LatticePoint(1, 0), LatticePoint(2, 0)}
    for q in P3.lattice_points():
        if q not in differences:
            assert abs(report.table[q]) <= 1e-12


def test_spectral_check_vacuous_for_full_support(rng):
    rep = ops.spacetime_representation(P3)
    vac = wightman.VacuumModel.pure(rep, np.ones(rep.dim))
    fr = frames.fiber_uniform_spacetime_frame(P3)
    omega = np.eye(fr.dim, dtype=complex) / fr.dim
    spec = spec_on(fr, (omega, ops.random_operator(rng, rep.dim)),
                   (omega, ops.random_operator(rng, rep.dim)))
    report = wightman.spectral_check(vac, spec)
    assert report.vacuous
    # one factor: no differences, so the table is the zero-dimensional vev
    one = wightman.spectral_check(vac, wightman.VevSpec(spec.factors[:1]))
    assert one.table.shape == ()
    assert one.vacuous


def test_theta_step_weights():
    assert wightman.theta(3) == 1.0
    assert wightman.theta(-2) == 0.0
    assert wightman.theta(0) == 0.5


def test_time_ordered_two_point_split(rng):
    _, vac, fr, spec = lifted_stage(rng)
    x1, x2 = LatticePoint(1, 1), LatticePoint(0, 0)
    assert lattice.time_coordinate(x1, P5) > lattice.time_coordinate(x2, P5)
    kernels = wightman.KernelArrays(vac, fr)
    ordered, coincident = wightman.time_ordered_detailed(kernels, spec, (x1, x2))
    assert not coincident
    # later factor first: only the identity permutation survives
    assert abs(ordered - wightman.kernel(kernels, spec, (x1, x2))) < 1e-12
    reversed_order, _ = wightman.time_ordered_detailed(kernels, spec, (x2, x1))
    assert abs(reversed_order
               - wightman.kernel(kernels, spec.swapped(0), (x1, x2))) < 1e-12


def test_point_quantities_are_kernel_array_entries(rng):
    _, vac, fr, spec = lifted_stage(rng)
    K = wightman.kernel_array(vac, spec)
    K_swapped = wightman.kernel_array(vac, spec.swapped(0))
    kernels = wightman.KernelArrays(vac, fr)
    # a spec rebuilt from the same factors finds the array built for it
    assert np.array_equal(kernels(spec.swapped(0)), K_swapped)
    assert kernels(spec.swapped(0)) is kernels(spec.swapped(0))
    assert kernels(spec) is not kernels(spec.swapped(0))
    # a spec prepared on another frame is not this one's
    elsewhere = spec_on(frames.fiber_uniform_spacetime_frame(P5),
                        *((of.omega, phi) for of, phi in spec.factors))
    with pytest.raises(ValueError, match="another frame"):
        kernels(elsewhere)
    later, earlier, level = LatticePoint(1, 1), LatticePoint(0, 0), LatticePoint(1, 4)
    for x1, x2 in ((later, earlier), (earlier, later), (earlier, level)):
        i, j = P5.site_index(x1), P5.site_index(x2)
        assert wightman.kernel(kernels, spec, (x1, x2)) == K[i, j]
        assert wightman.kernel_swap_residual(kernels, spec, (x1, x2), 0) == abs(
            K[i, j] - K_swapped[j, i])
    # theta picks the time-sorted order, and splits evenly at equal times
    i, j, k = (P5.site_index(x) for x in (later, earlier, level))
    assert wightman.time_ordered_detailed(kernels, spec, (later, earlier)) == (
        K[i, j], False)
    assert wightman.time_ordered_detailed(kernels, spec, (earlier, later)) == (
        K_swapped[i, j], False)
    assert wightman.time_ordered_detailed(kernels, spec, (earlier, level)) == (
        0.5 * K[j, k] + 0.5 * K_swapped[k, j], True)
    with pytest.raises(ValueError, match="one lattice point per factor"):
        wightman.time_ordered_detailed(kernels, spec, (later,))


def test_time_ordered_flags_coincident_times(rng):
    _, vac, fr, spec = lifted_stage(rng)
    x1, x2 = LatticePoint(0, 0), LatticePoint(1, 4)
    assert lattice.time_coordinate(x1, P5) == lattice.time_coordinate(x2, P5)
    kernels = wightman.KernelArrays(vac, fr)
    _, coincident = wightman.time_ordered_detailed(kernels, spec, (x1, x2))
    assert coincident


def test_field_span_irreducibility(rng):
    rep = ops.direct_sum_rep([ops.trivial_representation(P3),
                              orbit_rep(P3, (1, 0))])
    fr = frames.fiber_uniform_spacetime_frame(P3)
    system = fields.SystemModel(P3, rep, ops.random_operator(rng, rep.dim))
    ref = np.ones(rep.dim, dtype=complex) / np.sqrt(rep.dim)
    report = wightman.irreducibility_check(
        fields.RelationalField(system, fr), vacuum_vector=ref)
    assert report.span_dim == 3
    assert report.commutant_dim == 1
    assert report.irreducible
    assert report.generates_full
    assert report.bicommutant_dim == rep.dim ** 2
    assert report.cyclic
    assert report.cyclic_rank == rep.dim


def test_identity_generator_span_is_scalar(rng):
    rep = ops.direct_sum_rep([ops.trivial_representation(P3),
                              orbit_rep(P3, (1, 0))])
    fr = frames.fiber_uniform_spacetime_frame(P3)
    system = fields.SystemModel(P3, rep, np.eye(rep.dim, dtype=complex))
    ref = np.ones(rep.dim, dtype=complex) / np.sqrt(rep.dim)
    report = wightman.irreducibility_check(
        fields.RelationalField(system, fr), vacuum_vector=ref)
    assert report.span_dim == 1
    assert report.commutant_dim == rep.dim ** 2
    assert not report.irreducible
    assert not report.generates_full
    assert report.cyclic_rank == 1


@pytest.mark.parametrize("case", ["character-sharp", "spacetime-sharp",
                                  "character-smeared-regular"])
def test_field_span_is_the_per_unit_loop(monkeypatch, rng, case):
    if case == "spacetime-sharp":
        rep = ops.spacetime_representation(P3)
    else:
        rep = ops.direct_sum_rep([ops.trivial_representation(P3),
                                  orbit_rep(P3, (1, 0))])
    if case.endswith("smeared-regular"):
        regular = ops.regular_representation(P3)
        seed = (np.eye(regular.dim) + 0.4 * ops.random_psd(rng, regular.dim)) / regular.dim
        fr = frames.build_frame(regular, seed)
    else:
        fr = frames.fiber_uniform_spacetime_frame(P3)
    rf = fields.RelationalField(
        fields.SystemModel(P3, rep, ops.random_operator(rng, rep.dim)), fr)
    spanned = []
    original = ops.AlgebraSubspace.from_spanning

    def spy(dim, raw, *args):
        spanned.append(np.asarray(list(raw)))
        return original(dim, spanned[-1], *args)

    monkeypatch.setattr(ops.AlgebraSubspace, "from_spanning", spy)
    basis = wightman.field_operator_span(rf)
    monkeypatch.undo()
    # the units in the effect view's column order: units[(j, i)] = e_ij
    units = np.eye(fr.dim ** 2, dtype=complex).reshape(-1, fr.dim, fr.dim)
    units = units.transpose(0, 2, 1)
    weighted = np.array([frames.born_measure_trace_class(fr, T).weights.any()
                         for T in units])
    loop = np.array([fields.extend_trace_class(rf, T) for T in units])
    assert spanned[0].shape == loop[weighted].shape
    assert np.max(np.abs(spanned[0] - loop[weighted])) < 1e-13
    assert not loop[~weighted].any()
    if case.endswith("sharp"):
        assert len(spanned[0]) == P3.N ** 2
    assert len(basis) == ops.AlgebraSubspace.from_spanning(rep.dim, loop).subspace_dim
