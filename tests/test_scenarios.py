"""Resource bounds of the bundled checks, the NaN samples they must not
drop, and the per-site loops their array forms are checked against."""

import dataclasses
import json
import pathlib
import tracemalloc

import numpy as np
import pytest

from relqft import causality, fields, frames, lattice, net, runner, scenarios, wightman
from relqft import operators as ops
from relqft.config import DEFAULT_CONFIG, load_config, parse_config
from relqft.lattice import ModelParams

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["relational-covariance", "vacuum-polarization"])
def test_frame_loops_hold_one_effect_array_at_a_time(name):
    # two regular frames at N = 5: 100 effects of 100 x 100 each
    cfg = dataclasses.replace(
        DEFAULT_CONFIG, frames=("smeared-regular", "smeared-regular-strong"))
    n_points = len(cfg.model().frame_points())
    effect_bytes = n_points * n_points ** 2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        outcome = scenarios.CHECKS[name].fn(cfg, runner.check_rng(cfg.seed, name))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.verdict == "verified"
    assert peak < 1.3 * effect_bytes, peak / effect_bytes


def test_a_run_builds_one_model_of_its_size(monkeypatch):
    # a frame or preparation built for one check is valid for every other
    built = []
    post_init = ModelParams.__post_init__

    def record(params):
        post_init(params)
        built.append(params)

    monkeypatch.setattr(ModelParams, "__post_init__", record)
    cfg = DEFAULT_CONFIG
    runner.run(cfg)
    assert {p for p in built if (p.N, p.s) == (cfg.N, cfg.s)} == {cfg.model()}


@pytest.mark.parametrize("N, s", [(3, 1), (5, 2), (7, 3)])
def test_lifted_instances_come_from_the_lattice(N, s):
    params = ModelParams(N, s)
    pairs = scenarios._spacelike_pairs(params)
    # the origin with one site per spacelike separation up to translation
    points = np.array(params.lattice_points())
    rows, cols = np.nonzero(lattice.spacelike_table(params))
    separations = set(map(tuple, ((points[cols] - points[rows]) % N).tolist()))
    assert [a for a, _ in pairs] == [(0, 0)] * len(pairs)
    assert sorted(b for _, b in pairs) == sorted(separations)
    assert len(pairs) == {3: 2, 5: 8, 7: 18}[N]
    for a, b in [*pairs, scenarios._mirror_pair(params)]:
        assert lattice.region_spacelike({a}, {b}, params)

    regions = scenarios._net_regions(params)
    tips, diamond = regions[-2:]
    assert diamond == lattice.causal_hull(tips, params)
    nested = [(u, v) for u in regions for v in regions if u < v]
    assert nested  # isotony pairs
    assert any(lattice.causal_hull(u, params) == lattice.causal_hull(v, params)
               for u, v in nested)  # time-slice pairs


def test_wightman_suite_takes_each_site_table_once(monkeypatch):
    # each distinct spec's kernel array is built once from two tables: spec
    # (read by the Hermiticity, shift, time-ordering, split and stage
    # reconstruction measurements) and its reversed adjoint, the three
    # shifted specs, the swap spec and its swap, spec's swap (split), and
    # spec on the smeared frame; plus 2 microcausality tables
    calls = []
    original = fields.relational_local_fields

    def counting(rf, omega):
        calls.append(rf)
        return original(rf, omega)

    for module in (fields, wightman, causality):
        monkeypatch.setattr(module, "relational_local_fields", counting)
    outcome = scenarios.CHECKS["wightman-suite"].fn(
        DEFAULT_CONFIG, runner.check_rng(DEFAULT_CONFIG.seed, "wightman-suite"))
    assert outcome.verdict == "verified"
    assert len(calls) == 20


def test_spectral_condition_builds_one_kernel_array(monkeypatch):
    # the leak and the direct-transform oracle read one difference kernel
    calls = []
    original = wightman.kernel_array

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(wightman, "kernel_array", counting)
    outcome = scenarios.CHECKS["spectral-condition"].fn(
        DEFAULT_CONFIG, runner.check_rng(DEFAULT_CONFIG.seed, "spectral-condition"))
    assert outcome.verdict == "verified"
    assert len(calls) == 1


@pytest.mark.parametrize("name, measures, details", [
    # each of the 5 frames prepares omega and its 3 generator shifts, but
    # the two translations fix omega on the Lorentz frame, which acts on
    # the boosts alone: 18 preparations
    ("relational-covariance", 18, {"generators": 3}),
    # 32 instances on 9 site states (the origin and the 8 sites spacelike
    # to it) and 8 drawn states; the site tables of all 32 and the
    # observables of the 16 whose fields commute at spacelike pairs read
    # those 17 preparations
    ("microcausality-implication", 17,
     {"instances": 32, "premise_passing": 16}),
    # spec and its 3 shifts, 3 Gram families, the swap pair, and spec's
    # states prepared on the smeared frame: 9 two-point specs
    ("wightman-suite", 18, {}),
    # one omega on both sides of the swap, the search and the premise
    ("intrinsic-causality-pipeline", 1, {}),
    # both factors of the spec share one preparation
    ("spectral-condition", 1, {}),
    # one state per region of the causality pair, prepared and judged
    # once for both nets
    ("net-axioms", 2, {}),
], ids=["relational-covariance", "microcausality-implication", "wightman-suite",
        "intrinsic-causality-pipeline", "spectral-condition", "net-axioms"])
def test_checks_take_one_born_measure_per_preparation(monkeypatch, name,
                                                      measures, details):
    calls = []
    original = frames.born_measure

    def counting(of):
        calls.append(of)
        return original(of)

    for module in (frames, fields, causality, wightman, net):
        monkeypatch.setattr(module, "born_measure", counting, raising=False)
    outcome = scenarios.CHECKS[name].fn(
        DEFAULT_CONFIG, runner.check_rng(DEFAULT_CONFIG.seed, name))
    assert outcome.verdict == "verified"
    assert {k: outcome.details[k] for k in details} == details
    assert len(calls) == len({id(of) for of in calls}) == measures


@pytest.mark.parametrize("config", [None, "perfbench/n7.json"],
                         ids=["default", "n7"])
def test_channel_laws_relativize_no_regular_frame(monkeypatch, config):
    # diagonal invariance on a regular frame is read from the product of
    # the stack with the frame's convolution kernel, so Y is formed only on
    # the small Lorentz frames
    cfg = DEFAULT_CONFIG if config is None else load_config(str(ROOT / config))
    frame_reps = []
    original = fields.relativize

    def recording(rf):
        frame_reps.append(rf.frame.rep)
        return original(rf)

    monkeypatch.setattr(fields, "relativize", recording)
    outcome = scenarios.CHECKS["channel-laws"].fn(
        cfg, runner.check_rng(cfg.seed, "channel-laws"))
    assert outcome.verdict == "verified"
    assert frame_reps and all(rep.free_index is None for rep in frame_reps)


def test_channel_laws_leave_an_unmeasured_unrestricted_gap_out():
    # d = 12: the Lorentz frames have dim 6 and the regular frames dim 294,
    # so no battery frame is small enough for the unrestricted
    # relativization, and no Kadison-Schwarz gap of it is reported
    momenta = [[k, 0] for k in range(1, 7)] + [[0, k] for k in range(1, 7)]
    cfg = parse_config(json.dumps({"model": {"N": 7, "s": 3},
                                   "system": {"momenta": momenta}}))
    report = runner.run(cfg, targets=["channel-laws"])
    (outcome,) = report.outcomes
    assert outcome.verdict == "verified"
    assert "order_gap_unrestricted" not in {m.name for m in outcome.measurements}
    json.dumps(report.to_dict(), allow_nan=False)


def test_net_axioms_builds_each_local_algebra_once(monkeypatch):
    # the intrinsic and hull-completed nets share one cache keyed by the
    # region an algebra is built on, so each of the 41 regions is built
    # once, and the causality premise reads the localized basis its
    # algebra keeps rather than taking it again
    built, localized = [], []
    original = net.local_algebra
    original_states = net.states_supported_in

    def counting(frame, system, system_ops, region):
        built.append(frozenset(region))
        return original(frame, system, system_ops, region)

    def counting_states(frame, region):
        localized.append(frozenset(region))
        return original_states(frame, region)

    monkeypatch.setattr(net, "local_algebra", counting)
    monkeypatch.setattr(net, "states_supported_in", counting_states)
    outcome = scenarios.CHECKS["net-axioms"].fn(
        DEFAULT_CONFIG, runner.check_rng(DEFAULT_CONFIG.seed, "net-axioms"))
    assert outcome.verdict == "verified"
    assert len(built) == len(set(built)) == 41
    assert len(localized) == len(set(localized)) == 41


def test_spectral_oracle_pairs_with_the_inverse_transform(monkeypatch):
    # an asymmetric kernel tells the e^{+2 pi i q.xi / N} pairing of ifftn
    # from its conjugate; the bundled one has a negation-closed support
    fixed = np.arange(9).reshape(3, 3) * (1.0 + 0.5j) + 1j * np.eye(3)[0]
    monkeypatch.setattr(wightman, "difference_kernel", lambda *args: fixed)
    outcome = scenarios.CHECKS["spectral-condition"].fn(
        DEFAULT_CONFIG, runner.check_rng(DEFAULT_CONFIG.seed, "spectral-condition"))
    mismatch = {m.name: m.value for m in outcome.measurements}["oracle_mismatch"]
    assert mismatch <= 1e-12


def test_a_nan_covariance_sample_fails_the_check(monkeypatch):
    # one NaN defect among the samples must reach the measurement
    original = ops.eq_defect
    calls = []

    def nan_once(A, B):
        calls.append(None)
        return float("nan") if len(calls) == 1 else original(A, B)

    monkeypatch.setattr(ops, "eq_defect", nan_once)
    outcome = scenarios.CHECKS["relational-covariance"].fn(
        DEFAULT_CONFIG, runner.check_rng(DEFAULT_CONFIG.seed,
                                         "relational-covariance"))
    assert len(calls) > 1
    assert np.isnan(outcome.residuals["covariance"])
    assert outcome.verdict == "failed"


def test_a_nan_psd_gap_fails_channel_laws(monkeypatch):
    original = ops.psd_gaps

    def first_nan(stack, *args):
        gaps = original(stack, *args)
        gaps[0] = np.nan
        return gaps

    monkeypatch.setattr(ops, "psd_gaps", first_nan)
    outcome = scenarios.CHECKS["channel-laws"].fn(
        DEFAULT_CONFIG, runner.check_rng(DEFAULT_CONFIG.seed, "channel-laws"))
    for name in ("positivity_gap", "order_gap", "order_gap_unrestricted"):
        assert np.isnan(outcome.residuals[name]), name
    assert outcome.verdict == "failed"


def test_a_nan_causal_residual_is_a_counterexample(monkeypatch):
    original = causality.check_r_causal

    def nan_residual(*args, **kwargs):
        original(*args, **kwargs)
        return float("nan")

    monkeypatch.setattr(causality, "check_r_causal", nan_residual)
    outcome = scenarios.CHECKS["microcausality-implication"].fn(
        DEFAULT_CONFIG, runner.check_rng(DEFAULT_CONFIG.seed,
                                         "microcausality-implication"))
    assert outcome.details["premise_passing"] == 0
    assert outcome.details["counterexamples"] > 0
    assert outcome.verdict == "failed"


def test_field_transformation_matches_the_per_site_loop():
    # the check reads g.x from the site action table and sums the moved
    # fields in one reduction; the loop over supported sites with
    # act_point is the reference, and the arithmetic is the same
    name = "field-transformation"
    rng = runner.check_rng(DEFAULT_CONFIG.seed, name)
    outcome = scenarios.CHECKS[name].fn(DEFAULT_CONFIG,
                                        runner.check_rng(DEFAULT_CONFIG.seed, name))
    params = DEFAULT_CONFIG.model()
    system = scenarios.build_system(DEFAULT_CONFIG, rng)
    fr = scenarios.smeared_frame(ops.regular_representation(params), rng, 0.5)
    omega = ops.random_state(rng, fr.dim)
    rf = fields.RelationalField(system, fr)
    sample = scenarios._group_sample(params, rng, extra=2)
    prepared = frames.OrientedFrame(fr, omega)
    unshifted = fields.relational_local_fields(rf, prepared)
    dis = prepared.disintegration
    observable = fields.relational_local_observable(rf, omega)
    worst_point = worst_integral = 0.0
    for g in sample:
        moved = fields.relational_local_fields(rf, fr.rep.conjugate(g, omega))
        rebuilt = 0
        for i in np.flatnonzero(dis.support):
            x = params.lattice_points()[i]
            moved_x = moved[params.site_index(lattice.act_point(g, x, params))]
            worst_point = max(worst_point, ops.eq_defect(
                system.rep.conjugate(g, unshifted[i]), moved_x))
            rebuilt = rebuilt + dis.marginal[i] * moved_x
        worst_integral = max(worst_integral, ops.eq_defect(
            system.rep.conjugate(g, observable), rebuilt))
    assert outcome.residuals == {"pointwise": worst_point,
                                 "integral": worst_integral}


def test_disintegration_covariance_matches_the_per_site_loop():
    name = "disintegration-covariance"
    rng = runner.check_rng(DEFAULT_CONFIG.seed, name)
    outcome = scenarios.CHECKS[name].fn(DEFAULT_CONFIG,
                                        runner.check_rng(DEFAULT_CONFIG.seed, name))
    params = DEFAULT_CONFIG.model()
    fr = scenarios.smeared_frame(ops.regular_representation(params), rng, 0.5)
    omega = ops.random_state(rng, fr.dim)
    base = frames.disintegrate(frames.born_measure(frames.OrientedFrame(fr, omega)))
    boosts = params.boosts()
    worst, compared = 0.0, 0
    for g in scenarios._group_sample(params, rng, extra=3):
        moved = frames.disintegrate(frames.born_measure(frames.OrientedFrame(
            fr, scenarios._right_shift(fr.rep, g, omega))))
        boosted = [boosts.index((g.boost * lam) % params.N) for lam in boosts]
        for i in np.flatnonzero(moved.support):
            gx = params.site_index(
                lattice.act_point(g, params.lattice_points()[i], params))
            assert base.support[gx]
            worst = max(worst, float(np.max(np.abs(
                moved.conditional[i] - base.conditional[gx, boosted]))))
            compared += len(boosts)
    assert outcome.residuals["conditional"] == worst
    assert outcome.details["compared"] == compared


def test_intrinsic_causality_details():
    name = "intrinsic-causality-pipeline"
    outcome = scenarios.CHECKS[name].fn(
        DEFAULT_CONFIG, runner.check_rng(DEFAULT_CONFIG.seed, name))
    assert outcome.details["einstein_causal"]
    assert outcome.certified
    assert outcome.residuals["joint_feasibility"] < 1e-7
    # equal preparations make the swapped product literally the same
    # product, so the swap identity holds to rounding
    assert outcome.residuals["preparation_swap"] < 1e-12
    # but equal preparations are never spacelike separated, so the
    # pipeline verdict stays vacuous rather than claiming the conclusion
    of = frames.OrientedFrame(*scenarios._witness_frame())
    assert not causality.r_spacelike(of, of)
    assert outcome.details["pipeline_verdict"] == "vacuous"


@pytest.mark.parametrize("pairs, residual, einstein_causal",
                         [(0, 1.0, True), (3, float("nan"), False)])
def test_einstein_causal_is_no_pairs_or_a_residual_within_tol_eq(
        monkeypatch, pairs, residual, einstein_causal):
    # no spacelike effect pairs make the frame Einstein-causal whatever the
    # residual; a NaN residual meets no bound.  The premise passes its
    # bound, tol_eq, to the predicate.
    monkeypatch.setattr(causality, "check_frame_einstein_causal",
                        lambda frame, bound: (pairs, residual))
    name = "intrinsic-causality-pipeline"
    outcome = scenarios.CHECKS[name].fn(
        DEFAULT_CONFIG, runner.check_rng(DEFAULT_CONFIG.seed, name))
    assert outcome.details["einstein_causal"] is einstein_causal
    assert outcome.details["pipeline_verdict"] == "vacuous"
