import dataclasses
import functools
import inspect
import json
import pathlib

import numpy as np
import pytest

from relqft import causality, fields, frames, net, runner, wightman
from relqft import operators as ops
from relqft.config import ConfigError, DEFAULT_CONFIG, load_config
from relqft.scenarios import CHECKS, CheckOutcome, SUITES
from relqft.tolerances import Measurement

FAST = ["restriction-duality", "spectral-condition"]
#: The benchmark's N = 7 config, read only.
N7_CONFIG = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "n7.json"


def test_registry_names_and_anchors_are_stable():
    for name, check in CHECKS.items():
        assert name == name.lower()
        assert " " not in name and " " not in check.anchor
        assert check.summary
    assert SUITES["all"] == tuple(CHECKS)
    for suite, names in SUITES.items():
        for name in names:
            assert name in CHECKS
    # every check belongs to exactly one proper suite
    proper = [n for suite, names in SUITES.items() if suite != "all"
              for n in names]
    assert sorted(proper) == sorted(CHECKS)


def test_resolve_checks_expands_and_dedupes():
    names = runner.resolve_checks(["covariance"])
    assert names == list(SUITES["covariance"])
    # mixing a suite with one of its own members adds nothing
    assert runner.resolve_checks(["covariance", names[0]]) == names
    # resolution order is registry order, not request order
    pair = runner.resolve_checks(["net-axioms", "relational-covariance"])
    assert pair == ["relational-covariance", "net-axioms"]
    assert runner.resolve_checks(["all"]) == list(CHECKS)
    assert runner.resolve_checks([]) == []


def test_resolve_checks_rejects_unknown():
    with pytest.raises(ConfigError, match="unknown suite or check"):
        runner.resolve_checks(["covarience"])


def test_validate_semantics_rejects_unknown_frame():
    cfg = dataclasses.replace(DEFAULT_CONFIG, frames=("sharp-regular", "nope"))
    with pytest.raises(ConfigError, match="unknown frame 'nope'"):
        runner.validate_semantics(cfg)


def test_validate_semantics_rejects_bad_momenta():
    # a single momentum is not boost-closed at N = 5
    cfg = dataclasses.replace(DEFAULT_CONFIG,
                              momenta=(DEFAULT_CONFIG.momenta[0],))
    with pytest.raises(ConfigError, match="cannot build a system model"):
        runner.validate_semantics(cfg)


def test_empty_target_list_passes():
    report = runner.run(DEFAULT_CONFIG, targets=[])
    assert report.outcomes == []
    assert report.exit_code == 0
    text = runner.render_text(report)
    assert text.splitlines() == [
        "check  verdict  measurement  value  bound  margin  seconds"]


def test_run_single_check():
    report = runner.run(DEFAULT_CONFIG, targets=FAST[:1])
    assert len(report.outcomes) == 1
    outcome = report.outcomes[0]
    assert outcome.name == FAST[0]
    assert outcome.verdict == "verified"
    assert outcome.seconds > 0
    assert report.exit_code == 0


def test_json_report_round_trip():
    report = runner.run(DEFAULT_CONFIG, targets=FAST)
    text = runner.render_json(report)
    assert json.loads(text) == report.to_dict()
    assert runner.load_report(text) == report.to_dict()


def test_load_report_rejects_other_schema():
    with pytest.raises(ConfigError, match="unsupported report schema"):
        runner.load_report('{"schema": 99}')
    # schema 1 records had no bounds or senses
    with pytest.raises(ConfigError, match="unsupported report schema 1"):
        runner.load_report('{"schema": 1}')


def test_canonical_bytes_exclude_timings():
    report = runner.run(DEFAULT_CONFIG, targets=FAST)
    before = report.canonical_bytes()
    for outcome in report.outcomes:
        outcome.seconds += 17.0
    assert report.canonical_bytes() == before
    assert b"seconds" not in before


def test_same_seed_same_bytes():
    a = runner.run(DEFAULT_CONFIG, targets=FAST)
    b = runner.run(DEFAULT_CONFIG, targets=FAST)
    assert a.canonical_bytes() == b.canonical_bytes()


def test_different_seed_different_bytes():
    cfg = dataclasses.replace(DEFAULT_CONFIG, seed=1)
    a = runner.run(DEFAULT_CONFIG, targets=["restriction-duality"])
    b = runner.run(cfg, targets=["restriction-duality"])
    assert a.canonical_bytes() != b.canonical_bytes()


def test_check_rng_streams():
    a = runner.check_rng(11, "alpha").random(4)
    b = runner.check_rng(11, "alpha").random(4)
    c = runner.check_rng(11, "beta").random(4)
    d = runner.check_rng(12, "alpha").random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_exit_code_flags_bad_verdicts():
    met, missed = Measurement("r", 0.0, 1.0), Measurement("r", 2.0, 1.0)
    good = CheckOutcome([met], name="a", anchor="x")
    assert good.verdict == "verified"
    for bad_verdict, bad in (
            ("failed", CheckOutcome([missed], name="b", anchor="y")),
            ("no-certificate",
             CheckOutcome([met], certified=False, name="b", anchor="y"))):
        assert bad.verdict == bad_verdict
        assert runner.RunReport(DEFAULT_CONFIG, 0, [good, bad]).exit_code == 1
    vac = CheckOutcome([met], premise=False, name="c", anchor="z")
    assert vac.verdict == "vacuous"
    assert runner.RunReport(DEFAULT_CONFIG, 0, [good, vac]).exit_code == 0


def test_render_text_table():
    report = runner.run(DEFAULT_CONFIG, targets=FAST)
    lines = runner.render_text(report).splitlines()
    assert lines[0].split() == ["check", "verdict", "measurement", "value",
                                "bound", "margin", "seconds"]
    assert len(lines) == 1 + len(FAST)
    assert lines[1].startswith(FAST[0])
    assert "verified" in lines[1]


def test_emit_rejects_unknown_format():
    report = runner.run(DEFAULT_CONFIG, targets=[])
    with pytest.raises(ConfigError, match="unknown format"):
        runner.emit(report, "yaml")


def test_outcome_record_shape():
    report = runner.run(DEFAULT_CONFIG, targets=FAST[:1])
    record = report.outcomes[0].to_record()
    assert set(record) == {"name", "anchor", "verdict", "measurements",
                           "details", "seconds"}
    assert record["name"] == FAST[0]
    for measurement in record["measurements"]:
        assert set(measurement) == {"name", "value", "bound", "sense"}
        assert measurement["sense"] in ("<=", ">=", "==")
    slim = report.outcomes[0].to_record(include_timing=False)
    assert "seconds" not in slim
    # records must be JSON-clean all the way down
    json.dumps(record)


def test_render_text_names_deciding_measurement():
    # a passing row shows the tightest bound, never a gap far above its
    # lower bound (channel-laws' positivity_gap is about 5.4)
    report = runner.run(DEFAULT_CONFIG, targets=["channel-laws"])
    outcome = report.outcomes[0]
    header, row = runner.render_text(report).splitlines()
    assert "5.379e+00" not in row
    cells = dict(zip(header.split(), row.split()))
    assert cells["verdict"] == "verified"
    assert cells["measurement"] in outcome.residuals
    assert float(cells["margin"]) >= 0.0
    named = [m for m in outcome.measurements if m.name == cells["measurement"]]
    assert cells["bound"] == named[0].sense + f"{named[0].bound:.3e}"


def test_deciding_measurement_rule():
    def shown(*measurements):
        report = runner.RunReport(DEFAULT_CONFIG, 0, [
            CheckOutcome(list(measurements), name="c", anchor="x")])
        return runner.render_text(report).splitlines()[1].split()[2]

    loose = Measurement("loose", 0.5, 1.0)
    tight = Measurement("tight", 0.9, 1.0)
    gap = Measurement("gap", 5.0, -1e-9, ">=")
    flag = Measurement("flag", 1, 1, "==")
    # smallest margin relative to |bound| among the inequalities
    assert shown(loose, gap, tight, flag) == "tight"
    # all equalities: the first one
    assert shown(flag, Measurement("count", 0, 0, "==")) == "flag"
    # failures: the most violated, and a NaN value is violated most
    assert shown(loose, Measurement("bad", 1.5, 1.0),
                 Measurement("worse", 3.0, 1.0)) == "worse"
    assert shown(Measurement("worse", 3.0, 1.0),
                 Measurement("nan", float("nan"), 1.0)) == "nan"
    # a count at its bound does not hide a real-valued residual
    assert shown(Measurement("pairs", 1, 1, ">="), tight) == "tight"


@pytest.mark.parametrize("check, calls, stub", [
    # a stubbed premise, one commuting spacelike pair, forces the
    # check_r_causal branch for every instance
    ("microcausality-implication", {"causality.check_r_microcausal"}, True),
    # every kernel in wightman reads site tables through this binding
    ("wightman-suite",
     {"causality.check_r_microcausal", "causality.r_spacelike",
      "wightman.relational_local_fields"}, False),
    ("intrinsic-causality-pipeline", {"causality.r_spacelike"}, False),
    ("net-axioms", {"net.verify_net_axioms"}, False),
    ("field-transformation", {"fields.relational_local_fields"}, False),
    ("spectral-condition",
     {"wightman.relational_local_fields", "wightman.difference_kernel",
      "wightman._require_globally_oriented"}, False),
    ("disintegration-covariance", set(), False),
])
def test_tolerance_overrides_reach_premise_calls(monkeypatch, check, calls,
                                                 stub):
    # every preparation the check builds carries the overridden tol_supp,
    # the premise calls are made, and each call that declares tol_eq or
    # tol_supp receives the overridden value
    tols = {"tol_eq": 3e-10, "tol_supp": 4e-13}
    cfg = dataclasses.replace(DEFAULT_CONFIG, tolerances=tols)
    modules = {"causality": causality, "fields": fields, "net": net,
               "wightman": wightman}
    seen = []
    prepared = []

    def recording(qualname):
        module, name = qualname.split(".")
        original = getattr(modules[module], name)
        signature = inspect.signature(original)
        declared = [k for k in tols if k in signature.parameters]

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append((qualname, {k: bound.arguments[k] for k in declared}))
            if stub:
                return 1, 0.0
            return original(*args, **kwargs)
        return wrapper

    for qualname in calls:
        module, name = qualname.split(".")
        monkeypatch.setattr(modules[module], name, recording(qualname))
    init = frames.OrientedFrame.__init__

    def recording_init(of, *args, **kwargs):
        init(of, *args, **kwargs)
        prepared.append(of.tol_supp)

    monkeypatch.setattr(frames.OrientedFrame, "__init__", recording_init)
    runner.run(cfg, targets=[check])
    assert prepared and set(prepared) == {tols["tol_supp"]}
    assert {qualname for qualname, _ in seen} == calls
    for _, received in seen:
        assert received == {k: tols[k] for k in received}


def run_without_dense_unitaries(monkeypatch, cfg):
    # every check reads its representations as index and phase tables, and
    # __call__ is the only code that builds a dense U(g)
    def dense(rep, g):
        raise AssertionError(f"dense U(g) built for a representation of dim {rep.dim}")

    monkeypatch.setattr(ops.UnitaryRep, "__call__", dense)
    report = runner.run(cfg)
    assert len(report.outcomes) == 13
    assert {o.verdict for o in report.outcomes} == {"verified"}


def test_default_run_builds_no_dense_unitary(monkeypatch):
    run_without_dense_unitaries(monkeypatch, DEFAULT_CONFIG)


def test_n7_run_builds_no_dense_unitary(monkeypatch):
    run_without_dense_unitaries(monkeypatch, load_config(str(N7_CONFIG)))


def test_n7_workload_builds_no_regular_effect_array(monkeypatch):
    # frames are read from their dressed seeds; UnitaryRep.orbit is the one
    # gather of conjugates, and on a representation as large as l2(M) it
    # gathers at most the |C| rows of a fiber: no whole orbit on the regular
    # representation (147), on the fixed-free sector of vacuum-orthogonality
    # (144), or on the spacetime representation (49), whose frames read
    # their fiber seeds
    orbit = ops.UnitaryRep.orbit
    built = set()

    def guarded(rep, A, rows=slice(None)):
        n = len(np.arange(len(rep.table))[rows])
        if rep.dim >= rep.params.N ** 2 and n > len(rep.params.boosts()):
            raise AssertionError(f"{n} conjugates gathered on a representation"
                                 f" of dim {rep.dim}")
        if n == len(rep.table):
            built.add(rep.dim)
        return orbit(rep, A, rows)

    monkeypatch.setattr(ops.UnitaryRep, "orbit", guarded)
    # the checks of the benchmark's n7 workload
    report = runner.run(load_config(str(N7_CONFIG)), targets=[
        "relational-covariance", "disintegration-covariance",
        "restriction-duality", "channel-laws", "vacuum"])
    assert len(report.outcomes) == 6
    assert {o.verdict for o in report.outcomes} == {"verified"}
    # the orbits left are those of the system and the Lorentz frames
    assert 0 < max(built) < 49


def test_n7_microcausal_premise_norms_at_most_once_per_random_preparation(
        monkeypatch):
    # the premise passes tol_eq to max_commutator, whose norm bracket
    # settles the site instances' commutators (exactly zero, or far above
    # the bound) and ends a random preparation's scan at its first chunk;
    # so op_norms runs at most once per random-preparation instance, not
    # once per chunk of every instance's spacelike site pairs
    calls = []
    op_norms, microcausal = ops.op_norms, causality.check_r_microcausal
    premise_calls = []

    def counted_norms(stack):
        calls.append(len(stack))
        return op_norms(stack)

    def counted_premise(*args, **kwargs):
        before = len(calls)
        result = microcausal(*args, **kwargs)
        premise_calls.append(len(calls) - before)
        return result

    monkeypatch.setattr(ops, "op_norms", counted_norms)
    monkeypatch.setattr(causality, "check_r_microcausal", counted_premise)
    report = runner.run(load_config(str(N7_CONFIG)),
                        targets=["microcausality-implication"])
    (outcome,) = report.outcomes
    assert outcome.verdict == "verified"
    assert len(premise_calls) == outcome.details["instances"]
    random_preparations = 4
    assert max(premise_calls) <= 1
    assert sum(premise_calls) <= random_preparations


@pytest.mark.parametrize("path", [None, N7_CONFIG], ids=["default", "n7"])
def test_run_reads_no_effect_array_as_large_as_the_lattice(monkeypatch, path):
    # the local algebras and the field span read their unit weights from
    # the frame's seed: only the Lorentz frames (dim |C|) and the N = 3
    # product-frame witness (dim 18) read an effect array in a whole run
    cfg = DEFAULT_CONFIG if path is None else load_config(str(path))
    lattice_dim = cfg.model().N ** 2
    effects = frames.FrameObservable.effects
    read = set()

    def guarded(frame):
        read.add(frame.dim)
        if frame.dim >= lattice_dim:
            raise AssertionError(f"effect array read at dim {frame.dim}")
        return effects.func(frame)

    guarded_effects = functools.cached_property(guarded)
    guarded_effects.__set_name__(frames.FrameObservable, "effects")
    monkeypatch.setattr(frames.FrameObservable, "effects", guarded_effects)
    report = runner.run(cfg)
    assert len(report.outcomes) == 13
    assert {o.verdict for o in report.outcomes} == {"verified"}
    assert 18 in read and max(read) < lattice_dim
