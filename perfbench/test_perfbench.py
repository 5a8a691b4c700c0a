"""Tests of the benchmark itself: tracer completeness, self time, the
correctness oracle, and agreement of traced and untraced runs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run as bench
from tracer import TRACED, Tracer

sys.path.insert(0, str(bench.SRC))

from relqft import fields, frames, net, operators as ops, runner  # noqa: E402
from relqft.config import DEFAULT_CONFIG  # noqa: E402
from relqft.lattice import ModelParams  # noqa: E402
from relqft.scenarios import CHECKS  # noqa: E402

FAST = bench.Workload(
    "cli", ("verify", "restriction-duality", "spectral-condition",
            "intrinsic-causality-pipeline"), None,
    bench._verified("restriction-duality", "spectral-condition",
                    "intrinsic-causality-pipeline"))


@pytest.fixture
def tracer():
    t = Tracer().install()
    try:
        yield t
    finally:
        t.uninstall()


def test_born_measure_called_from_fields_is_counted(tracer):
    params = ModelParams(3, 2)
    frame = frames.uniform_frame(ops.regular_representation(params))
    system = fields.SystemModel(params, ops.regular_representation(params),
                                np.diag(np.arange(frame.dim, dtype=complex)))
    omega = np.eye(frame.dim, dtype=complex) / frame.dim
    rf = fields.RelationalField(system, frame)
    fields.relational_local_observable(rf, omega)
    fields.relational_local_observable(rf, omega)  # the same measure again
    metrics = tracer.metrics()
    assert metrics["fields.relational_local_observable.calls"] == 2
    assert metrics["frames.born_measure.calls"] == 2
    assert metrics["frames.born_measure.effects"] == 2 * len(frame.effects)
    assert metrics["frames.born_measure.distinct_frac"] == 0.5


def test_double_commutant_self_time_excludes_its_commutants(tracer):
    rng = np.random.Generator(np.random.Philox(key=[3, 0]))
    generators = [ops.random_hermitian(rng, 5) for _ in range(2)]
    ops.double_commutant(generators)
    m = tracer.metrics()
    assert m["operators.double_commutant.calls"] == 1
    assert m["operators.commutant.calls"] == 2
    assert math.isclose(
        m["operators.double_commutant.self_s"],
        m["operators.double_commutant.s"] - m["operators.commutant.s"],
        abs_tol=1e-9)
    assert 0 < m["operators.double_commutant.self_s"] < m[
        "operators.commutant.s"]
    # two generators in, then the d^2-dimensional trivial commutant's basis
    assert m["operators.commutant.generators"] == 2 + 1
    assert m["operators.commutant.gram_bytes"] == 2 * 16 * 5 ** 4


def test_local_algebra_cache_hits_are_counted(tracer):
    params = ModelParams(3, 2)
    rep = ops.spacetime_representation(params)
    system = fields.SystemModel(params, rep, np.eye(rep.dim, dtype=complex))
    local_net = net.LocalAlgebraNet(
        frames.fiber_uniform_spacetime_frame(params), system, [system.phi])
    local_net.algebra(frozenset())
    local_net.algebra(frozenset())
    m = tracer.metrics()
    assert m["net.LocalAlgebraNet.algebra.hit_frac"] == 0.5
    assert m["net.local_algebra.calls"] == 1


def test_uninstall_restores_every_binding():
    original = frames.born_measure
    spanning = ops.AlgebraSubspace.__dict__["from_spanning"]
    t = Tracer().install()
    assert fields.born_measure is not original
    assert net.born_measure is fields.born_measure
    t.uninstall()
    assert fields.born_measure is original and net.born_measure is original
    assert ops.AlgebraSubspace.__dict__["from_spanning"] is spanning


def test_traced_metrics_match_the_declared_per_layer_metrics():
    values = Tracer().metrics()
    values.update({"runner.cpu_s": 1.0, "runner.trace_overhead_s": 0.0})
    declared = bench.declared_metrics(trace=True)
    scenarios = {name for name in declared if name.startswith("scenarios.")}
    assert set(declared) - scenarios == set(values)
    assert scenarios == {f"scenarios.{name}.s" for name in CHECKS}
    assert {f"{layer}.{fn}.self_s" for layer, fns in TRACED.items()
            for fn in fns} <= set(declared)


def test_canonical_bytes_match_the_run_report():
    report = runner.run(DEFAULT_CONFIG, targets=["restriction-duality"])
    parsed = json.loads(runner.emit(report, "json"))
    assert bench.canonical_bytes(parsed) == report.canonical_bytes()


def _invocation(stdout: str, code: int = 0) -> bench.Invocation:
    return bench.Invocation(1.0, 1.0, 1.0, code, stdout, "", 0.0, 0.0)


def test_oracle_counts_verdicts_crashes_and_changed_records():
    record = {"name": "a", "verdict": "verified", "residuals": {"r": 1e-16},
              "details": {}, "seconds": 0.1}
    report = {"schema": 1, "checks": [record]}
    oracle = bench.Oracle({"a": "verified"})
    oracle.judge(_invocation(""), report)
    oracle.judge(_invocation(""), {**report, "checks": [
        {**record, "seconds": 0.5}]})
    assert oracle.correct and (oracle.attempted, oracle.failed) == (2, 0)
    oracle.judge(_invocation(""), {**report, "checks": [
        {**record, "residuals": {"r": 2e-16}}]})
    oracle.judge(_invocation(""), {**report, "checks": [
        {**record, "verdict": "failed"}]})
    oracle.judge(_invocation("", code=1), None)
    assert not oracle.correct
    assert (oracle.attempted, oracle.failed) == (5, 3)


@pytest.mark.parametrize("seed", [bench.DEFAULT_SEED, bench.SECOND_SEED])
def test_traced_and_untraced_runs_agree(seed):
    oracle = bench.Oracle(FAST.expected)
    reports = []
    for traced in (False, True):
        inv = bench.invoke(FAST.command(seed, traced), limit_s=120)
        report, trace = bench.parse_output(inv, traced)
        oracle.judge(inv, report)
        reports.append(report)
    assert oracle.correct, oracle.problems
    assert bench.canonical_bytes(reports[0]) == bench.canonical_bytes(
        reports[1])
    assert trace["causality.find_joint_state.calls"] >= 1
    assert trace["runner.run.calls"] == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "net",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
