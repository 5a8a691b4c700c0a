"""Resource bounds of the bundled checks."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from relqft import causality, fields, net, runner, scenarios, wightman
from relqft.config import DEFAULT_CONFIG
from relqft.tolerances import TOL_SUPP


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


def test_wightman_suite_takes_each_site_table_once(monkeypatch):
    # the kernel shift law takes spec's tables once for its kernel array and
    # each shifted spec's once: 4 hermiticity + 2 time-ordered + (2 + 3 x 2)
    # shift + 4 swap + 4 split + 2 microcausality + 2 x 2 smearing
    # reconstruction tables
    calls = []
    original = fields.relational_local_fields

    def counting(rf, omega, tol_supp=TOL_SUPP):
        calls.append(rf)
        return original(rf, omega, tol_supp)

    for module in (fields, wightman, causality):
        monkeypatch.setattr(module, "relational_local_fields", counting)
    outcome = scenarios.CHECKS["wightman-suite"].fn(
        DEFAULT_CONFIG, runner.check_rng(DEFAULT_CONFIG.seed, "wightman-suite"))
    assert outcome.verdict == "verified"
    assert len(calls) == 28


def test_net_axioms_builds_each_local_algebra_once(monkeypatch):
    # the intrinsic and hull-completed nets share one cache keyed by the
    # region an algebra is built on, so each of the 41 regions is built once
    built = []
    original = net.local_algebra

    def counting(frame, system, system_ops, region):
        built.append(frozenset(region))
        return original(frame, system, system_ops, region)

    monkeypatch.setattr(net, "local_algebra", counting)
    outcome = scenarios.CHECKS["net-axioms"].fn(
        DEFAULT_CONFIG, runner.check_rng(DEFAULT_CONFIG.seed, "net-axioms"))
    assert outcome.verdict == "verified"
    assert len(built) == len(set(built)) == 41


def test_spectral_oracle_pairs_with_the_inverse_transform(monkeypatch):
    # an asymmetric kernel tells the e^{+2 pi i q.xi / N} pairing of ifftn
    # from its conjugate; the bundled one has a negation-closed support
    fixed = np.arange(9).reshape(3, 3) * (1.0 + 0.5j) + 1j * np.eye(3)[0]
    monkeypatch.setattr(wightman, "difference_kernel", lambda *args: fixed)
    outcome = scenarios.CHECKS["spectral-condition"].fn(
        DEFAULT_CONFIG, runner.check_rng(DEFAULT_CONFIG.seed, "spectral-condition"))
    mismatch = {m.name: m.value for m in outcome.measurements}["oracle_mismatch"]
    assert mismatch <= 1e-12
