"""Resource bounds of the bundled checks."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from relqft import runner, scenarios
from relqft.config import DEFAULT_CONFIG


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
