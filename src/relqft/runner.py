"""Check resolution, seeded execution, and report serialization.

A run takes a scenario config and a list of targets (suite names or
individual check names), executes each resolved check exactly once in
registry order, and collects the outcomes into a RunReport.  Every check
draws from its own counter-based generator keyed by the run seed and the
check name, so adding, removing, or reordering checks never perturbs the
randomness any other check sees.  Byte-identical reports require the same
seed, the same config and the same BLAS thread count: a different thread
count changes the summation order inside BLAS and with it the last digits
of some residuals.

Serialized reports carry a schema version.  The JSON form round-trips
losslessly; each check record holds the name, anchor, verdict, details,
and the list of measurements, each with its name, value, bound and sense
(``<=``, ``>=``, ``==``).  The text form is a fixed-width table, one row
per check: the verdict, the deciding measurement with its value, sense and
bound, and margin, and the seconds.  Timings are measured and reported but excluded
from the canonical bytes used for determinism comparisons.
"""

from __future__ import annotations

import json
import math
import time
import zlib
from dataclasses import dataclass

import numpy as np

from relqft.config import ConfigError, ScenarioConfig
from relqft.operators import SizeError
from relqft.scenarios import CHECKS, FRAME_BUILDERS, SUITES, build_system
from relqft.tolerances import Measurement

REPORT_SCHEMA_VERSION = 2

_TEXT_COLUMNS = ("check", "verdict", "measurement", "value", "bound",
                 "margin", "seconds")


def check_rng(seed: int, name: str) -> np.random.Generator:
    """Independent stream per check: counter-based, keyed by run seed and
    the hashed check name."""
    return np.random.Generator(
        np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF,
                              zlib.crc32(name.encode("utf-8"))]))


def resolve_checks(targets) -> list[str]:
    """Expand suite names and literal check names into a deduplicated list
    in registry order."""
    requested = set()
    for target in targets:
        if target in SUITES:
            requested.update(SUITES[target])
        elif target in CHECKS:
            requested.add(target)
        else:
            known = sorted(set(SUITES) | set(CHECKS))
            raise ConfigError(
                f"unknown suite or check {target!r} (known: {', '.join(known)})")
    return [name for name in CHECKS if name in requested]


def validate_semantics(cfg: ScenarioConfig) -> None:
    """Reject configs that parse but cannot build a model, before any
    check runs."""
    for name in cfg.frames:
        if name not in FRAME_BUILDERS:
            raise ConfigError(
                f"unknown frame {name!r} (known: "
                f"{', '.join(sorted(FRAME_BUILDERS))})")
    try:
        probe = np.random.Generator(np.random.Philox(key=[0, 0]))
        build_system(cfg, probe)
    except ValueError as exc:
        raise ConfigError(f"config cannot build a system model: {exc}") from exc


@dataclass
class RunReport:
    """Outcomes of one seeded run, plus the config that produced them."""

    config: ScenarioConfig
    seed: int
    outcomes: list

    @property
    def exit_code(self) -> int:
        bad = {"failed", "no-certificate"}
        return 1 if any(o.verdict in bad for o in self.outcomes) else 0

    def to_dict(self, include_timing: bool = True) -> dict:
        return {
            "schema": REPORT_SCHEMA_VERSION,
            "seed": self.seed,
            "config": self.config.to_dict(),
            "checks": [o.to_record(include_timing) for o in self.outcomes],
        }

    def canonical_bytes(self) -> bytes:
        """Deterministic serialization: timings excluded, keys sorted."""
        return json.dumps(self.to_dict(include_timing=False),
                          sort_keys=True).encode("utf-8")


def run(cfg: ScenarioConfig, targets=None) -> RunReport:
    """Execute the resolved checks and collect a report.

    ``targets`` defaults to the config's suite list.  An empty target list
    resolves to no checks and yields an empty, passing report.  A check
    that raises ``operators.SizeError``, for an array over a size cap or a
    shape mismatch, ends the run with a ConfigError naming the check.
    """
    validate_semantics(cfg)
    names = resolve_checks(cfg.suites if targets is None else targets)
    outcomes = []
    for name in names:
        start = time.perf_counter()
        try:
            outcome = CHECKS[name].fn(cfg, check_rng(cfg.seed, name))
        except SizeError as exc:
            raise ConfigError(f"check {name!r}: {exc}") from exc
        outcome.seconds = time.perf_counter() - start
        outcome.name, outcome.anchor = name, CHECKS[name].anchor
        outcomes.append(outcome)
    return RunReport(cfg, cfg.seed, outcomes)


def _deciding(measurements) -> Measurement:
    """The most violated measurement when any fails, else the inequality
    with the smallest margin relative to |bound|, real-valued ones ahead of
    integer counts (any measurement when all are equalities)."""
    def relative(m: Measurement) -> float:
        r = m.margin / abs(m.bound) if m.bound else m.margin
        return -math.inf if math.isnan(r) else r
    failing = [m for m in measurements if not m.holds]
    inequalities = [m for m in measurements if m.sense != "=="]
    real = [m for m in inequalities if not isinstance(m.value, (int, np.integer))]
    return min(failing or real or inequalities or measurements, key=relative)


def _cell(value) -> str:
    return f"{value:.3e}" if isinstance(value, float) else str(value).lower()


def render_text(report: RunReport) -> str:
    """Fixed-width table, one row per check; header only when empty."""
    rows = [list(_TEXT_COLUMNS)]
    for o in report.outcomes:
        m = _deciding(o.measurements)
        rows.append([o.name, o.verdict, m.name, _cell(m.value),
                     m.sense + _cell(m.bound), _cell(m.margin),
                     f"{o.seconds:.3f}"])
    widths = [max(len(row[i]) for row in rows) for i in range(len(_TEXT_COLUMNS))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in rows]
    return "\n".join(lines)


def render_json(report: RunReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


def emit(report: RunReport, fmt: str = "text") -> str:
    if fmt == "text":
        return render_text(report)
    if fmt == "json":
        return render_json(report)
    raise ConfigError(f"unknown format {fmt!r} (known: text, json)")


def load_report(text: str) -> dict:
    """Parse a JSON report back into its dictionary form, checking the
    schema version."""
    data = json.loads(text)
    if data.get("schema") != REPORT_SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported report schema {data.get('schema')!r} "
            f"(expected {REPORT_SCHEMA_VERSION})")
    return data
