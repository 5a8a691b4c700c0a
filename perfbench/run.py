"""Benchmark of the relqft workbench: measures one workload per run.

One run measures one workload for ``--seconds`` seconds in a closed loop
with a single client: each invocation is a fresh process, started only
after the previous one exited.  Run it from the repository root:

    python3 perfbench/run.py --workload no-net --seed 20260819 --seconds 35 --trace 0

``--trace 0`` reports the end-to-end metrics declared in BENCHMARK.json
(wall seconds, set-up seconds and peak RSS of one invocation, as medians
over the run).  ``--trace 1`` reports the per-layer metrics: it times
untraced invocations for the first half of the run and invocations under
``tracer.py`` for the second half, and takes the layer numbers from the
traced ones.

Every invocation is judged by an oracle: each check must exit with its
expected verdict, the process must exit 0, and each check's record must
be identical to the one the first invocation of the run produced (the
canonical form drops the per-check ``seconds``).  ``failed`` counts
checks that missed, against ``attempted``; their ratio is the check
failure fraction.

The last line of standard output is the result object.  The line before
it records the environment: CPU, Python, numpy, BLAS and its thread pin,
and the 1-minute load average around each invocation, flagged when it
exceeded the processor count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

DEFAULT_SEED = 20260819
#: A second seed at which every workload is known to verify.
SECOND_SEED = 7
#: No single run may take longer than this, set-up included.
RUN_LIMIT_S = 170.0
#: Fewest set-up probes whose median is reported.
SETUP_PROBES = 7
NPROC = len(os.sched_getaffinity(0))
#: BLAS threads for every child.  Canonical report bytes depend on the
#: thread count, so the pin is fixed rather than left to the machine.
BLAS_THREADS = min(NPROC, 2)

SETUP_PROBE = """\
import sys
from relqft import runner
from relqft.config import DEFAULT_CONFIG, load_config
runner.validate_semantics(load_config(sys.argv[1]) if len(sys.argv) > 1
                          else DEFAULT_CONFIG)
"""


@dataclass(frozen=True)
class Workload:
    target: str  # "cli" runs relqft.cli, "net" runs netload.py
    args: tuple
    config: str | None
    expected: dict  # check name -> verdict

    def program_args(self, seed: int) -> list[str]:
        if self.target == "net":
            return ["--seed", str(seed)]
        config = ["--config", self.config] if self.config else []
        return [*self.args, *config, "--seed", str(seed), "--format", "json"]

    def command(self, seed: int, traced: bool) -> list[str]:
        if traced:
            head = [str(BENCH / "tracer.py"), self.target]
        elif self.target == "cli":
            head = ["-m", "relqft.cli"]
        else:
            head = [str(BENCH / "netload.py")]
        return [sys.executable, *head, *self.program_args(seed)]


def _verified(*names: str) -> dict:
    return dict.fromkeys(names, "verified")


WORKLOADS = {
    # Twelve checks at N = 5: thousands of small Born measures, frames
    # built and used a few times, the joint-state search.
    "no-net": Workload(
        "cli", ("verify", "covariance", "channels", "causality", "wightman",
                "vacuum", "irreducibility"), None,
        _verified("relational-covariance", "field-transformation",
                  "disintegration-covariance", "restriction-duality",
                  "channel-laws", "microcausality-implication",
                  "intrinsic-causality-pipeline", "wightman-suite",
                  "spectral-condition", "vacuum-orthogonality",
                  "vacuum-polarization", "irreducibility")),
    # The config-driven checks at N = 7 that take seconds, not minutes:
    # regular-representation frames of 147 effects of 147 x 147.
    "n7": Workload(
        "cli", ("verify", "relational-covariance", "disintegration-covariance",
                "restriction-duality", "channel-laws", "vacuum"),
        "perfbench/n7.json",
        _verified("relational-covariance", "disintegration-covariance",
                  "restriction-duality", "channel-laws",
                  "vacuum-orthogonality", "vacuum-polarization")),
    # Net axioms on four single-site local algebras: double commutants.
    "net": Workload(
        "net", (), None,
        {**_verified("net-isotony", "net-covariance", "net-causality"),
         "net-time-slice": "vacuous"}),
}


# ---------------------------------------------------------------------------
# one invocation

@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str
    stderr: str
    load_before: float
    load_after: float

    def log(self, traced: bool) -> dict:
        return {"traced": traced, "wall_s": self.wall_s, "cpu_s": self.cpu_s,
                "peak_rss_mb": self.peak_rss_mb, "exit_code": self.exit_code,
                "load_1m_before": self.load_before,
                "load_1m_after": self.load_after,
                "load_flagged": max(self.load_before, self.load_after) > NPROC}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def invoke(argv: list[str], limit_s: float) -> Invocation:
    """Run one child to completion; wall, CPU and peak RSS come from its
    own resource usage.  The child is killed after ``limit_s`` seconds."""
    load_before = os.getloadavg()[0]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    timer = threading.Timer(max(limit_s, 1.0), proc.kill)
    timer.start()
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            out = pool.submit(proc.stdout.read)
            err = pool.submit(proc.stderr.read)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            stdout, stderr = out.result(), err.result()
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return Invocation(wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, proc.returncode,
                      stdout.decode("utf-8", "replace"),
                      stderr.decode("utf-8", "replace"),
                      load_before, os.getloadavg()[0])


# ---------------------------------------------------------------------------
# correctness oracle

def canonical_bytes(report: dict) -> bytes:
    """The report with per-check ``seconds`` dropped and keys sorted: for
    the CLI this is ``RunReport.canonical_bytes``."""
    stripped = dict(report)
    stripped["checks"] = [{k: v for k, v in check.items() if k != "seconds"}
                          for check in report["checks"]]
    return json.dumps(stripped, sort_keys=True).encode("utf-8")


def parse_output(inv: Invocation, traced: bool):
    """(report, trace) from a child's standard output; (None, None) when
    the output is not a report."""
    try:
        doc = json.loads(inv.stdout)
        if traced:
            return json.loads(doc["stdout"]), doc["trace"]
        return doc, None
    except (json.JSONDecodeError, KeyError, TypeError):
        return None, None


class Oracle:
    """Expected verdicts, exit codes and reproducibility over one set."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._first = None

    def judge(self, inv: Invocation, report: dict | None) -> None:
        self.attempted += len(self.expected)
        if inv.exit_code != 0 or report is None:
            self.failed += len(self.expected)
            self.problems.append(f"exit code {inv.exit_code}: "
                                 f"{inv.stderr.strip()[-400:]}")
            return
        checks = {c["name"]: c for c in report["checks"]}
        records = {name: canonical_bytes({"checks": [c]})
                   for name, c in checks.items()}
        whole = canonical_bytes(report)
        if self._first is None:
            self._first = (records, whole)
        first_records, first_whole = self._first
        for name, verdict in self.expected.items():
            check = checks.get(name)
            if check is None or check["verdict"] != verdict:
                self.failed += 1
                self.problems.append(f"{name}: verdict "
                                     f"{check and check['verdict']!r}, "
                                     f"expected {verdict!r}")
            elif records[name] != first_records.get(name):
                self.failed += 1
                self.problems.append(f"{name}: record differs from the "
                                     "first run of the set")
        if set(records) != set(self.expected):
            self.problems.append(f"checks run {sorted(records)} differ "
                                 f"from {sorted(self.expected)}")
        elif whole != first_whole:
            self.problems.append("canonical bytes differ from the first run")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


# ---------------------------------------------------------------------------
# measurement

class Run:
    """State of one benchmark run: deadline, oracle and invocation log."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.oracle = Oracle(workload.expected)
        self.log = []
        self._start = time.perf_counter()

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self._start)

    def setup_probe(self) -> float:
        """Wall seconds of a process that imports relqft, loads the
        workload's config and validates it."""
        config = [self.workload.config] if self.workload.config else []
        inv = invoke([sys.executable, "-c", SETUP_PROBE, *config],
                     self.remaining())
        if inv.exit_code != 0:
            raise SystemExit(f"set-up probe failed: {inv.stderr}")
        return inv.wall_s

    def loop(self, budget_s: float, traced: bool, setup=None,
             at_least: int = 1) -> list:
        """Closed loop: invoke until the next invocation would end past
        the budget, but at least ``at_least`` times.  With a ``setup``
        list, two set-up probes run before each invocation, so that the
        probes sample the whole run.  Returns (invocation, report, trace)
        triples."""
        start = time.perf_counter()
        done = []
        while True:
            if setup is not None:
                setup += [self.setup_probe(), self.setup_probe()]
            inv = invoke(self.workload.command(self.seed, traced),
                         self.remaining())
            report, trace = parse_output(inv, traced)
            self.oracle.judge(inv, report)
            self.log.append(inv.log(traced))
            done.append((inv, report, trace))
            typical = statistics.median(d[0].wall_s for d in done)
            if (len(done) >= at_least
                    and time.perf_counter() - start + typical > budget_s):
                return done


def end_to_end(run: Run, seconds: float) -> dict:
    run.setup_probe()  # warm-up, unmeasured: may compile bytecode, fill caches
    setup = []
    # two invocations at least, so that one slow phase of the machine is
    # not the whole sample
    done = run.loop(seconds, traced=False, setup=setup, at_least=2)
    while len(setup) < SETUP_PROBES:
        setup.append(run.setup_probe())
    return {"wall_s": statistics.median(d[0].wall_s for d in done),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(d[0].peak_rss_mb for d in done)}


def _medians(dicts) -> dict:
    """Per-key low median, so that a count stays a measured count."""
    keys = {k for d in dicts for k in d}
    return {k: statistics.median_low(d.get(k, 0) for d in dicts)
            for k in keys}


def per_layer(run: Run, seconds: float) -> dict:
    plain = run.loop(seconds / 2, traced=False)
    traced = run.loop(seconds / 2, traced=True)
    out = _medians([t for _, _, t in traced if t is not None])
    out.update({f"scenarios.{name}.s": value for name, value in _medians(
        [{c["name"]: c["seconds"] for c in r["checks"] if "seconds" in c}
         for _, r, _ in plain if r is not None]).items()})
    wall = statistics.median(inv.wall_s for inv, _, _ in plain)
    out["runner.cpu_s"] = statistics.median(inv.cpu_s for inv, _, _ in plain)
    out["runner.trace_overhead_s"] = (
        statistics.median(inv.wall_s for inv, _, _ in traced) - wall)
    return out


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": NPROC, "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "blas_threads": BLAS_THREADS}


def declared_metrics(trace: bool) -> dict:
    """name -> unit for the metrics BENCHMARK.json declares."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def shape_metrics(values: dict, declared: dict) -> dict:
    """Every declared metric, with its unit.  A scenario that did not run
    in this workload reads 0; any other gap is an error."""
    extra = sorted(set(values) - set(declared))
    missing = sorted(n for n in set(declared) - set(values)
                     if not n.startswith("scenarios."))
    if extra or missing:
        raise SystemExit(f"metrics differ from BENCHMARK.json: undeclared "
                         f"{extra}, not measured {missing}")
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in declared.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "relqft" / "cli.py").is_file():
        print(f"no relqft sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    declared = declared_metrics(bool(args.trace))
    run = Run(WORKLOADS[args.workload], args.seed)
    measure = per_layer if args.trace else end_to_end
    metrics = shape_metrics(measure(run, args.seconds), declared)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "environment": environment(), "invocations": run.log,
                      "problems": run.oracle.problems}))
    print(json.dumps({"correct": run.oracle.correct,
                      "attempted": run.oracle.attempted,
                      "failed": run.oracle.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
