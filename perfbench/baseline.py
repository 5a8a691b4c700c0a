"""Re-measure ``perfbench/baseline.json``: for every workload, end-to-end
metrics at the default and the second seed and one traced run at the
default seed, each with the environment it ran in.

    python3 perfbench/baseline.py

Takes about nine runs of BENCHMARK.json's ``run_seconds`` plus set-up.
Run it on an idle machine.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import BENCH, DEFAULT_SEED, ROOT, SECOND_SEED, WORKLOADS


def measure(workload: str, seed: int, trace: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    context, result = (json.loads(line)
                       for line in proc.stdout.splitlines()[-2:])
    return {"seed": seed, "trace": trace, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "check_failure_frac": result["failed"] / result["attempted"],
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()},
            "environment": context["environment"],
            "invocations": context["invocations"],
            "problems": context["problems"]}


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    runs = {name: [measure(name, DEFAULT_SEED, 0, seconds),
                   measure(name, SECOND_SEED, 0, seconds),
                   measure(name, DEFAULT_SEED, 1, seconds)]
            for name in WORKLOADS}
    with open(BENCH / "baseline.json", "w", encoding="utf-8") as fh:
        json.dump({"run_seconds": seconds, "workloads": runs}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    return 0 if all(r["correct"] for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
