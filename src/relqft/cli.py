"""Command-line entry point.

Verbs:
  verify <target> [...]   run one or more suites or named checks
  report                  run the suites configured in the scenario
  list-checks             print the check registry
  demo vacuum-orthogonality
                          print the vacuum-weight scan as a worked example

Each verb accepts only the flags it reads.  Exit codes: 0 when every
executed check verified or was vacuous, 1 when any check failed or ended
without a certificate, 2 on a config error or a flag the verb does not
take.
"""

from __future__ import annotations

import argparse
import sys

from relqft import frames, runner
from relqft.config import (ConfigError, DEFAULT_CONFIG, load_config,
                           parse_tol_flags, with_overrides)
from relqft.scenarios import CHECKS


def build_parser() -> argparse.ArgumentParser:
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", metavar="PATH", help="scenario config (JSON)")
    run.add_argument("--tol", action="append", default=[], metavar="KEY=VAL",
                     help="override one tolerance")
    run.add_argument("--seed", type=int, help="override the run seed")
    run.add_argument("--format", choices=("text", "json"), default="text",
                     help="report format (default: text)")

    parser = argparse.ArgumentParser(
        prog="relqft",
        description="Finite-model checks for frame-relative observables.")
    verbs = parser.add_subparsers(dest="verb", required=True)

    verify = verbs.add_parser("verify", parents=[run],
                              help="run the named suites or checks")
    verify.add_argument("targets", nargs="+", metavar="target")

    verbs.add_parser("report", parents=[run],
                     help="run the configured suites")
    verbs.add_parser("list-checks", help="print the check registry")

    demo = verbs.add_parser("demo", help="worked examples")
    demo.add_argument("example", choices=("vacuum-orthogonality",))
    return parser


def _cmd_run(args, targets) -> int:
    """Run the targets, or the config's suites when None, and print the
    report."""
    cfg = load_config(args.config) if args.config else DEFAULT_CONFIG
    overrides = parse_tol_flags(args.tol) if args.tol else None
    cfg = with_overrides(cfg, seed=args.seed, tolerances=overrides)
    report = runner.run(cfg, targets=targets)
    print(runner.emit(report, args.format))
    return report.exit_code


def _cmd_list_checks() -> int:
    rows = [("check", "suite", "anchor", "verifies")]
    for name, check in CHECKS.items():
        rows.append((name, check.suite, check.anchor, check.summary))
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    for row in rows:
        lead = "  ".join(row[i].ljust(widths[i]) for i in range(3))
        print(f"{lead}  {row[3]}")
    return 0


def _cmd_demo_vacuum_orthogonality() -> int:
    """Weight of one lattice site under an invariant preparation: exactly
    1/N^2 (``frames.vacuum_weight_scan``)."""
    rows = frames.vacuum_weight_scan()
    print("Born weight of the site (0,0) under the maximally mixed")
    print("preparation of a boost-uniform frame, against 1/N^2:")
    print()
    print(f"{'N':>3}  {'weight':>22}  {'1/N^2':>22}  {'error':>9}")
    worst = 0.0
    for N, weight in rows:
        expected = 1.0 / (N * N)
        error = abs(weight - expected)
        worst = max(worst, error)
        print(f"{N:>3}  {weight:>22.16f}  {expected:>22.16f}  {error:>9.1e}")
    print()
    print(f"largest deviation: {worst:.1e}")
    return 0 if worst <= 1e-12 else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "verify":
            return _cmd_run(args, args.targets)
        if args.verb == "report":
            return _cmd_run(args, None)
        if args.verb == "list-checks":
            return _cmd_list_checks()
        if args.verb == "demo":
            return _cmd_demo_vacuum_orthogonality()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled verb {args.verb!r}")


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
