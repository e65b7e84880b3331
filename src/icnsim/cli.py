"""Command line front door: run scenarios, benchmark publishing, validate.

Exit codes: 0 success, 2 validation error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import sys

from .harness import publish_bench, run_scenario
from .metrics import summary_lines
from .scenario import ScenarioError, load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="icnsim",
                                description="integrated ICN/CDN slice simulator")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario and write the CSV suite")
    run.add_argument("scenario", help="scenario JSON file")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--mode", choices=["icn", "cdn-only"], default=None,
                     help="override the delivery mode")
    run.add_argument("--set", dest="sets", action="append", default=[],
                     metavar="KEY=VALUE", help="override a scenario field (repeatable)")

    bench = sub.add_parser("publish-bench",
                           help="measure CDN-to-ICN publish time over content sizes")
    bench.add_argument("scenario", help="scenario JSON file")
    bench.add_argument("--sizes", required=True,
                       help="comma-separated content sizes in MiB, e.g. 1,2,4,8")
    bench.add_argument("--out", required=True, help="output directory")
    bench.add_argument("--jobs", type=int, default=1,
                       help="run sizes as independent parallel simulations")
    bench.add_argument("--set", dest="sets", action="append", default=[],
                       metavar="KEY=VALUE")

    val = sub.add_parser("validate", help="statically check a scenario file")
    val.add_argument("scenario", help="scenario JSON file")
    val.add_argument("--set", dest="sets", action="append", default=[],
                     metavar="KEY=VALUE")
    return p


def _cmd_run(args) -> int:
    sets = list(args.sets)
    if args.seed is not None:
        sets.append("seed=%d" % args.seed)
    if args.mode is not None:
        sets.append("mode=%s" % args.mode)
    try:
        run = run_scenario(args.scenario, args.out, sets)
    except ScenarioError as e:
        for d in e.diagnostics:
            print(d.as_json(), file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as e:  # runtime failure; partial outputs already removed
        print("error: %s" % e, file=sys.stderr)
        return EXIT_RUNTIME
    for line in summary_lines(run.scenario.name, run.scenario.seed,
                              run.scenario.mode, run.final_ms, run.records,
                              run.hosts):
        print(line)
    return EXIT_OK


def _cmd_bench(args) -> int:
    try:
        sizes = [float(s) for s in args.sizes.split(",") if s.strip() != ""]
    except ValueError:
        print("error: --sizes must be comma-separated numbers", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        rows = publish_bench(args.scenario, sizes, args.out, jobs=max(1, args.jobs),
                             sets=list(args.sets))
    except ScenarioError as e:
        for d in e.diagnostics:
            print(d.as_json(), file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_RUNTIME
    print("size_bytes,publish_ms")
    for size, ms in rows:
        print("%d,%.6f" % (size, ms))
    return EXIT_OK


def _cmd_validate(args) -> int:
    _scenario, diags = load_scenario(args.scenario, list(args.sets))
    for d in diags:
        print(d.as_json())
    return EXIT_OK if not diags else EXIT_VALIDATION


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "publish-bench":
        return _cmd_bench(args)
    return _cmd_validate(args)


if __name__ == "__main__":
    raise SystemExit(main())
