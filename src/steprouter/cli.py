"""Command-line entry point.

One subcommand per row of `pipeline.STAGES`, in stage order; every stage
reads one structured config file (JSON) with flag and environment overrides,
and writes artifacts whose headers hash the config values and inputs they
were built from into the working directory.

Exit codes: 0 success, 2 config error, 3 stage artifact missing, unreadable
or stale (built from other inputs than the current config gives; rerun the
stage that produced it), 4 theory-suite failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# one BLAS thread per process unless the caller sets one: on a 2-core box a
# second thread nearly doubled train-router's CPU time for ~5 % less wall time
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import pipeline, theory
from .domain import ConfigError, RecordFormatError, StageOrderError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE_ORDER = 3
EXIT_THEORY = 4

# the option that sets a stage's parameter
PARAM_FLAGS = {"variant": "--variant", "kind": "--grid"}


def worker_count(text: str) -> int:
    """A `--workers` value: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steprouter",
        description="Risk-calibrated step routing pipeline on synthetic perturbed tasks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for row in pipeline.STAGES:
        p = sub.add_parser(row.name)
        p.add_argument("--workdir", default="run", help="artifact directory")
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="BLOCK.KEY=VALUE", help="config override (repeatable)")
        p.add_argument("--workers", type=worker_count, default=os.cpu_count() or 1,
                       help="processes for collect-routing and ablate; other stages ignore it")
        p.set_defaults(value=None)
        if row.param:
            p.add_argument(PARAM_FLAGS[row.param], dest="value", required=True,
                           choices=row.over)

    p = sub.add_parser("verify-theory",
                       help="run the property/oracle suite and print pass/fail lines")
    slow = ", ".join(row.name for row in theory.CRITERIA if row.slow)
    p.add_argument("--skip-slow", action="store_true", help=f"skip the slow checks ({slow})")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify-theory":
        all_passed = True
        for row, passed, detail in theory.run_all(include_slow=not args.skip_slow):
            print(f"{'PASS' if passed else 'FAIL'}  {row.name}: {detail}", flush=True)
            all_passed = all_passed and passed
        return EXIT_OK if all_passed else EXIT_THEORY

    try:
        cfg = pipeline.load_config(args.config, overrides=args.overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        out = pipeline.run_stage(cfg, workdir, args.command, args.value, args.workers)
    except StageOrderError as exc:
        print(f"stage-order error: {exc}", file=sys.stderr)
        return EXIT_STAGE_ORDER
    except RecordFormatError as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return EXIT_STAGE_ORDER
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(out)
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
