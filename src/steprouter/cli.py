"""Command-line entry point.

Subcommands mirror the pipeline stage order; every stage reads one structured
config file (JSON) with flag and environment overrides, and writes artifacts
tagged with the config hash into the working directory.

Exit codes: 0 success, 2 config error, 3 missing or unreadable stage artifact
(rerun the stage that produced it), 4 theory-suite failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import pipeline, theory
from .domain import ConfigError, RecordFormatError, StageOrderError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE_ORDER = 3
EXIT_THEORY = 4

STAGE_COMMANDS = {
    "gen-tasks": lambda cfg, wd, args: pipeline.stage_gen_tasks(cfg, wd),
    "collect": lambda cfg, wd, args: pipeline.stage_collect(cfg, wd, args.workers),
    "train-bc": lambda cfg, wd, args: pipeline.stage_train_bc(cfg, wd),
    "build-pairs": lambda cfg, wd, args: pipeline.stage_build_pairs(cfg, wd),
    "distill": lambda cfg, wd, args: pipeline.stage_distill(cfg, wd),
    "collect-routing": lambda cfg, wd, args: pipeline.stage_collect_routing(
        cfg, wd, args.workers
    ),
    "train-router": lambda cfg, wd, args: pipeline.stage_train_router(cfg, wd),
    "rollout": lambda cfg, wd, args: pipeline.stage_rollout(
        cfg, wd, args.variant, workers=args.workers, out_name=args.out
    ),
    "evaluate": lambda cfg, wd, args: pipeline.stage_evaluate(cfg, wd, args.workers),
    "ablate": lambda cfg, wd, args: pipeline.stage_ablate(
        cfg, wd, args.grid, workers=args.workers
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steprouter",
        description="Risk-calibrated step routing pipeline on synthetic perturbed tasks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--workdir", default="run", help="artifact directory")
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="BLOCK.KEY=VALUE",
            help="config override (repeatable)",
        )
        p.add_argument(
            "--workers",
            type=int,
            default=os.cpu_count() or 1,
            help="parallel workers for rollout-style stages",
        )

    for name in STAGE_COMMANDS:
        p = sub.add_parser(name)
        common(p)
        if name == "rollout":
            p.add_argument("--variant", required=True,
                           choices=pipeline.VARIANT_ORDER)
            p.add_argument("--budget", type=int, default=None,
                           help="per-episode LLM call cap (overrides config)")
            p.add_argument("--tasks", default=None,
                           help="comma-separated task ids (default: test split)")
            p.add_argument("--seeds", type=int, default=None,
                           help="perturbation seeds per task (overrides config)")
            p.add_argument("--out", default=None,
                           help="output file name (default eval_<variant>.rljson)")
        if name == "ablate":
            p.add_argument("--grid", required=True,
                           choices=["features", "cvar", "lambda"])

    p = sub.add_parser("verify-theory",
                       help="run the property/oracle suite and print pass/fail lines")
    p.add_argument("--skip-slow", action="store_true",
                   help="skip the trained-model checks (calibration, transfer)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify-theory":
        checks = theory.run_all(include_slow=not args.skip_slow)
        for check in checks:
            print(check.line())
        return EXIT_OK if all(c.passed for c in checks) else EXIT_THEORY

    overrides = list(args.overrides)
    if args.command == "rollout":
        if args.budget is not None:
            overrides.append(f"runtime.budget_limit={args.budget}")
        if args.seeds is not None:
            overrides.append(f"eval.eval_seeds_per_task={args.seeds}")
        if args.tasks is not None:
            overrides.append(f"eval.task_ids=[{args.tasks}]")
    try:
        cfg = pipeline.load_config(args.config, overrides=overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        out = STAGE_COMMANDS[args.command](cfg, workdir, args)
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
