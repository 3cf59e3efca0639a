"""The benchmark's workloads: generated configs, set-up, timed part, output checks.

Every workload drives steprouter through its public pipeline API
(`pipeline.stage_*`, `workers=1`) on a config generated here from the
workload seed; `load_config(..., environ={})` keeps stray STEPROUTER_*
variables out. The seed replaces `env.rng_seed` and nothing else.

Sizes are cut down from the stage defaults so that set-up (built three times
per run) plus several timed repetitions fit in about half a minute; README.md
says what each workload keeps and what it cuts.

Run as a script, this module builds one workload's set-up artifacts:
    python3 perfbench/workloads.py <workload> <seed> <out_dir> [extra_overrides_json]
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from steprouter import pipeline as P  # noqa: E402
from steprouter.features import FeatureMask  # noqa: E402
from steprouter.policy import SoftmaxPolicy  # noqa: E402
from steprouter.router import RouterNet  # noqa: E402

# DEFAULT_CONFIG with fewer demonstrations, routing seeds and router epochs;
# task count, split, costs and every model setting are kept. Evaluation runs
# one seed on each of 12 fixed tasks instead of many seeds on the 3-4 test
# tasks: rollout cost per step depends on the task (env.task_spec resamples a
# seed-dependent number of layouts), and 3-4 tasks made the rollout time vary
# by half between workload seeds.
DEFAULT_SIZE = [
    "policy.pert_seeds_per_task=2",
    "runtime.routing_seeds_per_task=3",
    "router.epochs=40",
    "eval.task_ids=[0,2,4,6,8,10,12,14,16,18,20,22]",
    "eval.eval_seeds_per_task=1",
]
# HIGH_RISK_OVERRIDES (the Pareto battery's operating point) with the routing
# set and epoch count cut so one training run takes a few seconds.
ROUTER_FIT_SIZE = [
    "policy.pert_seeds_per_task=2",
    "runtime.routing_seeds_per_task=5",
    "router.epochs=50",
]

SETUP_ORDER = ("gen-tasks", "collect", "train-bc", "build-pairs", "distill",
               "collect-routing", "train-router")
EVAL_FILES = tuple(f"eval_{v}.rljson" for v in P.VARIANT_ORDER)
MASK_FILES = tuple(f"eval_r2v_mask_{m.value}.rljson" for m in FeatureMask)


class CheckFailed(Exception):
    """An output of the timed part is missing, stale or wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: tuple[str, ...]
    setup_through: str | None  # last stage built during set-up
    outputs: tuple[str, ...]  # files the timed part must write
    digested: tuple[str, ...]  # files whose sha256 is recorded


WORKLOADS = {
    "default": Workload(
        "default",
        tuple(DEFAULT_SIZE),
        None,
        tuple(P.ARTIFACTS.values()) + EVAL_FILES
        + ("split.json", "distill_report.json", "router_report.csv",
           "summary.json", "metrics.csv", "pareto.csv"),
        ("summary.json", "metrics.csv", "router.bin"),
    ),
    "router-fit": Workload(
        "router-fit",
        tuple(P.HIGH_RISK_OVERRIDES) + tuple(ROUTER_FIT_SIZE),
        "collect-routing",
        ("router.bin", "router_report.csv"),
        ("router.bin", "router_report.csv"),
    ),
    "rollout": Workload(
        "rollout",
        tuple(DEFAULT_SIZE),
        "train-router",
        EVAL_FILES + MASK_FILES
        + ("summary.json", "metrics.csv", "pareto.csv", "ablate_features.csv"),
        ("summary.json", "metrics.csv", "ablate_features.csv"),
    ),
}


def config(workload: Workload, seed: int, extra=()) -> dict:
    overrides = [*workload.overrides, f"env.rng_seed={int(seed)}", *extra]
    return P.load_config(None, overrides, environ={})


# --- set-up ----------------------------------------------------------------------

_STAGES = {
    "gen-tasks": lambda cfg, wd: P.stage_gen_tasks(cfg, wd),
    "collect": lambda cfg, wd: P.stage_collect(cfg, wd, workers=1),
    "train-bc": lambda cfg, wd: P.stage_train_bc(cfg, wd),
    "build-pairs": lambda cfg, wd: P.stage_build_pairs(cfg, wd),
    "distill": lambda cfg, wd: P.stage_distill(cfg, wd),
    "collect-routing": lambda cfg, wd: P.stage_collect_routing(cfg, wd, workers=1),
    "train-router": lambda cfg, wd: P.stage_train_router(cfg, wd),
}


def run_stages(cfg: dict, workdir: Path, first: str, last: str) -> None:
    names = SETUP_ORDER[SETUP_ORDER.index(first): SETUP_ORDER.index(last) + 1]
    for name in names:
        _STAGES[name](cfg, workdir)


def build_setup(workload: Workload, seed: int, workdir: Path, extra=()) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = config(workload, seed, extra)
    if workload.setup_through is not None:
        run_stages(cfg, workdir, "gen-tasks", workload.setup_through)


# --- timed parts -------------------------------------------------------------------
# Each returns {stage metric: seconds}; the caller times the whole call.


def _timed(out: dict, key: str, fn) -> None:
    t0 = time.perf_counter()
    fn()
    out[key] = time.perf_counter() - t0


def timed_default(cfg: dict, wd: Path) -> dict:
    out: dict = {}
    _timed(out, "early_stages_s", lambda: run_stages(cfg, wd, "gen-tasks", "distill"))
    _timed(out, "collect_routing_s", lambda: P.stage_collect_routing(cfg, wd, workers=1))
    _timed(out, "train_router_s", lambda: P.stage_train_router(cfg, wd))
    _timed(out, "evaluate_s", lambda: P.stage_evaluate(cfg, wd, workers=1))
    return out


def timed_router_fit(cfg: dict, wd: Path) -> dict:
    out: dict = {}
    _timed(out, "train_router_s", lambda: P.stage_train_router(cfg, wd))
    return out


def _evaluate_all(cfg: dict, wd: Path) -> None:
    for variant in P.VARIANT_ORDER:
        P.stage_rollout(cfg, wd, variant, workers=1)
    P.stage_evaluate(cfg, wd, workers=1)


def timed_rollout(cfg: dict, wd: Path) -> dict:
    out: dict = {}
    _timed(out, "evaluate_s", lambda: _evaluate_all(cfg, wd))
    _timed(out, "ablate_s", lambda: P.stage_ablate(cfg, wd, kind="features", workers=1))
    return out


TIMED = {"default": timed_default, "router-fit": timed_router_fit, "rollout": timed_rollout}


# --- output checks ------------------------------------------------------------------


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_outputs(workload: Workload, cfg: dict, wd: Path, marker_ns: int) -> dict:
    """Reload and check what the timed part wrote; return the input sizes.

    `marker_ns` is the mtime of a file touched just before the timed part, so
    an output older than it was reused, not written (the guard against
    `stage_evaluate` silently reusing an existing eval_<variant>.rljson).
    """
    for name in workload.outputs:
        path = wd / name
        _require(path.exists(), f"{name} was not written")
        _require(path.stat().st_mtime_ns >= marker_ns,
                 f"{name} predates the timed part (stale reuse)")

    h = P.config_hash(cfg)
    sizes: dict = {"tasks": cfg["env"]["task_count"]}
    # the package's own loaders re-validate every record: episodes recount
    # llm_calls and check budgets, routing rows check labels and seed ids
    routing = P.load_routing_examples(wd / "routing.rljson")
    sizes["routing_rows"] = len(routing)
    sizes["train_rows"] = sum(1 for ex in routing if ex.split == "train")
    if "router.bin" in workload.outputs:
        _check_router(cfg, wd, h)
        sizes["router_epochs"] = cfg["router"]["epochs"]
    if workload.name == "default":
        SoftmaxPolicy.load(wd / "policy_bc.bin")
        SoftmaxPolicy.load(wd / "policy_distilled.bin")
        P.load_pairs(wd / "pairs.rljson")
        sizes["demo_episodes"] = len(P.load_episodes(wd / "episodes.rljson"))
    if "summary.json" in workload.outputs:
        sizes.update(_check_evaluation(workload, cfg, wd))
    return sizes


def _check_router(cfg: dict, wd: Path, h: str) -> None:
    net, header = RouterNet.load(wd / "router.bin")
    _require(header.get("stage") == "train-router", "router.bin has the wrong stage tag")
    _require(header.get("config_hash") == h, "router.bin was built under another config")
    _require(0.0 <= net.tau_route <= 1.0, "tau_route outside [0, 1]")
    _require(net.temperature > 0.0, "non-positive router temperature")
    report = _csv_rows(wd / "router_report.csv")
    _require(len(report) == cfg["router"]["epochs"], "router_report.csv misses epochs")


def _check_evaluation(workload: Workload, cfg: dict, wd: Path) -> dict:
    n_grid = len(P.eval_grid(cfg, wd))
    steps = 0
    routed = 0
    files = EVAL_FILES + (MASK_FILES if workload.name == "rollout" else ())
    for name in files:
        episodes = P.load_episodes(wd / name)
        _require(len(episodes) == n_grid, f"{name} holds {len(episodes)} of {n_grid} episodes")
        steps += sum(len(ep.steps) for ep in episodes)
        routed += len(episodes)

    with open(wd / "summary.json") as fh:
        summary = json.load(fh)
    variants = summary["variants"]
    _require(sorted(variants) == sorted(P.VARIANT_ORDER), "summary.json lacks a variant")
    for name, m in variants.items():
        _require(m["n_episodes"] == n_grid, f"{name}: n_episodes != grid size")
    _require(variants["slm"]["llm_rate"] == 0.0, "slm variant used the teacher")
    _require(variants["llm"]["llm_rate"] == 1.0, "llm variant skipped the teacher")
    header = P.read_header(wd / "router.bin")
    for key in ("tau_route", "tau_h", "theta_v", "temperature"):
        _require(summary["thresholds"][key] == header[key],
                 f"summary.json {key} differs from router.bin")
    _require([r["variant"] for r in _csv_rows(wd / "metrics.csv")] == list(P.VARIANT_ORDER),
             "metrics.csv rows differ from the variants")
    if workload.name == "rollout":
        rows = _csv_rows(wd / "ablate_features.csv")
        _require([r["mask"] for r in rows] == [m.value for m in FeatureMask],
                 "ablate_features.csv rows differ from the masks")
        _require(all(int(r["n_episodes"]) == n_grid for r in rows),
                 "an ablation row has the wrong episode count")
    return {"episodes_per_variant": n_grid, "routed_episodes": routed, "routed_steps": steps}


def digests(workload: Workload, wd: Path) -> dict:
    return {name: sha256(wd / name) for name in workload.digested}


# --- quality (after timing; deterministic per seed) ----------------------------------


def quality(workload: Workload, wd: Path) -> dict:
    net, _ = RouterNet.load(wd / "router.bin")
    valid = [ex for ex in P.load_routing_examples(wd / "routing.rljson") if ex.split == "valid"]
    x = np.array([ex.features for ex in valid], dtype=float)
    y = np.array([ex.label for ex in valid], dtype=float)
    out = {"router_val_brier": float(np.mean((net.predict(x) - y) ** 2))}
    if "summary.json" in workload.outputs:
        with open(wd / "summary.json") as fh:
            r2v = json.load(fh)["variants"]["r2v"]
        out["r2v_success_rate"] = r2v["success_rate"]
        out["r2v_llm_rate"] = r2v["llm_rate"]
    return out


if __name__ == "__main__":
    name, seed, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    extra = json.loads(sys.argv[4]) if len(sys.argv) > 4 else []
    build_setup(WORKLOADS[name], seed, out_dir, extra)
