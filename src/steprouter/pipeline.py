"""Pipeline orchestration: config handling, the stage table, stage functions.

`STAGES` lists the stages in run order (teacher collection -> BC -> pairs ->
recovery distillation -> routing data -> router -> rollouts -> evaluation)
with the artifacts and config keys each reads. Every artifact header records
`inputs_hash`, a hash of what its stage read, so a stage stops on an input
that is missing or was built from other inputs than the config now gives.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .distill import DistillConfig, PreferencePair, build_preferences, train_recovery
from .domain import (
    ConfigError,
    CostSpec,
    CVaRSpec,
    EnvConfig,
    StageOrderError,
    decode_records,
    derive_splits,
    episode_from_dict,
    episode_to_dict,
    read_header,
    routing_example_from_dict,
    routing_example_to_dict,
    write_csv,
    write_json,
    write_rljson,
    _context_from_dict,
    _context_to_dict,
)
from .env import HazardChainEnv
from .evaluation import RunMetrics, compute_metrics, sweep
from .features import FeatureMask
from .policy import PolicyFeaturizer, SoftmaxPolicy, TeacherPolicy, collect_teacher_trajectories, train_bc
from .router import RouterNet, TrainSpec, fit_temperature, select_threshold, train_router
from .runtime import (
    VARIANTS,
    RoutingPolicy,
    calibrate_entropy_threshold,
    calibrate_heuristic_threshold,
    collect_routing_dataset,
    hindsight_table,
    routing_grid,
    run_episode,
)
from .verifier import VerifierSpec

ENV_PREFIX = "STEPROUTER_"

DEFAULT_CONFIG: dict = {
    "env": {
        "state_count": 12,
        "action_count": 6,
        "horizon": 20,
        "goal_vocab_size": 64,
        "perturbation_families": ["ToolFlaky", "PartialObs", "Injection", "Distractor"],
        "family_intensities": {
            "ToolFlaky": 0.15,
            "PartialObs": 0.30,
            "Injection": 0.15,
            "Distractor": 0.15,
        },
        "rng_seed": 42,
        "storm_fraction": 0.4,
        "storm_boost": 2.2,
        "task_count": 24,
    },
    "policy": {
        "teacher_error_rate": 0.02,
        "bc_epochs": 80,
        "bc_lr": 4.0,
        "pert_seeds_per_task": 5,
    },
    "verifier": {"eta_v": 0.2, "gamma_threshold": 0.55, "regime": None},
    "distill": {"beta": 2.0, "lambda_cons": 0.20, "epochs": 60, "lr": 4.0},
    "features": {"mask": "Full"},
    "router": {
        "alpha": 0.20,
        "epsilon": 0.10,
        "lambda_b": 1.0,
        "lambda_init": 1.0,
        "lr": 1e-3,
        "weight_decay": 1e-4,
        "dual_lr": 1e-2,
        "epochs": 150,
        "batch_steps": 4096,
        "dropout": 0.2,
        "c_slm": 1.0,
        "c_llm": 50.0,
        "kappa": 98.0,
        "threshold_mode": "sweep",
        "train_seed": 0,
    },
    "runtime": {
        "k_candidates": 5,
        "budget_limit": None,
        "routing_seeds_per_task": 10,
        "harness_salt": 0,
    },
    "eval": {
        "eval_seeds_per_task": 25,
        "task_ids": None,  # null = the test split
        "bootstrap_resamples": 1000,
        "level": 0.95,
        "ece_bins": 15,
        "bootstrap_seed": 0,
    },
    "split": {"fractions": [0.70, 0.15, 0.15], "seed": 42},
}

VERIFIER_REGIMES = {"low": 0.05, "high": 0.25}

VARIANT_ORDER = VARIANTS

CVAR_ABLATION_GRID = [
    (0.05, 0.02), (0.05, 0.10), (0.10, 0.02), (0.10, 0.10),
    (0.20, 0.10), (0.20, 0.15), (0.50, 0.10), (0.50, 0.15),
]
LAMBDA_CONS_GRID = [0.0, 0.05, 0.20, 0.50, 1.0]

# the stressed operating point used by the Pareto acceptance battery: storm
# seeds dominate failures, the verifier is weak per step, and cost units are
# scaled so the CVaR constraint is commensurate with epsilon
HIGH_RISK_OVERRIDES = [
    "env.rng_seed=1",
    "env.task_count=24",
    'env.family_intensities={"ToolFlaky":0.2,"PartialObs":0.35,"Injection":0.2,"Distractor":0.2}',
    "env.storm_boost=2.5",
    "verifier.eta_v=0.3",
    "runtime.routing_seeds_per_task=50",
    "eval.eval_seeds_per_task=40",
    "router.epochs=120",
    "router.c_slm=0.002",
    "router.c_llm=0.1",
    "router.kappa=0.196",
]


# --- config ------------------------------------------------------------------


def _deep_merge(base: dict, overlay: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in overlay.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _deep_merge(base[key], value, where)
        else:
            out[key] = value
    return out


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _apply_dotted(cfg: dict, dotted: str, raw: str) -> None:
    keys = dotted.split(".")
    node = cfg
    for key in keys[:-1]:
        if key not in node or not isinstance(node[key], dict):
            raise ConfigError(f"unknown config path {dotted!r}")
        node = node[key]
    if keys[-1] not in node:
        raise ConfigError(f"unknown config path {dotted!r}")
    node[keys[-1]] = _parse_value(raw)


def load_config(path: str | None = None, overrides=(), environ=None) -> dict:
    """Defaults, then config file, then STEPROUTER_* env vars, then --set flags."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path) as fh:
                file_cfg = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        cfg = _deep_merge(cfg, file_cfg)
    environ = os.environ if environ is None else environ
    for key, value in sorted(environ.items()):
        if key.startswith(ENV_PREFIX):
            dotted = key[len(ENV_PREFIX):].lower().replace("__", ".")
            _apply_dotted(cfg, dotted, value)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        _apply_dotted(cfg, dotted, raw)
    validate_config(cfg)
    return cfg


# counts that stages loop or index over: (block, key, smallest valid value)
COUNT_KEYS = (
    ("policy", "bc_epochs", 1),
    ("policy", "pert_seeds_per_task", 0),
    ("distill", "epochs", 0),
    ("router", "epochs", 1),
    ("router", "batch_steps", 1),
    ("runtime", "k_candidates", 2),  # candidates are ranked against each other
    ("runtime", "routing_seeds_per_task", 1),
    ("eval", "eval_seeds_per_task", 1),
)


def validate_config(cfg: dict) -> None:
    for block, key, least in COUNT_KEYS:
        value = cfg[block][key]
        if not _is_int(value) or value < least:
            raise ConfigError(
                f"{block}.{key} must be an integer >= {least}, got {value!r}"
            )
    make_env(cfg)
    make_cost_spec(cfg)
    make_cvar_spec(cfg)
    mask_name = cfg["features"]["mask"]
    try:
        FeatureMask(mask_name)
    except ValueError as exc:
        raise ConfigError(f"unknown feature mask {mask_name!r}") from exc
    regime = cfg["verifier"]["regime"]
    if regime is not None and regime not in VERIFIER_REGIMES:
        raise ConfigError(f"unknown verifier regime {regime!r}")
    mode = cfg["router"]["threshold_mode"]
    if mode not in ("bayes", "sweep"):
        raise ConfigError(f"unknown threshold mode {mode!r}")
    fr = cfg["split"]["fractions"]
    if len(fr) != 3 or abs(sum(fr) - 1.0) > 1e-9:
        raise ConfigError("split fractions must be a triple summing to 1")
    _validate_eval(cfg["eval"], cfg["env"]["task_count"])


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _validate_eval(e: dict, task_count: int) -> None:
    ids = e["task_ids"]
    if ids is None:
        return
    if not isinstance(ids, list) or not ids or not all(_is_int(i) for i in ids):
        raise ConfigError(
            f"eval.task_ids must be null or a non-empty list of integers, got {ids!r}"
        )
    bad = sorted(i for i in ids if not 0 <= i < task_count)
    if bad:
        raise ConfigError(
            f"eval.task_ids {bad} outside [0, {task_count}) (env.task_count={task_count})"
        )
    if len(set(ids)) != len(ids):
        raise ConfigError(f"eval.task_ids repeats a task id: {ids}")


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def make_env(cfg: dict) -> HazardChainEnv:
    e = dict(cfg["env"])
    task_count = e.pop("task_count")
    try:
        e["perturbation_families"] = tuple(e["perturbation_families"])
        e["family_intensities"] = dict(e["family_intensities"])
        return HazardChainEnv(EnvConfig(**e), task_count=task_count)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid env config: {exc}") from exc


def make_teacher(cfg: dict) -> TeacherPolicy:
    return TeacherPolicy(error_rate=cfg["policy"]["teacher_error_rate"])


def make_verifier(cfg: dict, env: HazardChainEnv) -> VerifierSpec:
    v = cfg["verifier"]
    eta = VERIFIER_REGIMES[v["regime"]] if v["regime"] else v["eta_v"]
    return VerifierSpec.for_env(env, eta_v=eta, gamma_threshold=v["gamma_threshold"])


def make_cost_spec(cfg: dict) -> CostSpec:
    r = cfg["router"]
    try:
        return CostSpec(c_slm=r["c_slm"], c_llm=r["c_llm"], kappa=r["kappa"])
    except ValueError as exc:
        raise ConfigError(f"invalid cost spec: {exc}") from exc


def make_cvar_spec(cfg: dict) -> CVaRSpec:
    r = cfg["router"]
    try:
        return CVaRSpec(alpha=r["alpha"], epsilon=r["epsilon"],
                        lambda_b=r["lambda_b"], lambda_init=r["lambda_init"])
    except ValueError as exc:
        raise ConfigError(f"invalid CVaR spec: {exc}") from exc


def make_train_spec(cfg: dict) -> TrainSpec:
    keys = ("lr", "weight_decay", "dual_lr", "epochs", "batch_steps", "dropout")
    return TrainSpec(costs=make_cost_spec(cfg), cvar=make_cvar_spec(cfg),
                     **{k: cfg["router"][k] for k in keys})


# --- the stage table ------------------------------------------------------------


@dataclass(frozen=True)
class Stage:
    """One row of the stage table.

    The subcommand `name` runs `stage_<name>`, which writes `output` ("{}" is
    the parameter value) and reads the artifacts of `inputs` ("rollout:slm"
    names one variant's rollout) and the config `keys` (a block name stands
    for the whole block). A stage with a `param` runs once per value in
    `over`; `extra` maps a value to the (inputs, keys) it adds.
    """

    name: str
    output: str
    inputs: tuple = ()
    keys: tuple = ()
    workers: bool = False
    param: str | None = None
    over: tuple = ()
    extra: dict = field(default_factory=dict)


_ROLLOUT_KEYS = ("env", "policy.teacher_error_rate", "verifier", "runtime.k_candidates",
                 "runtime.harness_salt")
_BUDGET = ("runtime.budget_limit",)
_ROUTER = ("train-router",)

STAGES = (
    Stage("gen-tasks", "tasks.json", keys=("env", "split")),
    Stage("collect", "episodes.rljson", ("gen-tasks",),
          ("env", "policy.teacher_error_rate", "policy.pert_seeds_per_task"), workers=True),
    Stage("train-bc", "policy_bc.bin", ("collect",), ("env", "policy.bc_epochs", "policy.bc_lr")),
    Stage("build-pairs", "pairs.rljson", ("collect", "train-bc"),
          ("env", "policy.teacher_error_rate", "verifier", "runtime.k_candidates")),
    Stage("distill", "policy_distilled.bin", ("train-bc", "build-pairs"), ("distill",)),
    Stage("collect-routing", "routing.rljson", ("gen-tasks", "distill"),
          _ROLLOUT_KEYS + ("runtime.routing_seeds_per_task",), workers=True),
    Stage("train-router", "router.bin", ("collect-routing",),
          ("router", "runtime.harness_salt", "eval.ece_bins")),
    Stage("rollout", "eval_{}.rljson", ("gen-tasks", "distill"),
          _ROLLOUT_KEYS + ("eval.task_ids", "eval.eval_seeds_per_task"), workers=True,
          param="variant", over=VARIANT_ORDER,
          extra={"llm": ((), _BUDGET), "entropy": (_ROUTER, _BUDGET),
                 "heuristic": (_ROUTER, _BUDGET), "r2v": (_ROUTER, _BUDGET + ("features.mask",)),
                 "oracle": (("rollout:slm",), _BUDGET)}),
    Stage("evaluate", "summary.json", ("train-router", *(f"rollout:{v}" for v in VARIANT_ORDER)),
          ("eval.bootstrap_resamples", "eval.level", "eval.ece_bins", "eval.bootstrap_seed"),
          workers=True),
    # every grid point runs stages that check their own inputs
    Stage("ablate", "ablate_{}.csv", workers=True, param="kind",
          over=("features", "cvar", "lambda")),
)
STAGE = {row.name: row for row in STAGES}

# the one-file artifacts that later stages read, by the stage that writes them
ARTIFACTS = {row.name: row.output for row in STAGES
             if any(row.name in other.inputs for other in STAGES)}

METRIC_COLUMNS = [f.name for f in fields(RunMetrics)]


def stage_reads(ref: str) -> tuple[tuple, tuple]:
    """(input artifacts, config keys) of a stage, or of one parameter value
    of it ("rollout:r2v")."""
    name, _, value = ref.partition(":")
    row = STAGE[name]
    if row.param and value not in row.over:
        raise ConfigError(f"unknown {row.param} {value!r}")
    inputs, keys = row.extra.get(value, ((), ()))
    return row.inputs + inputs, row.keys + keys


def inputs_hash(cfg: dict, ref: str) -> str:
    """The hash of the config values `ref` reads and of its inputs' own
    inputs_hash: what its artifact header holds when built under `cfg`."""
    inputs, keys = stage_reads(ref)
    return config_hash({
        "stage": ref,
        "keys": {key: functools.reduce(dict.__getitem__, key.split("."), cfg) for key in keys},
        "inputs": {i: inputs_hash(cfg, i) for i in inputs},
    })


def _stamp(cfg: dict, ref: str) -> dict:
    return {"config_hash": config_hash(cfg), "inputs_hash": inputs_hash(cfg, ref)}


def artifact_path(workdir: Path, ref: str) -> Path:
    name, _, value = ref.partition(":")
    return Path(workdir) / STAGE[name].output.format(value)


def require_stage(cfg: dict, workdir: Path, ref: str, path: Path | None = None) -> Path:
    """The artifact of `ref` (at `path` if given), checked to exist and to
    hold the inputs_hash that `cfg` gives it."""
    path = Path(path or artifact_path(workdir, ref))
    name, _, value = ref.partition(":")
    rerun = f"{name} --{STAGE[name].param} {value}" if value else name
    if not path.exists():
        raise StageOrderError(f"missing stage {ref!r} artifact ({path.name}); run `{rerun}` first")
    if read_header(path).typed("inputs_hash", str) != inputs_hash(cfg, ref):
        raise StageOrderError(f"{path.name} is stale: it was built from other inputs or "
                              f"config values than the current ones; rerun `{rerun}`")
    return path


def require_inputs(cfg: dict, workdir: Path, ref: str, moved: dict | None = None) -> dict:
    """Input ref -> checked path of every artifact `ref` reads; `moved` gives
    an input a path other than its own."""
    moved = moved or {}
    return {i: require_stage(cfg, workdir, i, moved.get(i)) for i in stage_reads(ref)[0]}


def run_stage(cfg: dict, workdir: Path, name: str, value=None, workers: int = 1,
              **options) -> Path:
    """Run the stage `name`; its function is looked up by name at call time."""
    row = STAGE[name]
    if row.param:
        options[row.param] = value
    if row.workers:
        options["workers"] = workers
    return globals()["stage_" + name.replace("-", "_")](cfg, Path(workdir), **options)


# --- stages ----------------------------------------------------------------------


def stage_gen_tasks(cfg: dict, workdir: Path) -> Path:
    env = make_env(cfg)
    split = derive_splits(
        range(env.task_count),
        fractions=tuple(cfg["split"]["fractions"]),
        seed=cfg["split"]["seed"],
    )
    specs = [env.task_spec(t) for t in range(env.task_count)]
    tasks = [{"id": t, "start": s.start, "subgoals": list(s.subgoals), "terminal": s.terminal}
             for t, s in enumerate(specs)]
    split_payload = {
        "train": list(split.train),
        "valid": list(split.valid),
        "test": list(split.test),
    }
    payload = {
        "schema": "tasks@1",
        "stage": "gen-tasks",
        **_stamp(cfg, "gen-tasks"),
        "tasks": tasks,
        "split": split_payload,
    }
    out = artifact_path(workdir, "gen-tasks")
    write_json(out, payload)
    write_json(
        Path(workdir) / "split.json",
        {
            "schema": "split@1",
            "config_hash": config_hash(cfg),
            "fractions": list(split.fractions),
            "split_seed": split.split_seed,
            **split_payload,
        },
    )
    return out


def load_split(cfg: dict, workdir: Path) -> dict:
    return read_header(require_stage(cfg, workdir, "gen-tasks"))["split"]


def _collect_job(args):
    cfg, task_ids = args
    env = make_env(cfg)
    teacher = make_teacher(cfg)
    pool = collect_teacher_trajectories(
        env, teacher, task_ids, cfg["policy"]["pert_seeds_per_task"]
    )
    return [episode_to_dict(ep) for ep in pool]


def _parallel_map(fn, jobs, workers: int):
    if workers <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def stage_collect(cfg: dict, workdir: Path, workers: int = 1) -> Path:
    train_ids = load_split(cfg, workdir)["train"]
    chunks = [[tid] for tid in train_ids]
    results = _parallel_map(_collect_job, [(cfg, chunk) for chunk in chunks], workers)
    records = [rec for block in results for rec in block]
    out = artifact_path(workdir, "collect")
    write_rljson(out, records, {"schema": "episodes@1", "stage": "collect",
                                **_stamp(cfg, "collect")})
    return out


def load_episodes(path: Path):
    return decode_records(path, episode_from_dict)


def stage_train_bc(cfg: dict, workdir: Path) -> Path:
    pool = load_episodes(require_inputs(cfg, workdir, "train-bc")["collect"])
    env = make_env(cfg)
    policy, trace = train_bc(
        pool,
        PolicyFeaturizer.for_env(env),
        epochs=cfg["policy"]["bc_epochs"],
        lr=cfg["policy"]["bc_lr"],
    )
    out = artifact_path(workdir, "train-bc")
    policy.save(out, extra={**_stamp(cfg, "train-bc"), "final_loss": trace[-1]})
    return out


def stage_build_pairs(cfg: dict, workdir: Path) -> Path:
    paths = require_inputs(cfg, workdir, "build-pairs")
    pool = load_episodes(paths["collect"])
    bc_policy = SoftmaxPolicy.load(paths["train-bc"])
    if bc_policy.stage != "bc":
        raise StageOrderError("train-bc artifact does not hold a BC-stage policy")
    env = make_env(cfg)
    pairs, views, counters = build_preferences(
        bc_policy, pool, make_verifier(cfg, env), make_teacher(cfg), env,
        k=cfg["runtime"]["k_candidates"],
    )
    records = [
        {
            "kind": "pair",
            "context": _context_to_dict(p.context),
            "a_plus": p.a_plus,
            "a_minus": p.a_minus,
            "source": p.source,
        }
        for p in pairs
    ]
    records += [
        {
            "kind": "cons",
            "context_a": _context_to_dict(a),
            "context_b": _context_to_dict(b),
        }
        for a, b in views
    ]
    out = artifact_path(workdir, "build-pairs")
    write_rljson(out, records, {"schema": "pairs@1", "stage": "build-pairs",
                                **_stamp(cfg, "build-pairs"), "counters": counters})
    return out


def _pair_from_dict(rec: dict):
    if rec["kind"] == "pair":
        return PreferencePair(_context_from_dict(rec["context"]), int(rec["a_plus"]),
                              int(rec["a_minus"]), rec["source"])
    if rec["kind"] == "cons":
        return _context_from_dict(rec["context_a"]), _context_from_dict(rec["context_b"])
    raise ValueError(f"unknown pair record kind {rec['kind']!r}")


def load_pairs(path: Path):
    records = decode_records(path, _pair_from_dict)
    return ([r for r in records if isinstance(r, PreferencePair)],
            [r for r in records if isinstance(r, tuple)])


def stage_distill(cfg: dict, workdir: Path) -> Path:
    paths = require_inputs(cfg, workdir, "distill")
    bc_policy = SoftmaxPolicy.load(paths["train-bc"])
    pairs, views = load_pairs(paths["build-pairs"])
    d = cfg["distill"]
    distilled, report = train_recovery(
        bc_policy, pairs, views,
        DistillConfig(beta=d["beta"], lambda_cons=d["lambda_cons"],
                      epochs=d["epochs"], lr=d["lr"]),
    )
    out = artifact_path(workdir, "distill")
    distilled.save(out, extra={**_stamp(cfg, "distill"),
                               "reference_hash": report["reference_hash"]})
    write_json(
        Path(workdir) / "distill_report.json",
        {
            "schema": "distill-report@1",
            "config_hash": config_hash(cfg),
            "pair_count": report["pair_count"],
            "pair_counts_by_source": read_header(paths["build-pairs"]).get("counters", {}),
            "view_count": report["view_count"],
            "final_loss": report["final_loss"],
            "reference_hash": report["reference_hash"],
        },
    )
    return out


def _routing_job(args):
    cfg, policy_path, task_ids, split_name, offset = args
    env = make_env(cfg)
    slm = SoftmaxPolicy.load(policy_path)
    salt = cfg["runtime"]["harness_salt"]
    examples, _ = collect_routing_dataset(
        env, slm, make_teacher(cfg), make_verifier(cfg, env), task_ids,
        cfg["runtime"]["routing_seeds_per_task"], k=cfg["runtime"]["k_candidates"],
        tag=f"routing-{split_name}-{salt}", split=split_name, seed_id_offset=offset,
    )
    return [routing_example_to_dict(ex) for ex in examples]


def stage_collect_routing(cfg: dict, workdir: Path, workers: int = 1) -> Path:
    paths = require_inputs(cfg, workdir, "collect-routing")
    split = read_header(paths["gen-tasks"])["split"]
    per_task = cfg["runtime"]["routing_seeds_per_task"]
    jobs = []
    offset = 0
    for split_name in ("train", "valid"):
        for tid in split[split_name]:
            jobs.append((cfg, paths["distill"], [tid], split_name, offset))
            offset += per_task
    results = _parallel_map(_routing_job, jobs, workers)
    records = [rec for block in results for rec in block]
    out = artifact_path(workdir, "collect-routing")
    write_rljson(out, records, {"schema": "routing@1", "stage": "collect-routing",
                                **_stamp(cfg, "collect-routing")})
    return out


def load_routing_examples(path: Path):
    return decode_records(path, routing_example_from_dict)


def stage_train_router(cfg: dict, workdir: Path, out_name: str | None = None) -> Path:
    examples = load_routing_examples(
        require_inputs(cfg, workdir, "train-router")["collect-routing"])
    train_examples = [ex for ex in examples if ex.split == "train"]
    valid_examples = [ex for ex in examples if ex.split == "valid"] or train_examples
    spec = make_train_spec(cfg)
    seed = cfg["router"]["train_seed"] + 1000 * cfg["runtime"]["harness_salt"]
    net, report = train_router(train_examples, spec, seed=seed)

    x_val = np.array([ex.features for ex in valid_examples], dtype=float)
    y_val = np.array([ex.label for ex in valid_examples], dtype=float)
    temperature = fit_temperature(net, x_val, y_val, ece_bins=cfg["eval"]["ece_bins"])
    costs = spec.costs
    net.tau_route = select_threshold(net, x_val, y_val, costs,
                                     mode=cfg["router"]["threshold_mode"])
    tau_h = calibrate_entropy_threshold(valid_examples, costs)
    theta_v = calibrate_heuristic_threshold(valid_examples, costs)

    out = Path(workdir) / (out_name or ARTIFACTS["train-router"])
    net.save(out, extra={"stage": "train-router", **_stamp(cfg, "train-router"), "tau_h": tau_h,
                         "theta_v": theta_v, "fitted_temperature": temperature})
    if out_name is None:
        write_csv(Path(workdir) / "router_report.csv", report,
                  ["epoch", "mean_risk", "cvar", "brier", "lam"])
    return out


def eval_grid(cfg: dict, workdir: Path):
    task_ids = cfg["eval"]["task_ids"]
    if task_ids is None:
        task_ids = load_split(cfg, workdir)["test"]
    env = make_env(cfg)
    salt = cfg["runtime"]["harness_salt"]
    return routing_grid(env, task_ids, cfg["eval"]["eval_seeds_per_task"],
                        f"eval-{salt}")


def _build_routing_policy(cfg: dict, variant: str, paths: dict) -> RoutingPolicy:
    budget = cfg["runtime"]["budget_limit"]
    if variant == "slm":
        return RoutingPolicy.slm_only()
    if variant == "llm":
        return RoutingPolicy.llm_only(budget)
    if variant == "oracle":
        table = hindsight_table(load_episodes(paths["rollout:slm"]))
        return RoutingPolicy.oracle_router(table, budget)
    header = read_header(paths["train-router"])
    if variant == "entropy":
        return RoutingPolicy.entropy_router(header.typed("tau_h", float, int), budget)
    if variant == "heuristic":
        return RoutingPolicy.heuristic_router(header.typed("theta_v", float, int), budget)
    net, _ = RouterNet.load(paths["train-router"])
    return RoutingPolicy.r2v(net, net.tau_route, mask=FeatureMask(cfg["features"]["mask"]),
                             budget_limit=budget)


def _rollout_job(args):
    cfg, variant, grid_chunk, paths = args
    env = make_env(cfg)
    slm = SoftmaxPolicy.load(paths["distill"])
    teacher = make_teacher(cfg)
    vspec = make_verifier(cfg, env)
    routing = _build_routing_policy(cfg, variant, paths)
    salt = cfg["runtime"]["harness_salt"]
    out = []
    for task_id, z in grid_chunk:
        ep = run_episode(env, task_id, z, slm, teacher, vspec, routing,
                         k=cfg["runtime"]["k_candidates"], salt=f"eval-{salt}")
        out.append(episode_to_dict(ep))
    return out


def stage_rollout(cfg: dict, workdir: Path, variant: str, workers: int = 1,
                  router_name: str | None = None, out_name: str | None = None) -> Path:
    workdir = Path(workdir)
    ref = f"rollout:{variant}"
    paths = require_inputs(cfg, workdir, ref,
                           {"train-router": workdir / router_name} if router_name else None)
    grid = eval_grid(cfg, workdir)
    n_chunks = max(1, min(workers, len(grid))) if workers > 1 else 1
    chunks = [grid[i::n_chunks] for i in range(n_chunks)]
    results = _parallel_map(_rollout_job, [(cfg, variant, chunk, paths) for chunk in chunks],
                            workers)
    by_key = {}
    for block in results:
        for rec in block:
            by_key[(rec["task_id"], rec["z"])] = rec
    records = [by_key[key] for key in grid]
    out = workdir / out_name if out_name else artifact_path(workdir, ref)
    write_rljson(out, records, {"schema": "episodes@1", "stage": "rollout",
                                "variant": variant, **_stamp(cfg, ref)})
    return out


def _metrics_for(cfg: dict, episodes):
    e = cfg["eval"]
    return compute_metrics(
        episodes,
        resamples=e["bootstrap_resamples"],
        level=e["level"],
        bins=e["ece_bins"],
        bootstrap_seed=e["bootstrap_seed"],
    )


def stage_evaluate(cfg: dict, workdir: Path, workers: int = 1) -> Path:
    workdir = Path(workdir)
    router_header = read_header(require_stage(cfg, workdir, "train-router"))
    summary_variants = {}
    for variant in VARIANT_ORDER:  # slm comes before the oracle that reads it
        try:
            path = require_stage(cfg, workdir, f"rollout:{variant}")
        except StageOrderError:  # missing or stale: roll it out again
            path = stage_rollout(cfg, workdir, variant, workers=workers)
        summary_variants[variant] = _metrics_for(cfg, load_episodes(path)).to_dict()
    rows = [{"variant": variant, **m} for variant, m in summary_variants.items()]
    write_csv(workdir / "metrics.csv", rows, ["variant"] + METRIC_COLUMNS)
    write_csv(workdir / "pareto.csv", rows,
              ["variant", "llm_rate", "success_rate", "ci_low", "ci_high"])
    summary = {
        "schema": "summary@1",
        "config_hash": config_hash(cfg),
        "variants": summary_variants,
        "thresholds": {k: router_header[k]
                       for k in ("tau_route", "tau_h", "theta_v", "temperature")},
    }
    out = workdir / "summary.json"
    write_json(out, summary)
    return out


# --- ablations -----------------------------------------------------------------
# Each grid point runs its stages under a copy of the config holding the
# point's values, so its artifacts' hashes describe what they hold.


def stage_ablate(cfg: dict, workdir: Path, kind: str, workers: int = 1) -> Path:
    workdir = Path(workdir)
    if kind == "features":
        rows = _ablate_masks(cfg, workdir, workers)
    elif kind == "cvar":
        rows = _ablate_cvar(cfg, workdir, workers)
    elif kind == "lambda":
        rows = _ablate_lambda(cfg, workdir, workers)
    else:
        raise ConfigError(f"unknown ablation kind {kind!r}")
    out = workdir / f"ablate_{kind}.csv"
    write_csv(out, rows, [k for k in rows[0] if k not in METRIC_COLUMNS] + METRIC_COLUMNS)
    return out


def _with(cfg: dict, block: str, point: dict) -> dict:
    out = copy.deepcopy(cfg)
    out[block].update(point)
    return out


def _ablate_masks(cfg: dict, workdir: Path, workers: int):
    def run(point):
        sub = _with(cfg, "features", point)
        path = stage_rollout(sub, workdir, "r2v", workers=workers,
                             out_name=f"eval_r2v_mask_{point['mask']}.rljson")
        return _metrics_for(sub, load_episodes(path))

    return sweep([{"mask": m.value} for m in FeatureMask], run)


def _ablate_cvar(cfg: dict, workdir: Path, workers: int):
    def run(point):
        sub = _with(cfg, "router", point)
        tag = f"a{point['alpha']}_e{point['epsilon']}".replace(".", "")
        router_name = f"router_{tag}.bin"
        stage_train_router(sub, workdir, out_name=router_name)
        path = stage_rollout(sub, workdir, "r2v", workers=workers, router_name=router_name,
                             out_name=f"eval_r2v_{tag}.rljson")
        return _metrics_for(sub, load_episodes(path))

    return sweep([{"alpha": a, "epsilon": e} for a, e in CVAR_ABLATION_GRID], run)


def _ablate_lambda(cfg: dict, workdir: Path, workers: int):
    def run(point):
        sub = _with(cfg, "distill", point)
        sub_wd = workdir / f"lambda_{str(point['lambda_cons']).replace('.', '')}"
        run_pipeline(sub, sub_wd, workers=workers, through="train-router")
        return _metrics_for(sub, load_episodes(stage_rollout(sub, sub_wd, "r2v", workers)))

    return sweep([{"lambda_cons": lam} for lam in LAMBDA_CONS_GRID], run)


def run_pipeline(cfg: dict, workdir: Path, workers: int = 1, through: str = "evaluate") -> None:
    """Run the table's stages in order through `through`; a stage with a
    parameter runs once per value (every rollout variant, every ablation)."""
    names = [row.name for row in STAGES]
    if through not in names:
        raise ConfigError(f"unknown stage {through!r}; the stages are {names}")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    for row in STAGES[: names.index(through) + 1]:
        for value in row.over or (None,):
            run_stage(cfg, workdir, row.name, value, workers)
