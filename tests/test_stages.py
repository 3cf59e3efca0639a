"""The stage table (`pipeline.STAGES`) and the input hashes derived from it.

Every artifact header holds `inputs_hash`: a hash of the config keys its
stage row declares and of its inputs' own hashes. The scheme is only right if
the declared keys are complete, so one test reruns each stage on the same
input files with every undeclared config key changed and requires the same
output. A read whose effect does not show on this small run goes unseen. The
run trains its router for 40 epochs, against the 10 of the golden run in
`tests/test_golden.py`, so the two guards see different routers.
train-router reads no `eval` key, so the test changes `eval.ece_bins` under
it too.
"""

import concurrent.futures
import copy
import dataclasses
import functools
import itertools
import json
import math
import shutil
import struct
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest

from steprouter import env as env_module
from steprouter import pipeline, runtime
from steprouter.domain import (EPISODE_SCHEMA, ConfigError, RecordFormatError, StageOrderError,
                               episode_to_dict, read_header, routed_episode_to_dict, write_csv,
                               write_rljson)
from steprouter.features import FeatureMask
from steprouter.router import RouterNet

SMALL = (
    "env.task_count=10",
    "policy.pert_seeds_per_task=2",
    "policy.bc_epochs=20",
    "distill.epochs=10",
    "router.epochs=40",
    "runtime.routing_seeds_per_task=3",
    "eval.task_ids=[0,3,5,8]",
    "eval.eval_seeds_per_task=3",
    "eval.bootstrap_resamples=50",
)

# one valid change for every config key; a new key must get one here
PERTURB = {
    "env.state_count": 13,
    "env.action_count": 7,
    "env.horizon": 14,
    "env.goal_vocab_size": 72,
    "env.family_intensities": {"ToolFlaky": 0.3, "PartialObs": 0.1, "Injection": 0.0,
                               "Distractor": 0.25},
    "env.rng_seed": 7,
    "env.storm_fraction": 0.6,
    "env.storm_boost": 3.0,
    "env.task_count": 11,
    "policy.teacher_error_rate": 0.2,
    "policy.bc_epochs": 21,
    "policy.bc_lr": 2.0,
    "policy.pert_seeds_per_task": 3,
    "verifier.eta_v": 0.1,
    "verifier.gamma_threshold": 0.7,
    "distill.beta": 1.0,
    "distill.lambda_cons": 0.5,
    "distill.epochs": 12,
    "distill.lr": 2.0,
    "features.mask": "VerifierOnly",
    "router.alpha": 0.3,
    "router.epsilon": 0.05,
    "router.lambda_b": 0.5,
    "router.lambda_init": 2.0,
    "router.lr": 2e-3,
    "router.weight_decay": 0.0,
    "router.dual_lr": 0.05,
    "router.epochs": 11,
    "router.batch_steps": 64,
    "router.dropout": 0.1,
    "router.c_slm": 2.0,
    "router.c_llm": 40.0,
    "router.kappa": 80.0,
    "runtime.k_candidates": 4,
    "runtime.budget_limit": 2,
    "runtime.routing_seeds_per_task": 4,
    "runtime.harness_salt": 1,
    "eval.eval_seeds_per_task": 2,
    "eval.task_ids": [1, 2],
    "eval.bootstrap_resamples": 30,
    "eval.level": 0.9,
    "eval.ece_bins": 10,
    "eval.bootstrap_seed": 1,
    "split.fractions": [0.6, 0.2, 0.2],
    "split.seed": 7,
}

# every stage instance whose output a later stage or a reader relies on
REFS = [
    *(row.name for row in pipeline.STAGES if row.param is None and row.name != "evaluate"),
    *(f"rollout:{v}" for v in pipeline.VARIANT_ORDER),
    "evaluate",
]


def test_table_order_is_pinned():
    assert [row.name for row in pipeline.STAGES] == [
        "gen-tasks", "collect", "train-bc", "build-pairs", "distill", "collect-routing",
        "train-router", "rollout", "evaluate", "ablate",
    ]
    assert [row.name for row in pipeline.STAGES if row.param is None] == [
        "gen-tasks", "collect", "train-bc", "build-pairs", "distill", "collect-routing",
        "train-router", "evaluate",
    ]
    assert pipeline.ARTIFACTS == {
        "gen-tasks": "tasks.json",
        "collect": "episodes.rljson",
        "train-bc": "policy_bc.bin",
        "build-pairs": "pairs.rljson",
        "distill": "policy_distilled.bin",
        "collect-routing": "routing.rljson",
        "train-router": "router.bin",
    }


def test_every_config_key_has_a_perturbation():
    leaves = {f"{block}.{key}" for block, values in pipeline.DEFAULT_CONFIG.items()
              for key in values}
    assert set(PERTURB) == leaves


def _declares(keys, leaf: str) -> bool:
    return any(leaf == key or leaf.startswith(key + ".") for key in keys)


def _content(path):
    """An artifact without its config_hash record: (header, body bytes)."""
    data = path.read_bytes()
    head, body = (data, b"") if path.suffix == ".json" else data.split(b"\n", 1)
    header = json.loads(head)
    header.pop("config_hash")
    return header, body


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    cfg = pipeline.load_config(overrides=SMALL, environ={})
    wd = tmp_path_factory.mktemp("small-run")
    pipeline.run_pipeline(cfg, wd, workers=1)
    return cfg, wd


@pytest.mark.parametrize("ref", REFS)
def test_declared_reads_are_complete(small_run, tmp_path, monkeypatch, ref):
    base, base_wd = small_run
    _, keys = pipeline.stage_reads(ref)
    changed = copy.deepcopy(base)
    for leaf, value in PERTURB.items():
        if not _declares(keys, leaf):
            block, key = leaf.split(".")
            changed[block][key] = value
    pipeline.validate_config(changed)
    # the inputs on disk stand in for the perturbed config's: check them
    # against the config they were built from
    real_hash = pipeline.inputs_hash
    monkeypatch.setattr(pipeline, "inputs_hash", lambda cfg, r: real_hash(base, r))
    wd = tmp_path / "run"
    shutil.copytree(base_wd, wd)
    name, _, value = ref.partition(":")
    out = pipeline.run_stage(changed, wd, name, value or None, workers=1)
    assert _content(out) == _content(base_wd / out.name), (
        f"{ref} output depends on a config key its row does not declare")


def _plain_inputs_hash(cfg, ref):
    """inputs_hash written as the plain recursion: every input hashed anew
    wherever the recursion reaches it."""
    inputs, keys = pipeline.stage_reads(ref)
    return pipeline.config_hash({
        "stage": ref,
        "keys": {key: functools.reduce(dict.__getitem__, key.split("."), cfg) for key in keys},
        "inputs": {i: _plain_inputs_hash(cfg, i) for i in inputs},
    })


def test_inputs_hash_hashes_each_ref_once(monkeypatch):
    cfg = pipeline.load_config(overrides=pipeline.HIGH_RISK_OVERRIDES, environ={})
    want = {ref: _plain_inputs_hash(cfg, ref) for ref in REFS}
    calls = []
    real_hash = pipeline.config_hash
    monkeypatch.setattr(pipeline, "config_hash", lambda c: calls.append(c["stage"]) or real_hash(c))
    for ref in REFS:
        calls.clear()
        assert pipeline.inputs_hash(cfg, ref) == want[ref], ref
        assert len(calls) == len(set(calls)), ref
    assert sorted(calls) == sorted(REFS)  # evaluate reaches every other ref


def test_pipeline_import_leaves_the_process_pool_out():
    # every CLI call imports the pipeline; only a run with workers > 1
    # needs the process pool module
    code = ("import sys, steprouter.pipeline; "
            "print('concurrent.futures.process' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": str(pipeline.Path(pipeline.__file__).parents[1])},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_harness_salt_reaches_only_the_stages_that_read_it():
    # the five configs of the Pareto battery (acceptance criterion 11)
    cfgs = [pipeline.load_config(overrides=[*pipeline.HIGH_RISK_OVERRIDES,
                                            f"runtime.harness_salt={salt}"], environ={})
            for salt in range(5)]
    cut = REFS.index("collect-routing")
    for i, ref in enumerate(REFS):
        hashes = {pipeline.inputs_hash(cfg, ref) for cfg in cfgs}
        assert len(hashes) == (1 if i < cut else 5), ref


def test_run_pipeline_stops_after_through(tmp_path):
    cfg = pipeline.load_config(overrides=SMALL, environ={})
    pipeline.run_pipeline(cfg, tmp_path, workers=1, through="collect")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "episodes.rljson", "split.json", "tasks.json"]
    with pytest.raises(ConfigError, match="unknown stage"):
        pipeline.run_pipeline(cfg, tmp_path, workers=1, through="colect")


def test_train_router_beats_the_base_rate_without_warning(tmp_path):
    # at 10 router epochs the logits sit off the failure base rate, which a
    # temperature cannot correct (it clipped at e^3 with validation NLL 0.694
    # against the base rate's 0.509); the Platt map's intercept does
    cfg = pipeline.load_config(overrides=(*SMALL, "router.epochs=10"), environ={})
    pipeline.run_pipeline(cfg, tmp_path, workers=1, through="collect-routing")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = pipeline.run_stage(cfg, tmp_path, "train-router")
    assert [str(w.message) for w in caught] == []
    net, _ = RouterNet.load(out)
    valid = [ex for ex in pipeline.load_routing_examples(tmp_path / "routing.rljson")
             if ex.split == "valid"]
    y = np.array([ex.label for ex in valid], dtype=float)
    p = net.predict(np.array([ex.features for ex in valid]))
    nll = -np.mean(y * np.log(p) + (1 - y) * np.log1p(-p))
    rate = y.mean()
    assert nll < -(rate * math.log(rate) + (1 - rate) * math.log(1 - rate))


def test_expected_hash_matches_written_headers(small_run):
    cfg, wd = small_run
    for ref in REFS[:-1]:
        header = pipeline.read_header(pipeline.artifact_path(wd, ref))
        assert header["inputs_hash"] == pipeline.inputs_hash(cfg, ref), ref


def _mask_cfg(cfg: dict, mask: str) -> dict:
    sub = copy.deepcopy(cfg)
    sub["features"]["mask"] = mask
    return sub


MASKS = [m.value for m in FeatureMask]
SHARED_OUTPUTS = [*(f"eval_{v}.rljson" for v in pipeline.VARIANT_ORDER),
                  *(f"eval_r2v_mask_{m}.rljson" for m in MASKS),
                  "ablate_features.csv", "summary.json"]


def _own_copy(base_wd, wd):
    """`wd`, a fresh copy of the run at `base_wd`: another run directory, so
    its rollouts start from an empty step tree."""
    shutil.copytree(base_wd, wd)
    return wd


@pytest.fixture
def expanded(monkeypatch):
    """Rows extracted in this process, one per step-tree node expanded."""
    calls = []
    real_extract = runtime.extract
    monkeypatch.setattr(runtime, "extract",
                        lambda *a: calls.append(len(a[0])) or real_extract(*a))
    return calls


def test_shared_rollouts_write_what_per_variant_rollouts_write(small_run, tmp_path):
    cfg, base_wd = small_run
    # reference: one stage_rollout call per variant (as run_pipeline makes
    # them, which is how small_run was built) and per mask; each mask rolls
    # in its own copy of the run, and its eval_r2v.rljson moves to the name
    # the ablation writes
    ref = tmp_path / "per-variant"
    shutil.copytree(base_wd, ref)
    rows = []
    for mask in MASKS:
        sub = _mask_cfg(cfg, mask)
        solo = _own_copy(base_wd, tmp_path / f"solo-{mask}")
        path = pipeline.stage_rollout(sub, solo, "r2v").replace(
            ref / f"eval_r2v_mask_{mask}.rljson")
        metrics = pipeline._metrics_for(sub, pipeline.load_episodes(path))
        rows.append({"mask": mask, **metrics.to_dict()})
    write_csv(ref / "ablate_features.csv", rows, ["mask"] + pipeline.METRIC_COLUMNS)

    shared = tmp_path / "shared"
    shutil.copytree(base_wd, shared)
    for path in shared.glob("eval_*.rljson"):
        path.unlink()
    pipeline.stage_evaluate(cfg, shared)
    pipeline.stage_ablate(cfg, shared, "features")
    for name in SHARED_OUTPUTS:
        assert (shared / name).read_bytes() == (ref / name).read_bytes(), name


def test_one_run_directory_writes_what_each_call_writes_in_its_own_copy(small_run, tmp_path):
    # the six rollout calls, evaluate and the features ablation share one
    # step tree in one run directory, and each writes what it writes alone
    cfg, base_wd = small_run
    ref = _own_copy(base_wd, tmp_path / "ref")
    for variant in pipeline.VARIANT_ORDER:
        solo = _own_copy(base_wd, tmp_path / f"solo-{variant}")
        pipeline.stage_rollout(cfg, solo, variant).replace(ref / f"eval_{variant}.rljson")
    pipeline.stage_evaluate(cfg, ref)
    solo = _own_copy(base_wd, tmp_path / "solo-ablate")
    pipeline.stage_ablate(cfg, solo, "features")
    for path in [*solo.glob("eval_r2v_mask_*.rljson"), solo / "ablate_features.csv"]:
        path.replace(ref / path.name)

    shared = _own_copy(base_wd, tmp_path / "shared")
    for variant in pipeline.VARIANT_ORDER:
        pipeline.stage_rollout(cfg, shared, variant)
    pipeline.stage_evaluate(cfg, shared)
    pipeline.stage_ablate(cfg, shared, "features")
    for name in SHARED_OUTPUTS + ["metrics.csv"]:
        assert (shared / name).read_bytes() == (ref / name).read_bytes(), name


def test_a_run_directory_keeps_one_step_tree(small_run, tmp_path, expanded):
    # a second call in the same run directory expands nothing; a copy of the
    # run at another path starts afresh, and the first tree is then freed
    cfg, base_wd = small_run
    wd = _own_copy(base_wd, tmp_path / "run")
    moved = _own_copy(base_wd, tmp_path / "moved")
    counts = []
    for where in (wd, wd, moved):
        if where is moved:
            first = weakref.ref(pipeline._tree[1])
        expanded.clear()
        pipeline.stage_ablate(cfg, where, "features", workers=1)
        counts.append(sum(expanded))
    steps = sum(len(ep.steps) for m in MASKS
                for ep in pipeline.load_episodes(wd / f"eval_r2v_mask_{m}.rljson"))
    assert 0 < counts[0] == counts[2] < steps
    assert counts[1] == 0
    assert first() is None


def test_rollouts_share_the_tree_whatever_the_worker_count(small_run, tmp_path, expanded):
    # --workers reaches no eval-grid rollout: a second call in the same run
    # directory expands nothing at workers 2 too
    cfg, base_wd = small_run
    wd = _own_copy(base_wd, tmp_path / "run")
    counts = []
    for _ in range(2):
        expanded.clear()
        pipeline.stage_rollout(cfg, wd, "slm", workers=2)
        counts.append(sum(expanded))
    assert counts[0] > 0 and counts[1] == 0


def test_a_run_directory_keeps_one_env(small_run, tmp_path, monkeypatch):
    # the env lives beside the step tree: the rollouts of one run directory
    # sample each eval task's spec once, and another directory gets its own
    cfg, base_wd = small_run
    wd = _own_copy(base_wd, tmp_path / "run")
    moved = _own_copy(base_wd, tmp_path / "moved")
    sampled = []
    real_sample = env_module.sample_task_spec
    monkeypatch.setattr(env_module, "sample_task_spec",
                        lambda config, task_id: sampled.append(task_id) or real_sample(config,
                                                                                       task_id))
    runs = []
    for where in (wd, wd, moved):
        sampled.clear()
        for variant in ("slm", "llm"):
            pipeline.stage_rollout(cfg, where, variant)
        pipeline.stage_ablate(cfg, where, "features", workers=1)
        runs.append((sorted(sampled), pipeline._tree[2]))
    (first, env), (second, same_env), (third, other_env) = runs
    assert first == sorted(set(first)) == sorted(set(cfg["eval"]["task_ids"]))
    assert second == [] and third == first
    assert same_env is env and other_env is not env


def float_bits(obj) -> list[bytes]:
    """Every float a step view holds, as its eight bytes, in field order."""
    if isinstance(obj, float):
        return [struct.pack("<d", obj)]
    if isinstance(obj, (tuple, list)):
        return [b for item in obj for b in float_bits(item)]
    if dataclasses.is_dataclass(obj):
        return [b for f in dataclasses.fields(obj) for b in float_bits(getattr(obj, f.name))]
    return []


def kept(episode):
    """What a routed rollout file keeps of an episode: its routed record and
    its kind."""
    return routed_episode_to_dict(episode), episode.kind


def as_filed(step, variant: str):
    """A step view as the file of `variant`'s rollout keeps it: a routed
    file holds no context, candidates, scores or features."""
    if variant == "slm":
        return step
    return step._replace(context=None, candidates=None, verifier_scores=None, features=None)


def _roll_out_all(cfg, wd):
    """The six variants' episodes as the engine held them when it wrote
    their eval files into `wd`."""
    groups = [[v for v in pipeline.VARIANT_ORDER if v != "oracle"], ["oracle"]]
    rolled = {}
    for group in groups:
        rollouts = [(cfg, v, pipeline.artifact_path(wd, f"rollout:{v}")) for v in group]
        rolled.update(zip(group, pipeline._roll_out_files(wd, rollouts, rolled.get("slm"))))
    return rolled


def test_step_views_of_a_file_equal_the_engines(small_run, tmp_path):
    # ep.steps[t] of a decoded eval file is ep.steps[t] of the episode the
    # engine held when it wrote the file, field for field, float bits too,
    # on every field the file keeps; a routed file's steps hold None in the
    # others
    cfg, base_wd = small_run
    wd = _own_copy(base_wd, tmp_path / "run")
    rolled = _roll_out_all(cfg, wd)
    for variant, episodes in rolled.items():
        decoded = pipeline.load_episodes(wd / f"eval_{variant}.rljson")
        if variant == "slm":
            assert decoded == episodes
        for mine, theirs in zip(episodes, decoded, strict=True):
            assert len(mine.steps) == len(theirs.steps) > 0
            for t in range(len(mine.steps)):
                assert as_filed(mine.steps[t], variant) == theirs.steps[t], (variant, t)
                assert float_bits(as_filed(mine.steps[t], variant)) == float_bits(theirs.steps[t])
        assert (wd / f"eval_{variant}.rljson").read_bytes() == (
            base_wd / f"eval_{variant}.rljson").read_bytes()


def test_routed_files_decode_to_the_engines_kept_columns(small_run, tmp_path):
    # each routed variant's file and each mask's file decodes to the
    # engine's episodes on the columns it keeps, with no node column, one
    # step view per action and the metrics of the engine's episodes
    cfg, base_wd = small_run
    wd = _own_copy(base_wd, tmp_path / "run")
    rolled = {f"eval_{v}.rljson": episodes for v, episodes in _roll_out_all(cfg, wd).items()}
    masks = [(_mask_cfg(cfg, m), "r2v", wd / f"eval_r2v_mask_{m}.rljson") for m in MASKS]
    rolled.update(zip((out.name for _, _, out in masks), pipeline._roll_out_files(wd, masks)))
    assert len(rolled) == len(pipeline.VARIANT_ORDER) + len(MASKS)
    for name, episodes in rolled.items():
        variant = "r2v" if "mask" in name else name[len("eval_"):-len(".rljson")]
        assert read_header(wd / name)["schema"] == pipeline.rollout_schema(variant)
        decoded = pipeline.load_episodes(wd / name)
        assert [kept(ep) for ep in decoded] == [kept(ep) for ep in episodes], name
        assert all(len(ep.steps) == len(ep.actions) for ep in decoded), name
        if variant != "slm":
            assert all(getattr(ep, column) is None for ep in decoded
                       for column in ("observations", "candidates", "candidate_logps",
                                      "verifier_scores", "features", "offsets")), name
        assert (pipeline._metrics_for(cfg, decoded).to_dict()
                == pipeline._metrics_for(cfg, episodes).to_dict()), name


def test_every_episode_record_re_encodes_to_its_bytes(small_run, tmp_path):
    # each line of the demonstrations, the six eval files and the eight mask
    # files decodes and encodes back to the same bytes, in its header's
    # record format
    cfg, base_wd = small_run
    wd = _own_copy(base_wd, tmp_path / "run")
    pipeline.stage_ablate(cfg, wd, "features", workers=1)
    names = ["episodes.rljson", *(f"eval_{v}.rljson" for v in pipeline.VARIANT_ORDER),
             *(f"eval_r2v_mask_{m}.rljson" for m in MASKS)]
    for name in names:
        again = tmp_path / name
        header = read_header(wd / name)
        encode = episode_to_dict if header["schema"] == EPISODE_SCHEMA else routed_episode_to_dict
        write_rljson(again, [encode(ep) for ep in pipeline.load_episodes(wd / name)], header)
        assert again.read_bytes() == (wd / name).read_bytes(), name


def test_stored_pairs_resolve_to_the_pairs_built(small_run, tmp_path, monkeypatch):
    # build-pairs stores each pair as (episode, step) of episodes.rljson, and
    # load_pairs resolves it against the episodes file beside it to the pair
    # build_preferences built
    cfg, base_wd = small_run
    wd = _own_copy(base_wd, tmp_path / "run")
    built = []
    real = pipeline.build_preferences
    monkeypatch.setattr(pipeline, "build_preferences",
                        lambda *args, **kw: built.append(real(*args, **kw)) or built[-1])
    pipeline.stage_build_pairs(cfg, wd)
    [(pairs, _)] = built
    assert pairs and pipeline.load_pairs(wd / "pairs.rljson") == pairs


@pytest.mark.parametrize("change", ["verifier.eta_v", "runtime.k_candidates",
                                    "policy_distilled.bin"])
def test_other_rollout_inputs_get_a_fresh_tree(small_run, tmp_path, expanded, change):
    # after the change, the rollout in the run directory expands what it
    # expands in a fresh copy, and writes the same bytes
    cfg, base_wd = small_run
    wd = _own_copy(base_wd, tmp_path / "run")
    pipeline.stage_rollout(cfg, wd, "slm")
    if change == "policy_distilled.bin":  # other parameters, the same stage stamp
        path = wd / change
        header = pipeline.read_header(path)
        other = pipeline.load_policy(path, "distill").clone()
        other.theta += 0.5
        other.save(path, extra={k: header[k]
                                for k in ("config_hash", "inputs_hash", "reference_hash")})
    else:
        block, key = change.split(".")
        cfg = pipeline._with(cfg, block, {key: PERTURB[change]})
        pipeline.stage_build_pairs(cfg, wd)
        pipeline.stage_distill(cfg, wd)
    fresh = _own_copy(wd, tmp_path / "fresh")
    counts = []
    for where in (wd, fresh):
        expanded.clear()
        pipeline.stage_rollout(cfg, where, "slm")
        counts.append(sum(expanded))
    assert counts[0] == counts[1] > 0
    assert (wd / "eval_slm.rljson").read_bytes() == (fresh / "eval_slm.rljson").read_bytes()


@pytest.mark.parametrize("workers", [2, 3, 64])
def test_collect_routing_cuts_each_split_into_one_run_per_worker(small_run, tmp_path,
                                                                 monkeypatch, workers):
    # each job numbers its records from its first point's seed id, so the
    # file holds the bytes that one job per split writes
    cfg, base_wd = small_run
    wd = tmp_path / "run"
    shutil.copytree(base_wd, wd)
    jobs = []
    monkeypatch.setattr(pipeline, "_parallel_map",
                        lambda fn, todo, n: jobs.extend(todo) or [fn(job) for job in todo])
    pipeline.stage_collect_routing(cfg, wd, workers=workers)
    assert (wd / "routing.rljson").read_bytes() == (base_wd / "routing.rljson").read_bytes()
    split = pipeline.load_split(cfg, wd)
    per_task = cfg["runtime"]["routing_seeds_per_task"]
    first = 0
    for name in ("train", "valid"):
        runs = [(grid, start) for _, _, split_name, grid, start in jobs if split_name == name]
        size = per_task * len(split[name])
        assert len(runs) == min(workers, size)
        assert [start for _, start in runs] == list(
            itertools.accumulate([len(grid) for grid, _ in runs[:-1]], initial=first))
        assert sum(len(grid) for grid, _ in runs) == size
        first += size


@pytest.mark.parametrize("stale", [("oracle",), pipeline.VARIANT_ORDER])
def test_evaluate_takes_the_oracle_hindsight_from_memory(small_run, tmp_path, monkeypatch,
                                                         stale):
    # the slm episodes are decoded at most once, by evaluate's own load of a
    # fresh eval_slm.rljson, never again to build the oracle's table
    cfg, base_wd = small_run
    wd = tmp_path / "run"
    shutil.copytree(base_wd, wd)
    for variant in stale:
        (wd / f"eval_{variant}.rljson").unlink()
    loads = []
    real_load = pipeline.load_episodes

    def load(path, *schema):
        loads.append(path.name)
        return real_load(path, *schema)

    monkeypatch.setattr(pipeline, "load_episodes", load)
    pipeline.stage_evaluate(cfg, wd, workers=1)
    assert loads.count("eval_slm.rljson") == (0 if "slm" in stale else 1)
    for name in ("eval_oracle.rljson", "summary.json"):
        assert (wd / name).read_bytes() == (base_wd / name).read_bytes(), name


def test_standalone_oracle_rollout_checks_the_slm_file(small_run, tmp_path):
    # rollout --variant oracle still decodes eval_slm.rljson itself, so a
    # malformed slm record stops it
    cfg, base_wd = small_run
    wd = tmp_path / "run"
    shutil.copytree(base_wd, wd)
    slm = wd / "eval_slm.rljson"
    head, body = slm.read_bytes().split(b"\n", 1)
    slm.write_bytes(head + b"\n" + body.replace(b'"success":', b'"success":"x",', 1))
    with pytest.raises(RecordFormatError):
        pipeline.stage_rollout(cfg, wd, "oracle")


CVAR_POINTS = [{"alpha": a, "epsilon": e} for a, e in pipeline.CVAR_ABLATION_GRID]


@pytest.fixture(scope="module")
def per_point_cvar(small_run, tmp_path_factory):
    """ablate_cvar.csv as one stage_train_router and one stage_rollout per
    grid point build it, each point in its own copy of the run, and the step
    count of those eight rollouts."""
    cfg, base_wd = small_run
    ref = tmp_path_factory.mktemp("per-point")
    rows, steps = [], 0
    for i, point in enumerate(CVAR_POINTS):
        sub = pipeline._with(cfg, "router", point)
        wd = _own_copy(base_wd, ref / f"point-{i}")
        pipeline.stage_train_router(sub, wd)
        episodes = pipeline.load_episodes(pipeline.stage_rollout(sub, wd, "r2v"))
        steps += sum(len(ep.steps) for ep in episodes)
        rows.append({**point, **pipeline._metrics_for(sub, episodes).to_dict()})
    write_csv(ref / "ablate_cvar.csv", rows, ["alpha", "epsilon"] + pipeline.METRIC_COLUMNS)
    return (ref / "ablate_cvar.csv").read_bytes(), steps


@pytest.mark.parametrize("workers", [1, 2])
def test_cvar_ablation_writes_what_per_point_stages_write(small_run, per_point_cvar, tmp_path,
                                                          expanded, workers):
    cfg, base_wd = small_run
    expected, steps = per_point_cvar
    wd = tmp_path / "run"
    shutil.copytree(base_wd, wd)
    (wd / "router.bin").unlink()  # every grid point fits its own router
    before = {p.name for p in wd.iterdir()}
    out = pipeline.stage_ablate(cfg, wd, "cvar", workers=workers)
    assert out.read_bytes() == expected
    assert {p.name for p in wd.iterdir()} - before == {"ablate_cvar.csv"}
    assert 0 < sum(expanded) < steps  # the eight rollouts share one step tree, in this process


@pytest.mark.parametrize("name,change", [
    ("tasks.json", None),
    ("policy_distilled.bin", None),
    ("routing.rljson", None),
    ("routing.rljson", ("runtime", "routing_seeds_per_task", 4)),
])
def test_cvar_ablation_checks_its_inputs(small_run, tmp_path, name, change):
    cfg, base_wd = small_run
    wd = tmp_path / "run"
    shutil.copytree(base_wd, wd)
    if change is None:
        (wd / name).unlink()
    else:
        block, key, value = change
        cfg = pipeline._with(cfg, block, {key: value})
    with pytest.raises(StageOrderError, match=name):
        pipeline.stage_ablate(cfg, wd, "cvar", workers=1)
    assert not (wd / "ablate_cvar.csv").exists()


@pytest.mark.parametrize("jobs, workers, started", [(2, 4, 2), (3, 4, 3), (4, 3, 3), (1, 4, None)])
def test_pool_starts_no_more_workers_than_jobs(monkeypatch, jobs, workers, started):
    # a fork pool starts all its workers at once, needed or not
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # _parallel_map imports the pool class when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    assert pipeline._parallel_map(abs, list(range(-jobs, 0)), workers) == list(range(jobs, 0, -1))
    assert sizes == ([] if started is None else [started])
