"""The stage table (`pipeline.STAGES`) and the input hashes derived from it.

Every artifact header holds `inputs_hash`: a hash of the config keys its
stage row declares and of its inputs' own hashes. The scheme is only right if
the declared keys are complete, so one test reruns each stage on the same
input files with every undeclared config key changed and requires the same
output. A read whose effect does not show on this small run goes unseen, so
the run trains its router for 40 epochs: at 10, every `eval.ece_bins` gave
the clipped temperature e^3, while at 40 the default 15 bins take the ECE
fallback (T = 1) and the perturbed 10 bins fit T = 3.45, so train-router's
read of `eval.ece_bins` shows.
"""

import copy
import json
import math
import shutil

import pytest

from steprouter import pipeline
from steprouter.domain import ConfigError

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


def test_clipped_temperature_warns(tmp_path):
    # at 10 router epochs the small run's temperature search ends on its bound
    cfg = pipeline.load_config(overrides=(*SMALL, "router.epochs=10"), environ={})
    pipeline.run_pipeline(cfg, tmp_path, workers=1, through="collect-routing")
    with pytest.warns(UserWarning, match="temperature search hit its bound") as caught:
        out = pipeline.run_stage(cfg, tmp_path, "train-router")
    assert len(caught) == 1
    assert pipeline.read_header(out)["temperature"] == pytest.approx(math.exp(3.0))


def test_expected_hash_matches_written_headers(small_run):
    cfg, wd = small_run
    for ref in REFS[:-1]:
        header = pipeline.read_header(pipeline.artifact_path(wd, ref))
        assert header["inputs_hash"] == pipeline.inputs_hash(cfg, ref), ref
