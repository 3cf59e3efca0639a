import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from steprouter import pipeline, theory
from steprouter.cli import EXIT_CONFIG, EXIT_OK, EXIT_STAGE_ORDER, main
from steprouter.domain import ConfigError

TINY = [
    "env.task_count=8",
    "policy.bc_epochs=30",
    "distill.epochs=20",
    "router.epochs=30",
    "runtime.routing_seeds_per_task=4",
    "eval.eval_seeds_per_task=6",
    "eval.bootstrap_resamples=200",
]

# the stages a full run invokes one after another, in table order
PIPELINE = [row.name for row in pipeline.STAGES if row.param is None]
THROUGH_ROUTER = PIPELINE[: PIPELINE.index("train-router") + 1]


def run_stage(stage, workdir, extra=()):
    return main([stage, "--workdir", str(workdir), "--workers", "1",
                 *[f"--set={o}" for o in (*TINY, *extra)]])


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    wd = tmp_path_factory.mktemp("cli-run")
    for stage in PIPELINE:
        assert run_stage(stage, wd) == EXIT_OK
    return wd


class TestConfig:
    def test_defaults_load(self):
        cfg = pipeline.load_config()
        assert cfg["router"]["c_llm"] / cfg["router"]["c_slm"] == pytest.approx(50.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            pipeline.load_config(overrides=["router.nonsense=1"])

    @pytest.mark.parametrize("key", ["env.discount", "env.reward_success",
                                     "policy.temperature", "verifier.regime",
                                     "env.perturbation_families", "router.threshold_mode",
                                     "router.train_seed"])
    def test_removed_keys_rejected(self, tmp_path, capsys, key):
        with pytest.raises(ConfigError, match="unknown config path"):
            pipeline.load_config(overrides=[f"{key}=1.0"], environ={})
        block, name = key.split(".")
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({block: {name: 1.0}}))
        assert main(["gen-tasks", "--workdir", str(tmp_path),
                     "--config", str(cfg_file)]) == EXIT_CONFIG
        assert f"unknown config key '{key}'" in capsys.readouterr().err

    def test_env_var_override(self):
        cfg = pipeline.load_config(environ={"STEPROUTER_ROUTER__EPOCHS": "7"})
        assert cfg["router"]["epochs"] == 7

    def test_set_override_parses_json(self):
        cfg = pipeline.load_config(overrides=["runtime.budget_limit=3"])
        assert cfg["runtime"]["budget_limit"] == 3

    def test_config_hash_stable_and_sensitive(self):
        a = pipeline.config_hash(pipeline.load_config())
        b = pipeline.config_hash(pipeline.load_config())
        c = pipeline.config_hash(pipeline.load_config(overrides=["router.epochs=3"]))
        assert a == b != c

    def test_config_file_error_exit_code(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{nope")
        assert main(["gen-tasks", "--workdir", str(tmp_path), "--config", str(bad)]) == EXIT_CONFIG

    def test_invalid_value_exit_code(self, tmp_path):
        assert main(["gen-tasks", "--workdir", str(tmp_path),
                     "--set", "env.horizon=1"]) == EXIT_CONFIG

    @pytest.mark.parametrize("raw", ["[a,b]", "[0,99]", "[-1]", "[]", "[1,1]",
                                     "[0.5]", "[true]", "3", '"0,1"'])
    def test_eval_task_ids_rejected(self, raw):
        with pytest.raises(ConfigError, match="eval.task_ids"):
            pipeline.load_config(overrides=[f"eval.task_ids={raw}"], environ={})

    @pytest.mark.parametrize("raw", ["0", "-2", "1.5", "null"])
    def test_eval_seeds_per_task_rejected(self, raw):
        with pytest.raises(ConfigError, match="eval_seeds_per_task"):
            pipeline.load_config(overrides=[f"eval.eval_seeds_per_task={raw}"],
                                 environ={})

    @pytest.mark.parametrize("key,raw", [
        ("router.epochs", "abc"),
        ("policy.bc_epochs", '"x"'),
        ("router.batch_steps", "0"),
        ("runtime.k_candidates", "0"),
        ("runtime.k_candidates", "1"),
        ("runtime.routing_seeds_per_task", "0"),
        ("router.epochs", "2.5"),
        ("router.epochs", "true"),
        ("distill.epochs", "-1"),
        ("policy.pert_seeds_per_task", "null"),
    ])
    def test_count_keys_rejected(self, tmp_path, capsys, key, raw):
        with pytest.raises(ConfigError, match=key):
            pipeline.load_config(overrides=[f"{key}={raw}"], environ={})
        rc = main(["rollout", "--workdir", str(tmp_path), "--variant", "slm",
                   "--workers", "1", "--set", f"{key}={raw}"])
        assert rc == EXIT_CONFIG
        assert f"config error: {key}" in capsys.readouterr().err

    def test_eval_task_ids_accepted(self):
        cfg = pipeline.load_config(overrides=["eval.task_ids=[0,23]"], environ={})
        assert cfg["eval"]["task_ids"] == [0, 23]

    @pytest.mark.parametrize("tasks", ["a,b", "0,99"])
    def test_rollout_bad_tasks_exit_code(self, tmp_path, capsys, tasks):
        rc = main(["rollout", "--workdir", str(tmp_path), "--variant", "slm",
                   "--workers", "1", "--set", f"eval.task_ids=[{tasks}]"])
        assert rc == EXIT_CONFIG
        assert "eval.task_ids" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--budget", "--seeds", "--tasks"])
    def test_removed_rollout_flags_rejected(self, tmp_path, capsys, flag):
        # each only re-set a config key that --set reaches
        with pytest.raises(SystemExit) as exc:
            main(["rollout", "--workdir", str(tmp_path), "--variant", "slm", flag, "1"])
        assert exc.value.code == 2  # argparse's usage error
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_import_loads_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, steprouter.pipeline, steprouter.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


class TestStageOrder:
    def test_distill_before_train_bc_fails(self, tmp_path):
        assert run_stage("gen-tasks", tmp_path) == EXIT_OK
        assert run_stage("distill", tmp_path) == EXIT_STAGE_ORDER

    def test_collect_requires_tasks(self, tmp_path):
        assert run_stage("collect", tmp_path) == EXIT_STAGE_ORDER

    def test_oracle_rollout_requires_slm_artifact(self, tmp_path):
        for stage in THROUGH_ROUTER:
            assert run_stage(stage, tmp_path) == EXIT_OK
        rc = main(["rollout", "--workdir", str(tmp_path), "--variant", "oracle",
                   "--workers", "1", *[f"--set={o}" for o in TINY]])
        assert rc == EXIT_STAGE_ORDER


def _half_the_lines(data: bytes) -> bytes:
    lines = data.splitlines(keepends=True)
    return b"".join(lines[: len(lines) // 2])


def _cut_mid_line(data: bytes) -> bytes:
    last = data.rindex(b"\n", 0, len(data) - 1) + 1
    return data[: last + (len(data) - last) // 2]


def _edit_record(pick, edit):
    """Rewrite the first record (after the header line) that `pick` selects."""
    def corrupt(data: bytes) -> bytes:
        lines = data.splitlines(keepends=True)
        for i, line in enumerate(lines[1:], start=1):
            rec = json.loads(line)
            if pick(rec):
                edit(rec)
                lines[i] = (json.dumps(rec, sort_keys=True) + "\n").encode()
                return b"".join(lines)
        raise AssertionError("no record to corrupt")
    return corrupt


def _is_pair(rec):
    return rec.get("kind") == "pair"


def _edit_header(edit):
    def corrupt(data: bytes) -> bytes:
        first, rest = data.split(b"\n", 1)
        header = json.loads(first)
        edit(header)
        return json.dumps(header, sort_keys=True).encode() + b"\n" + rest
    return corrupt


def _drop_header_field(key):
    return _edit_header(lambda header: header.pop(key))


def _set_header_field(key, value):
    return _edit_header(lambda header: header.update({key: value}))


R2V = ("rollout", "--variant", "r2v")

# (artifact, corruption, command that reads it): a torn, padded or malformed
# artifact must stop the command with exit 3 and one line, never run on
BAD_ARTIFACTS = {
    "router-short-8": ("router.bin", lambda b: b[:-8], R2V),
    "router-padded-16": ("router.bin", lambda b: b + bytes(16), R2V),
    "router-padded-3": ("router.bin", lambda b: b + bytes(3), R2V),
    "policy-short-8": ("policy_distilled.bin", lambda b: b[:-8], ("collect-routing",)),
    "episodes-half-lines": ("episodes.rljson", _half_the_lines, ("train-bc",)),
    "routing-half-lines": ("routing.rljson", _half_the_lines, ("train-router",)),
    "episodes-cut-mid-line": ("episodes.rljson", _cut_mid_line, ("train-bc",)),
    "tasks-cut-in-half": ("tasks.json", lambda b: b[: len(b) // 2], ("collect",)),
    "routing-no-label": ("routing.rljson",
                         _edit_record(lambda rec: True, lambda rec: rec.pop("label")),
                         ("train-router",)),
    "pair-no-a_plus": ("pairs.rljson", _edit_record(_is_pair, lambda rec: rec.pop("a_plus")),
                       ("distill",)),
    "pair-unknown-kind": ("pairs.rljson",
                          _edit_record(_is_pair, lambda rec: rec.update(kind="pari")),
                          ("distill",)),
    "router-header-no-tau_h": ("router.bin", _drop_header_field("tau_h"),
                               ("rollout", "--variant", "entropy")),
    # a header field of the wrong type is as malformed as a missing one
    "router-tau_route-str": ("router.bin", _set_header_field("tau_route", "0.5"), R2V),
    "router-temperature-str": ("router.bin", _set_header_field("temperature", "1.0"), R2V),
    "router-dropout-list": ("router.bin", _set_header_field("dropout", [0.2]), R2V),
    "router-tau_h-str": ("router.bin", _set_header_field("tau_h", "0.5"),
                         ("rollout", "--variant", "entropy")),
    "router-theta_v-bool": ("router.bin", _set_header_field("theta_v", True),
                            ("rollout", "--variant", "heuristic")),
    "policy-horizon-str": ("policy_distilled.bin", _set_header_field("horizon", "20"),
                           ("collect-routing",)),
    "policy-vocab_size-float": ("policy_distilled.bin", _set_header_field("vocab_size", 64.0),
                                ("collect-routing",)),
    # the input hash every stage checks before it reads an artifact
    "episodes-no-inputs_hash": ("episodes.rljson", _drop_header_field("inputs_hash"),
                                ("train-bc",)),
    "router-inputs_hash-int": ("router.bin", _set_header_field("inputs_hash", 7), R2V),
    "policy-inputs_hash-list": ("policy_distilled.bin", _set_header_field("inputs_hash", ["x"]),
                                ("collect-routing",)),
    "eval_slm-inputs_hash-null": ("eval_slm.rljson", _set_header_field("inputs_hash", None),
                                  ("rollout", "--variant", "oracle")),
}


@pytest.mark.parametrize("case", sorted(BAD_ARTIFACTS))
def test_bad_artifact_exits_3(finished_run, tmp_path, capsys, case):
    name, corrupt, command = BAD_ARTIFACTS[case]
    wd = tmp_path / "run"
    shutil.copytree(finished_run, wd)
    path = wd / name
    path.write_bytes(corrupt(path.read_bytes()))
    capsys.readouterr()
    rc = main([*command, "--workdir", str(wd), "--workers", "1",
               *[f"--set={o}" for o in TINY]])
    err = capsys.readouterr().err
    assert rc == EXIT_STAGE_ORDER
    assert len(err.splitlines()) == 1 and err.startswith(f"artifact error: {path}: ")
    assert "Traceback" not in err


class TestPipelineArtifacts:
    def test_evaluate_emits_all_variants(self, finished_run):
        summary = json.loads((finished_run / "summary.json").read_text())
        assert set(summary["variants"]) == {"slm", "llm", "entropy", "heuristic",
                                            "r2v", "oracle"}
        assert (finished_run / "metrics.csv").exists()
        assert (finished_run / "pareto.csv").exists()
        assert (finished_run / "router_report.csv").exists()
        assert not list(finished_run.glob(".*.tmp"))

    def test_metrics_csv_has_rows(self, finished_run):
        lines = (finished_run / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 7  # header + six variants

    def test_baselines_respect_semantics(self, finished_run):
        summary = json.loads((finished_run / "summary.json").read_text())
        assert summary["variants"]["slm"]["llm_rate"] == 0.0
        assert summary["variants"]["llm"]["llm_rate"] == 1.0

    def test_rerun_is_bit_identical(self, finished_run, tmp_path):
        wd2 = tmp_path / "rerun"
        wd2.mkdir()
        for stage in PIPELINE:
            assert run_stage(stage, wd2) == EXIT_OK
        assert (wd2 / "summary.json").read_bytes() == (
            finished_run / "summary.json"
        ).read_bytes()
        assert (wd2 / "metrics.csv").read_bytes() == (
            finished_run / "metrics.csv"
        ).read_bytes()

    def test_feature_mask_ablation(self, finished_run):
        rc = main(["ablate", "--workdir", str(finished_run), "--grid", "features",
                   "--workers", "1", *[f"--set={o}" for o in TINY]])
        assert rc == EXIT_OK
        lines = (finished_run / "ablate_features.csv").read_text().strip().splitlines()
        assert len(lines) == 9  # header + 8 mask variants

    def test_cvar_ablation_grid_shape(self, finished_run):
        rc = main(["ablate", "--workdir", str(finished_run), "--grid", "cvar",
                   "--workers", "1", *[f"--set={o}" for o in TINY]])
        assert rc == EXIT_OK
        lines = (finished_run / "ablate_cvar.csv").read_text().strip().splitlines()
        assert len(lines) == 9  # header + 8 grid points
        assert lines[0].startswith("alpha,epsilon,")

    def test_lambda_ablation_grid_shape(self, finished_run):
        rc = main(["ablate", "--workdir", str(finished_run), "--grid", "lambda",
                   "--workers", "1", *[f"--set={o}" for o in TINY]])
        assert rc == EXIT_OK
        lines = (finished_run / "ablate_lambda.csv").read_text().strip().splitlines()
        assert len(lines) == 6  # header + 5 sweep points
        assert lines[0].startswith("lambda_cons,")

    def test_workers_do_not_change_artifacts(self, finished_run, tmp_path):
        wd2 = tmp_path / "parallel"
        wd2.mkdir()
        for stage in THROUGH_ROUTER:
            assert main([stage, "--workdir", str(wd2), "--workers", "2",
                         *[f"--set={o}" for o in TINY]]) == EXIT_OK
        assert (wd2 / "routing.rljson").read_bytes() == (
            finished_run / "routing.rljson"
        ).read_bytes()


def stub_row(passed=True, cap_s=None, sleep_s=0.0):
    def check(tol, trained):
        time.sleep(sleep_s)
        return passed, f"stub (tol {tol:g})"
    return theory.Criterion(99, "stub", check, 0.0, cap_s, slow=False)


class TestVerifyTheoryCommand:
    def test_regret_bound_without_trained_routers(self):
        # under --skip-slow no row trains a router, so only the random nets count
        passed, detail = theory.check_regret_bound(1e-9, [])
        assert passed
        assert "over 20 nets" in detail

    def test_table_is_pinned(self):
        assert [(r.number, r.name, r.tol, r.cap_s, r.slow) for r in theory.CRITERIA] == [
            (1, "brier-calibration", 0.05, 60.0, True),
            (2, "threshold-optimality", 0.01, None, False),
            (3, "regret-bound", 1e-9, None, False),
            (4, "tv-jsd-lemma", 1e-9, None, False),
            (5, "best-of-k-bound", 3.0, 60.0, False),
            (6, "noisy-dpo-sign", 1e-2, None, False),
            (7, "consistency-transfer", 1e-6, None, True),
            (8, "gradient-checks", 1e-5, None, False),
            (10, "cvar-knob-direction", 0.0, None, True),
        ]

    def test_violation_exits_nonzero(self, capsys, monkeypatch):
        monkeypatch.setattr(theory, "CRITERIA", (stub_row(passed=False),))
        rc = main(["verify-theory", "--skip-slow"])
        assert rc == 4
        assert "FAIL  stub: stub (tol 0)" in capsys.readouterr().out

    def test_row_over_its_cap_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(theory, "CRITERIA", (stub_row(cap_s=0.01, sleep_s=0.05),))
        rc = main(["verify-theory"])
        assert rc == 4
        assert "FAIL  stub: stub (tol 0), " in capsys.readouterr().out

    def test_prints_each_row_as_it_finishes(self, capsys, monkeypatch):
        def second(tol, trained):
            assert capsys.readouterr().out == "PASS  stub: stub (tol 0)\n"
            return False, "second"
        rows = (stub_row(), theory.Criterion(98, "second", second, 0.0, None, slow=False))
        monkeypatch.setattr(theory, "CRITERIA", rows)
        assert main(["verify-theory"]) == 4
        assert capsys.readouterr().out == "FAIL  second: second\n"

    @pytest.mark.parametrize("flags", [[], ["--skip-slow"]])
    def test_runs_the_rows_the_flags_select(self, capsys, monkeypatch, flags):
        ran = []

        def stub(row):
            def check(tol, trained):
                ran.append(row.number)
                return True, "stub"
            return dataclasses.replace(row, check=check)

        monkeypatch.setattr(theory, "CRITERIA", tuple(map(stub, theory.CRITERIA)))
        assert main(["verify-theory", *flags]) == EXIT_OK
        want = [r for r in theory.CRITERIA if not (flags and r.slow)]
        assert ran == [r.number for r in want]
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [f"PASS  {r.name}" for r in want]


def _copy_run(finished_run, tmp_path):
    wd = tmp_path / "run"
    shutil.copytree(finished_run, wd)
    return wd


class TestStaleInputs:
    """Each artifact header holds the hash of the config values and inputs its
    stage read; a stage stops on an input whose hash the config does not give."""

    def test_unread_key_change_is_silent(self, tmp_path, capsys):
        assert run_stage("gen-tasks", tmp_path) == EXIT_OK
        capsys.readouterr()
        # collect reads tasks.json, and gen-tasks does not read policy.bc_epochs
        assert run_stage("collect", tmp_path, ["policy.bc_epochs=31"]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_changed_input_config_exits_3(self, tmp_path, capsys):
        assert run_stage("gen-tasks", tmp_path) == EXIT_OK
        capsys.readouterr()
        assert run_stage("collect", tmp_path, ["env.task_count=9"]) == EXIT_STAGE_ORDER
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "tasks.json" in err and "`gen-tasks`" in err

    def test_evaluate_rerolls_after_router_change(self, finished_run, tmp_path):
        changed = ["router.kappa=60.0", "router.epochs=3"]
        wd = _copy_run(finished_run, tmp_path)
        before = (wd / "eval_r2v.rljson").read_bytes()
        for stage in ("train-router", "evaluate"):
            assert run_stage(stage, wd, changed) == EXIT_OK
        assert (wd / "eval_r2v.rljson").read_bytes() != before
        fresh = tmp_path / "fresh"
        for stage in PIPELINE:
            assert run_stage(stage, fresh, changed) == EXIT_OK
        assert (wd / "metrics.csv").read_bytes() == (fresh / "metrics.csv").read_bytes()
        assert (wd / "summary.json").read_bytes() == (fresh / "summary.json").read_bytes()

    def test_evaluate_rerolls_after_budget_rollout(self, finished_run, tmp_path):
        wd = _copy_run(finished_run, tmp_path)
        assert main(["rollout", "--variant", "llm", "--workdir", str(wd), "--workers", "1",
                     *[f"--set={o}" for o in (*TINY, "runtime.budget_limit=1")]]) == EXIT_OK
        assert run_stage("evaluate", wd) == EXIT_OK
        summary = json.loads((wd / "summary.json").read_text())
        assert summary["variants"]["llm"]["llm_rate"] == 1.0
        assert (wd / "metrics.csv").read_bytes() == (finished_run / "metrics.csv").read_bytes()

    def test_stale_router_stops_evaluate(self, finished_run, tmp_path, capsys):
        wd = _copy_run(finished_run, tmp_path)
        capsys.readouterr()
        assert run_stage("evaluate", wd, ["router.epochs=3"]) == EXIT_STAGE_ORDER
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "router.bin is stale" in err and "`train-router`" in err
