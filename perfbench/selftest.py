"""Self-test of the benchmark at a tiny size (a few tasks, 2 epochs, 2 seeds).

    python3 perfbench/selftest.py        # or: python3 -m pytest perfbench/selftest.py

Checks that a traced run of every workload produces every per-layer metric,
that the tracer leaves no wrapper behind, that traced and untraced
repetitions write byte-identical outputs, that an untraced run prints every
end-to-end metric, and that the stale-output guard fires.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (sets the thread variables before numpy loads)
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = (
    "env.task_count=10",
    "policy.pert_seeds_per_task=2",
    "policy.bc_epochs=5",
    "distill.epochs=5",
    "runtime.routing_seeds_per_task=2",
    "router.epochs=2",
    "eval.task_ids=null",
    "eval.eval_seeds_per_task=2",
    "eval.bootstrap_resamples=50",
)
SEED = 3


def _work(name: str) -> Path:
    work = run.STATE_DIR / "selftest" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def _bindings() -> dict:
    """Every callable bound in a steprouter module or class, by identity."""
    out = {}
    for mod_name, module in spans._steprouter_modules().items():
        for key, value in vars(module).items():
            if callable(value):
                out[(mod_name, key)] = id(value)
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    out[(mod_name, key, attr)] = id(member)
    return out


def test_traced_runs():
    before = _bindings()
    for name, W in workloads.WORKLOADS.items():
        work = _work(f"trace-{name}")
        try:
            rec = run.measure(W, SEED, 0.0, True, work, TINY)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        assert rec["correct"], f"{name}: traced run not correct"
        assert set(rec["metrics"]) == set(spans.PER_LAYER), (
            f"{name}: missing {set(spans.PER_LAYER) - set(rec['metrics'])}")
        assert rec["leftover_wrappers"] == [], rec["leftover_wrappers"]
        reps = rec["repetitions"]
        assert {r["traced"] for r in reps} == {False, True}
        assert len({str(sorted(r["digests"].items())) for r in reps}) == 1, (
            f"{name}: tracing changed the outputs")
    assert _bindings() == before, "a steprouter binding was not restored"


def test_untraced_run_prints_every_metric():
    work = _work("plain")
    try:
        rec = run.measure(workloads.WORKLOADS["router-fit"], SEED, 0.0, False, work, TINY)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert rec["correct"] and rec["attempted"] >= run.MIN_REPS
    assert set(rec["metrics"]) == set(run.END_TO_END)
    assert len(rec["setup_runs_s"]) == run.SETUP_RUNS
    assert all(v > 0 for v in rec["metrics"].values()), rec["metrics"]


def test_stale_output_is_caught():
    W = workloads.WORKLOADS["rollout"]
    cfg = workloads.config(W, SEED, TINY)
    work = _work("stale")
    try:
        workloads.build_setup(W, SEED, work / "setup", TINY)
        rep = run.Repetition(W, cfg, work / "setup", work / "rep", None)
        assert rep.ok
        marker = work / "rep" / ".later"
        marker.touch()
        try:
            workloads.check_outputs(W, cfg, work / "rep", marker.stat().st_mtime_ns + 1)
        except workloads.CheckFailed as exc:
            assert "stale" in str(exc)
        else:
            raise AssertionError("outputs older than the timed part were accepted")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    for test in (test_traced_runs, test_untraced_run_prints_every_metric,
                 test_stale_output_is_caught):
        test()
        print(f"PASS {test.__name__}")
