"""steprouter benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {default,router-fit,rollout} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root. Set-up (interpreter start-up, imports and the
stages upstream of the timed part) runs three times, each in a fresh python
process, and `setup_s` is their median. The timed part then repeats for at
least `--seconds` and at least three times, each repetition on a fresh copy of
the set-up artifacts; the end-to-end metrics are medians over repetitions.
With `--trace 1` set-up runs once, repetitions alternate untraced and traced
(see spans.py), and the per-layer metrics are printed instead.

The last line of standard output is the result JSON; the lines before it give
every metric with its unit, the stage times and the input sizes. The full
record (machine, loadavg, every repetition, output digests, quality numbers)
goes to `.perfbench/results/`, with the spans of a traced run beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
STATE_DIR = ROOT / ".perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_RUNS = 3
MIN_REPS = 3

if not (ROOT / "src" / "steprouter" / "__init__.py").is_file():
    sys.exit(f"steprouter sources not found under {ROOT / 'src'}; run from a checkout")
# one BLAS thread, so that with workers=1 a run keeps to one core of the box
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import spans  # noqa: E402  (perfbench/spans.py)
import workloads  # noqa: E402  (imports numpy, after the thread settings)

# the result line's metrics with --trace 0: name -> unit
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
    "ok_frac": "ratio",
}


def units(trace: int) -> dict:
    return {k: u for k, (u, _) in spans.PER_LAYER.items()} if trace else END_TO_END


def machine_record() -> dict:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "platform": platform.platform(),
    }


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def build_setups(W, seed: int, work: Path, extra, runs: int) -> tuple[Path, list[float]]:
    """Build the set-up `runs` times, each in a fresh process; keep the last."""
    times = []
    for i in range(runs):
        out = work / f"setup{i}"
        cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), W.name, str(seed),
               str(out), json.dumps(list(extra))]
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
        if i:
            shutil.rmtree(work / f"setup{i - 1}")
    return out, times


class Repetition:
    """One timed pass over a fresh copy of the set-up artifacts, then its checks."""

    def __init__(self, W, cfg: dict, source: Path, wd: Path, tracer=None):
        self.ok = False
        self.stages: dict = {}
        self.sizes: dict = {}
        self.digests: dict = {}
        self.artifact_bytes = 0
        self.tracer = tracer
        shutil.copytree(source, wd)  # copies keep the set-up mtimes
        marker = wd / ".timed_start"
        marker.touch()
        marker_ns = marker.stat().st_mtime_ns
        timed = workloads.TIMED[W.name]
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                self.stages = timed(cfg, wd)
            else:
                with tracer:
                    self.stages = timed(cfg, wd)
        except Exception:  # counted as a failed operation; the run goes on
            traceback.print_exc()
        self.wall_s = time.perf_counter() - t0
        self.cpu_s = time.process_time() - c0
        if not self.stages:
            return
        marker.unlink()
        self.artifact_bytes = sum(p.stat().st_size for p in wd.rglob("*")
                                  if p.is_file() and p.stat().st_mtime_ns >= marker_ns)
        try:
            self.sizes = workloads.check_outputs(W, cfg, wd, marker_ns)
            self.digests = workloads.digests(W, wd)
            self.ok = True
        except (workloads.CheckFailed, OSError, ValueError, KeyError) as exc:
            print(f"output check failed: {exc!r}", file=sys.stderr)

    def record(self) -> dict:
        return {"ok": self.ok, "traced": self.tracer is not None, "wall_s": self.wall_s,
                "cpu_s": self.cpu_s, "stages": self.stages, "digests": self.digests}


def repeat(W, cfg: dict, source: Path, work: Path, seconds: float, trace: bool):
    """Run repetitions until `seconds` have passed; with `trace`, alternate
    untraced and traced ones (at least one of each). The work dir of the last
    good repetition is kept as `work/last_good` for the quality numbers."""
    reps: list[Repetition] = []
    start = time.perf_counter()
    while True:
        tracer = None
        if trace and len(reps) % 2:
            tracer = spans.Tracer(run=len(reps))
        wd = work / f"rep{len(reps)}"
        rep = Repetition(W, cfg, source, wd, tracer)
        reps.append(rep)
        if rep.ok:
            shutil.rmtree(work / "last_good", ignore_errors=True)
            wd.rename(work / "last_good")
        else:
            shutil.rmtree(wd, ignore_errors=True)
        if time.perf_counter() - start >= seconds and len(reps) >= (2 if trace else MIN_REPS):
            return reps


def measure(W, seed: int, seconds: float, trace: bool, work: Path, extra=()) -> dict:
    """One benchmark run; returns the full record (see the module docstring)."""
    cfg = workloads.config(W, seed, extra)
    rec: dict = {
        "workload": W.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "benchmark_json_sha256": hashlib.sha256((ROOT / "BENCHMARK.json").read_bytes()).hexdigest()
        if (ROOT / "BENCHMARK.json").is_file() else None,
        "overrides": list(W.overrides) + [f"env.rng_seed={seed}"] + list(extra),
        "machine": machine_record(),
        "loadavg_before": loadavg(),
    }
    source, setup_times = build_setups(W, seed, work, extra, 1 if trace else SETUP_RUNS)
    reps = repeat(W, cfg, source, work, seconds, trace)
    good = [r for r in reps if r.ok]
    failed = len(reps) - len(good)
    digest_sets = {json.dumps(r.digests, sort_keys=True) for r in good}
    if len(digest_sets) > 1:
        print("outputs differ between repetitions of the same inputs", file=sys.stderr)
    last_good = work / "last_good"
    rec.update(
        setup_runs_s=setup_times,
        repetitions=[r.record() for r in reps],
        input_size=good[-1].sizes if good else {},
        digests=good[-1].digests if good else {},
        quality=workloads.quality(W, last_good) if good else {},
        attempted=len(reps),
        failed=failed,
        correct=bool(good) and failed == 0 and len(digest_sets) == 1,
    )
    plain = [r for r in reps if r.tracer is None]
    if trace:
        traced = [r for r in reps if r.tracer is not None]
        per = [spans.layer_metrics(r.tracer) for r in traced]
        metrics = {k: statistics.median(p[k] for p in per) for k in per[0]} if per else {}
        metrics["trace_overhead_frac"] = (statistics.median(r.wall_s for r in traced)
                                          / statistics.median(r.wall_s for r in plain) - 1.0)
        rec["leftover_wrappers"] = spans.Tracer.leftovers()
        rec["correct"] = rec["correct"] and not rec["leftover_wrappers"]
        rec["metrics"] = metrics
        rec["tracers"] = [r.tracer for r in traced]
    else:
        rec["metrics"] = {
            "wall_s": statistics.median(r.wall_s for r in plain),
            "cpu_s": statistics.median(r.cpu_s for r in plain),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "artifact_mb": statistics.median(r.artifact_bytes for r in good or plain) / 1e6,
            "ok_frac": len(good) / len(reps),
        }
    stage_keys = sorted({k for r in plain for k in r.stages})
    rec["stages"] = {k: statistics.median(r.stages[k] for r in plain if k in r.stages)
                     for k in stage_keys}
    rec["loadavg_after"] = loadavg()
    return rec


def derived(rec: dict) -> dict:
    """Throughputs with their bases, and the failure share, for the report lines."""
    st, size, out = rec["stages"], rec["input_size"], {}
    rollout_s = st.get("evaluate_s", 0.0) + st.get("ablate_s", 0.0)
    if rollout_s and "routed_episodes" in size:
        out["episodes_per_s"] = (size["routed_episodes"] / rollout_s, "1/s",
                                 f"episodes={size['routed_episodes']}")
    if st.get("train_router_s") and "router_epochs" in size:
        rows, epochs = size["train_rows"], size["router_epochs"]
        out["train_rows_per_s"] = (rows * epochs / st["train_router_s"], "1/s",
                                   f"rows={rows} x epochs={epochs}")
    out["failed_frac"] = (rec["failed"] / rec["attempted"], "ratio",
                          f"attempted={rec['attempted']}")
    return out


def report(rec: dict) -> None:
    print(f"workload={rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"repetitions={rec['attempted']} failed={rec['failed']} "
          f"loadavg {rec['loadavg_before']} -> {rec['loadavg_after']}")
    for name, value in rec["metrics"].items():
        print(f"  {name} = {value:.6g} {units(rec['trace'])[name]}")
    for name, value in rec["stages"].items():
        print(f"  stage {name} = {value:.6g} s")
    for name, (value, unit, base) in derived(rec).items():
        print(f"  {name} = {value:.6g} {unit} ({base})")
    for name, value in rec["quality"].items():
        print(f"  {name} = {value:.6g} ratio (quality, fixed per seed)")
    print(f"  input {json.dumps(rec['input_size'], sort_keys=True)}")
    for name, digest in rec["digests"].items():
        print(f"  sha256 {name} {digest}")


def save(rec: dict) -> None:
    out_dir = STATE_DIR / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = (f"{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    for i, tracer in enumerate(rec.pop("tracers", [])):
        tracer.save(out_dir / f"{stem}-spans{i}.npz")
    rec["derived"] = {k: v[0] for k, v in derived(rec).items()}
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump(rec, fh, indent=2, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    W = workloads.WORKLOADS[args.workload]
    work = STATE_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        rec = measure(W, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(rec)
    save(rec)
    print(json.dumps({
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": units(args.trace)[k]}
                    for k, v in rec["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
