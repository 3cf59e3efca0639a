"""Span tracer that wraps steprouter's layer functions from outside the package.

`Tracer.install()` replaces each function in `LAYERS` with a timing wrapper
wherever a `steprouter` module binds it (modules that did `from .x import f`
hold their own reference, so patching only the defining module would miss
those calls), and each method in `METHODS` on its class. `uninstall()` puts
every original back. Nothing inside `src/steprouter` is edited.

Each call becomes a span (name, start, end, parent span, run id). Spans are
kept in compact in-memory columns and written by `save()` once the run ends.
Per-name totals are kept as the calls return: calls, inclusive time, and self
time (the span's duration minus the part covered by its child spans).
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np

# (module, function) pairs wrapped by name, and the span name each records.
LAYERS = {
    ("seeds", "mix"): "seeds.mix",
    ("seeds", "stream"): "seeds.stream",
    ("verifier", "score_candidates"): "verifier.score_candidates",
    ("policy", "train_bc"): "policy.train_bc",
    ("policy", "bc_loss_and_grad"): "policy.bc_loss_and_grad",
    ("features", "extract"): "features.extract",
    ("features", "apply_mask"): "features.apply_mask",
    ("router", "logits_train"): "router.logits_train",
    ("router", "backward"): "router.backward",
    ("router", "batch_objective"): "router.batch_objective",
    ("router", "train_router"): "router.train_router",
    ("router", "fit_temperature"): "router.fit_temperature",
    ("router", "select_threshold"): "router.select_threshold",
    ("runtime", "run_episode"): "runtime.run_episode",
    ("runtime", "calibrate_entropy_threshold"): "runtime.calibrate_entropy_threshold",
    ("runtime", "calibrate_heuristic_threshold"): "runtime.calibrate_heuristic_threshold",
    ("domain", "write_rljson"): "domain.write_rljson",
    ("domain", "read_rljson"): "domain.read_rljson",
    ("domain", "episode_to_dict"): "domain.episode_to_dict",
    ("domain", "episode_from_dict"): "domain.episode_from_dict",
    ("distill", "build_preferences"): "distill.build_preferences",
    ("distill", "train_recovery"): "distill.train_recovery",
    ("evaluation", "compute_metrics"): "evaluation.compute_metrics",
    ("pipeline", "load_episodes"): "pipeline.load_episodes",
    ("pipeline", "load_routing_examples"): "pipeline.load_routing_examples",
    ("pipeline", "stage_gen_tasks"): "pipeline.gen_tasks",
    ("pipeline", "stage_collect"): "pipeline.collect",
    ("pipeline", "stage_train_bc"): "pipeline.train_bc",
    ("pipeline", "stage_build_pairs"): "pipeline.build_pairs",
    ("pipeline", "stage_distill"): "pipeline.distill",
    ("pipeline", "stage_collect_routing"): "pipeline.collect_routing",
    ("pipeline", "stage_train_router"): "pipeline.train_router",
    ("pipeline", "stage_rollout"): "pipeline.rollout",
    ("pipeline", "stage_evaluate"): "pipeline.evaluate",
    ("pipeline", "stage_ablate"): "pipeline.ablate",
}

# (module, class, method) triples patched on the class itself.
METHODS = {
    ("env", "HazardChainEnv", "task_spec"): "env.task_spec",
    ("env", "HazardChainEnv", "step"): "env.step",
    ("env", "HazardChainEnv", "corrupt"): "env.corrupt",
    ("env", "HazardChainEnv", "replay"): "env.replay",
    ("verifier", "EnvActionQuality", "__call__"): "verifier.quality",
    ("policy", "SoftmaxPolicy", "action_distribution"): "policy.action_distribution",
    ("policy", "SoftmaxPolicy", "sample_candidates"): "policy.sample_candidates",
    ("policy", "TeacherPolicy", "act"): "policy.teacher_act",
    ("router", "RouterNet", "predict"): "router.predict",
}

STAGE_SPANS = (
    "gen_tasks", "collect", "train_bc", "build_pairs", "distill",
    "collect_routing", "train_router", "rollout", "evaluate", "ablate",
)


class _Stat:
    __slots__ = ("calls", "incl_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.incl_ns = 0
        self.self_ns = 0


class Tracer:
    """Wraps the layer functions while installed; one instance per traced run."""

    def __init__(self, run: int = 0):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.stats: dict[str, _Stat] = {}
        # extra counters read from arguments and results (rows, bytes, ...)
        self.counters: dict[str, float] = {}
        # span columns, one entry per finished span
        self.span_id = array("q")
        self.parent_id = array("q")
        self.name_id = array("q")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.run_id = array("q")
        self.run = run  # stored with each span: which repetition it belongs to
        self._next_span = 0
        # open spans: [span id, child time accumulated so far]
        self._stack: list[list[int]] = []
        # (owner, attribute, original) for every binding replaced by install()
        self._patched: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = _Stat()
        return self._name_ids[name]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _open(self) -> tuple[list[int], int]:
        frame = [self._next_span, 0]
        self._next_span += 1
        self._stack.append(frame)
        return frame, time.perf_counter_ns()

    def _close(self, name: str, nid: int, frame: list[int], t0: int) -> None:
        t1 = time.perf_counter_ns()
        self._stack.pop()
        dur = t1 - t0
        st = self.stats[name]
        st.calls += 1
        st.incl_ns += dur
        st.self_ns += dur - frame[1]
        parent = -1
        if self._stack:
            self._stack[-1][1] += dur
            parent = self._stack[-1][0]
        self.span_id.append(frame[0])
        self.parent_id.append(parent)
        self.name_id.append(nid)
        self.start_ns.append(t0)
        self.end_ns.append(t1)
        self.run_id.append(self.run)

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        hook = _HOOKS.get(name)
        if inspect.isgeneratorfunction(fn):
            wrapper = self._wrap_generator(fn, name, nid)
        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame, t0 = self._open()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(name, nid, frame, t0)
                if hook is not None:
                    hook(self, fn, args, kwargs, result)
                return result

        wrapper.perfbench_span = name
        return wrapper

    def _wrap_generator(self, fn, name: str, nid: int):
        """Times the generator's own work across the whole iteration.

        Each resume is a span, so the consumer's code between items is not
        charged to the generator; `calls` counts generators, `<name>.records`
        counts the items they yielded.
        """

        st = self.stats[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            st.calls += 1
            try:
                while True:
                    frame, t0 = self._open()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(name, nid, frame, t0)
                        st.calls -= 1  # a resume is a span, not a call
                    self.count(f"{name}.records")
                    yield item
            finally:
                it.close()

        return wrapper

    # --- install / uninstall ------------------------------------------------

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = _steprouter_modules()
        for (mod, attr), name in LAYERS.items():
            original = getattr(mods[mod], attr)
            wrapper = self._wrap(original, name)
            for module in mods.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)
        for (mod, cls_name, attr), name in METHODS.items():
            cls = getattr(mods[mod], cls_name)
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name))
        return self

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    @staticmethod
    def leftovers() -> list[str]:
        """Names still bound to a tracer wrapper anywhere in steprouter."""
        out = []
        for module in _steprouter_modules().values():
            for key, value in vars(module).items():
                if hasattr(value, "perfbench_span"):
                    out.append(f"{module.__name__}.{key}")
                if isinstance(value, type):
                    out += [f"{module.__name__}.{key}.{attr}"
                            for attr, member in vars(value).items()
                            if hasattr(member, "perfbench_span")]
        return out

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- results ----------------------------------------------------------------

    def durations_ms(self, name: str) -> np.ndarray:
        nid = self._name_ids.get(name)
        if nid is None:
            return np.zeros(0)
        ids = np.frombuffer(self.name_id, dtype=np.int64)
        start = np.frombuffer(self.start_ns, dtype=np.int64)
        end = np.frombuffer(self.end_ns, dtype=np.int64)
        sel = ids == nid
        return (end[sel] - start[sel]) / 1e6

    def save(self, path) -> None:
        """Write the spans (columns plus the name table) as a compressed npz."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_id=np.frombuffer(self.span_id, dtype=np.int64),
            parent_id=np.frombuffer(self.parent_id, dtype=np.int64),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            start_ns=np.frombuffer(self.start_ns, dtype=np.int64),
            end_ns=np.frombuffer(self.end_ns, dtype=np.int64),
            run_id=np.frombuffer(self.run_id, dtype=np.int64),
        )


def _steprouter_modules() -> dict:
    import steprouter.pipeline  # noqa: F401  (imports every layer module)

    return {
        key.split(".", 1)[1]: mod
        for key, mod in sys.modules.items()
        if key.startswith("steprouter.") and mod is not None
    }


# --- counters read from arguments and results ----------------------------------


def _predict_rows(tr, fn, args, kwargs, result):
    tr.count("router.predict.rows", np.atleast_2d(args[1]).shape[0])


def _write_counts(tr, fn, args, kwargs, result):
    path, records = args[0], args[1]
    size = os.path.getsize(path)
    tr.count("domain.write_rljson.bytes", size)
    tr.count("domain.write_rljson.records", len(records))
    if records and "steps" in records[0]:
        tr.count("episode_file.bytes", size)
        for rec in records:
            tr.count("episode_file.steps", len(rec["steps"]))
            for step in rec["steps"]:
                if step.get("decision"):
                    tr.count("escalations.wanted")
                    if step["executor"] == "LLM":
                        tr.count("escalations.executed")


def _episode_steps(tr, fn, args, kwargs, result):
    tr.count("runtime.run_episode.steps", len(result.steps))


def _bc_epochs(tr, fn, args, kwargs, result):
    _, trace = result
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    epochs = bound.arguments["epochs"]
    ran = len(trace) - 1
    # the loop only stops early when an epoch's line search found no descent
    tr.count("policy.train_bc.accepted_epochs", ran if ran == epochs else ran - 1)


_HOOKS = {
    "router.predict": _predict_rows,
    "domain.write_rljson": _write_counts,
    "runtime.run_episode": _episode_steps,
    "policy.train_bc": _bc_epochs,
}


# --- per-layer metrics -----------------------------------------------------------

# name -> (unit, better); the order is the order BENCHMARK.json lists them in
PER_LAYER = {
    "seeds.mix.calls": ("count", "lower"),
    "seeds.stream.calls": ("count", "lower"),
    "seeds.stream.self_s": ("s", "lower"),
    "env.task_spec.calls": ("count", "lower"),
    "env.task_spec.self_s": ("s", "lower"),
    "env.step.calls": ("count", "lower"),
    "env.step.us_per_call": ("us", "lower"),
    "env.corrupt.self_s": ("s", "lower"),
    "env.replay.calls": ("count", "lower"),
    "env.replay.self_s": ("s", "lower"),
    "verifier.quality.self_s": ("s", "lower"),
    "verifier.score_candidates.calls": ("count", "lower"),
    "verifier.score_candidates.self_s": ("s", "lower"),
    "policy.action_distribution.self_s": ("s", "lower"),
    "policy.sample_candidates.self_s": ("s", "lower"),
    "policy.teacher_act.calls": ("count", "lower"),
    "policy.teacher_act.self_s": ("s", "lower"),
    "features.extract.calls": ("count", "lower"),
    "features.extract.us_per_call": ("us", "lower"),
    "features.apply_mask.self_s": ("s", "lower"),
    "router.predict.calls": ("count", "lower"),
    "router.predict.rows": ("count", "lower"),
    "router.predict.us_per_row": ("us", "lower"),
    "router.logits_train.self_s": ("s", "lower"),
    "router.backward.self_s": ("s", "lower"),
    "router.batch_objective.self_s": ("s", "lower"),
    "router.train_router.self_s": ("s", "lower"),
    "router.train.steps": ("count", "lower"),
    "router.fit_temperature.self_s": ("s", "lower"),
    "router.select_threshold.self_s": ("s", "lower"),
    "runtime.calibrate_thresholds.self_s": ("s", "lower"),
    "domain.write_rljson.self_s": ("s", "lower"),
    "domain.write_rljson.bytes": ("B", "lower"),
    "domain.write_rljson.records": ("count", "lower"),
    "domain.read_rljson.self_s": ("s", "lower"),
    "domain.read_rljson.records": ("count", "lower"),
    "domain.episode_to_dict.self_s": ("s", "lower"),
    "domain.episode_from_dict.self_s": ("s", "lower"),
    "domain.bytes_per_step": ("B", "lower"),
    "pipeline.load_episodes.self_s": ("s", "lower"),
    "pipeline.load_routing_examples.self_s": ("s", "lower"),
    "policy.train_bc.self_s": ("s", "lower"),
    "policy.bc_loss_and_grad.calls": ("count/epoch", "lower"),
    "distill.build_preferences.self_s": ("s", "lower"),
    "distill.train_recovery.self_s": ("s", "lower"),
    "evaluation.compute_metrics.calls": ("count", "lower"),
    "evaluation.compute_metrics.self_s": ("s", "lower"),
    "runtime.run_episode.calls": ("count", "lower"),
    "runtime.run_episode.ms_p50": ("ms", "lower"),
    "runtime.run_episode.ms_p99": ("ms", "lower"),
    "runtime.steps_per_episode": ("count", "lower"),
    "runtime.escalations_wanted": ("count", "lower"),
    "runtime.escalations_executed": ("count", "lower"),
    "runtime.escalation_exec_ratio": ("ratio", "higher"),
    **{f"pipeline.{stage}.s": ("s", "lower") for stage in STAGE_SPANS},
    "trace_overhead_frac": ("ratio", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Every per-layer metric except trace_overhead_frac; 0 where a layer did not run."""
    st = tr.stats
    c = tr.counters
    calls = lambda n: st[n].calls if n in st else 0  # noqa: E731
    self_s = lambda n: st[n].self_ns / 1e9 if n in st else 0.0  # noqa: E731
    incl_us = lambda n: st[n].incl_ns / 1e3 if n in st else 0.0  # noqa: E731

    out: dict[str, float] = {}
    for key in PER_LAYER:
        if key.endswith(".calls") and key != "policy.bc_loss_and_grad.calls":
            out[key] = calls(key[: -len(".calls")])
        elif key.endswith(".self_s") and key[: -len(".self_s")] in st:
            out[key] = self_s(key[: -len(".self_s")])
        elif key.endswith(".us_per_call"):
            name = key[: -len(".us_per_call")]
            out[key] = _ratio(incl_us(name), calls(name))
        elif key.startswith("pipeline.") and key.endswith(".s"):
            out[key] = incl_us(key[: -len(".s")]) / 1e6
    out["router.predict.rows"] = c.get("router.predict.rows", 0)
    out["router.predict.us_per_row"] = _ratio(incl_us("router.predict"),
                                              c.get("router.predict.rows", 0))
    out["router.train.steps"] = calls("router.batch_objective")
    out["runtime.calibrate_thresholds.self_s"] = (
        self_s("runtime.calibrate_entropy_threshold")
        + self_s("runtime.calibrate_heuristic_threshold")
    )
    out["domain.write_rljson.bytes"] = c.get("domain.write_rljson.bytes", 0)
    out["domain.write_rljson.records"] = c.get("domain.write_rljson.records", 0)
    out["domain.read_rljson.records"] = c.get("domain.read_rljson.records", 0)
    out["domain.bytes_per_step"] = _ratio(c.get("episode_file.bytes", 0),
                                          c.get("episode_file.steps", 0))
    out["policy.bc_loss_and_grad.calls"] = _ratio(
        calls("policy.bc_loss_and_grad"), c.get("policy.train_bc.accepted_epochs", 0)
    )
    ms = tr.durations_ms("runtime.run_episode")
    out["runtime.run_episode.ms_p50"] = float(np.percentile(ms, 50)) if ms.size else 0.0
    out["runtime.run_episode.ms_p99"] = float(np.percentile(ms, 99)) if ms.size else 0.0
    out["runtime.steps_per_episode"] = _ratio(c.get("runtime.run_episode.steps", 0),
                                              calls("runtime.run_episode"))
    wanted = c.get("escalations.wanted", 0)
    executed = c.get("escalations.executed", 0)
    out["runtime.escalations_wanted"] = wanted
    out["runtime.escalations_executed"] = executed
    out["runtime.escalation_exec_ratio"] = _ratio(executed, wanted)
    return {key: out.get(key, 0.0) for key in PER_LAYER if key != "trace_overhead_frac"}
