"""Shared data model: configs, contexts, episodes, routing examples, splits,
and the one module that reads and writes artifact files.

All containers are immutable value objects after construction and can be
shared read-only across parallel workers. Episode and routing records
serialize to line-delimited JSON ("rljson": a header line, then one
self-describing record per line) so datasets stream and diff cleanly.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PERTURBATION_FAMILIES = ("ToolFlaky", "PartialObs", "Injection", "Distractor")

EPISODE_SCHEMA = "episode@1"
ROUTING_SCHEMA = "routing-example@1"


class ConfigError(ValueError):
    """Invalid configuration value or file."""


class StageOrderError(RuntimeError):
    """A pipeline stage was invoked before its predecessors produced artifacts."""


class RecordFormatError(ValueError):
    """Malformed serialized record; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(message, offset)  # a worker re-raises it from these args
        self.offset = offset

    def __str__(self) -> str:
        return f"{self.args[0]} (byte offset {self.offset})"


@dataclass(frozen=True)
class EnvConfig:
    """Simulator configuration: the POMDP tuple plus perturbation knobs."""

    state_count: int = 12
    action_count: int = 6
    horizon: int = 20
    goal_vocab_size: int = 64
    family_intensities: dict[str, float] = field(
        default_factory=lambda: {f: 0.0 for f in PERTURBATION_FAMILIES}
    )
    rng_seed: int = 42
    # seed-level severity: a storm_fraction of perturbation seeds amplify all
    # configured intensities (capped at 1), concentrating failures on a
    # heavy-tailed subset of seeds
    storm_fraction: float = 0.4
    storm_boost: float = 2.2

    def __post_init__(self):
        if self.state_count < 5:
            raise ConfigError("state_count must be at least 5")
        if self.action_count < 4:
            raise ConfigError("action_count must be at least 4")
        if self.horizon < 2:
            raise ConfigError("horizon must be at least 2")
        for fam, inten in self.family_intensities.items():
            if fam not in PERTURBATION_FAMILIES:
                raise ConfigError(f"unknown perturbation family {fam!r}")
            if not (0.0 <= inten <= 1.0):
                raise ConfigError(f"intensity for {fam} must lie in [0, 1]")
        if not (0.0 <= self.storm_fraction <= 1.0):
            raise ConfigError("storm_fraction must lie in [0, 1]")
        if self.storm_boost < 1.0:
            raise ConfigError("storm_boost must be at least 1")

    def intensity(self, family: str) -> float:
        return float(self.family_intensities.get(family, 0.0))


@dataclass(frozen=True)
class Context:
    """Observable history at one step: goal, observations so far, past actions."""

    goal: tuple[int, ...]
    observations: tuple[tuple[int, ...], ...]
    actions: tuple[int, ...]
    step_index: int

    def __post_init__(self):
        if len(self.observations) != self.step_index + 1:
            raise ValueError("context must hold exactly step_index + 1 observations")
        if len(self.actions) != self.step_index:
            raise ValueError("context must hold exactly step_index past actions")

    @property
    def last_observation(self) -> tuple[int, ...]:
        return self.observations[-1]

    def tokens_seen(self) -> int:
        return len(self.goal) + sum(len(o) for o in self.observations)

    def advanced(self, action: int, observation: tuple[int, ...]) -> "Context":
        return Context(
            goal=self.goal,
            observations=self.observations + (tuple(observation),),
            actions=self.actions + (int(action),),
            step_index=self.step_index + 1,
        )


@dataclass(frozen=True)
class PerturbationSeed:
    """Latent seed indexing the observation-corruption channel."""

    z: int

    def __post_init__(self):
        if self.z < 0:
            raise ValueError("perturbation seed must be unsigned")


@dataclass(frozen=True)
class StepRecord:
    """One executed step: candidates, verifier scores, routing state.

    Teacher demonstration steps carry empty candidate/score lists; routed
    steps record everything the router saw, making the record the unit of
    evaluation and audit.
    """

    context: Context
    candidates: tuple[tuple[int, float], ...]
    verifier_scores: tuple[float, ...]
    chosen_action: int
    executor: str
    features: tuple[float, ...] | None = None
    router_prob: float | None = None
    decision: bool | None = None
    budget_remaining: int | None = None

    def __post_init__(self):
        if len(self.candidates) != len(self.verifier_scores):
            raise ValueError("candidate and score lists must have equal length")
        if any(not (0.0 <= s <= 1.0) for s in self.verifier_scores):
            raise ValueError("verifier scores must lie in [0, 1]")
        if self.executor not in ("SLM", "LLM"):
            raise ValueError("executor must be 'SLM' or 'LLM'")
        if self.router_prob is not None and not (0.0 <= self.router_prob <= 1.0):
            raise ValueError("router probability must lie in [0, 1]")


@dataclass(frozen=True)
class PerturbedEpisode:
    """One rollout under a perturbation seed with a binary outcome."""

    task_id: int
    seed: PerturbationSeed
    steps: tuple[StepRecord, ...]
    success: bool
    llm_calls: int
    budget_limit: int | None = None
    kind: str = ""

    def __post_init__(self):
        recount = sum(1 for s in self.steps if s.executor == "LLM")
        if recount != self.llm_calls:
            raise ValueError(
                f"llm_calls={self.llm_calls} but {recount} steps ran on the LLM"
            )
        if self.budget_limit is not None and self.llm_calls > self.budget_limit:
            raise ValueError("llm_calls exceeds the budget limit")


@dataclass(frozen=True)
class RoutingExample:
    """One (features, episode-failure label) pair tagged with its seed."""

    features: tuple[float, ...]
    label: int
    seed_id: int
    step_index: int
    split: str = "train"

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError("routing label must be 0 or 1")
        if self.seed_id < 0:
            raise ValueError("routing example must carry its originating seed id")


@dataclass(frozen=True)
class CostSpec:
    """Routing surrogate costs: local cost, escalation cost, miss penalty."""

    c_slm: float = 1.0
    c_llm: float = 50.0
    kappa: float = 98.0

    def __post_init__(self):
        if self.c_slm <= 0 or self.c_llm <= 0 or self.kappa <= 0:
            raise ValueError("all routing costs must be strictly positive")


@dataclass(frozen=True)
class CVaRSpec:
    """Tail-risk constraint: tail mass, budget, Brier weight, initial multiplier."""

    alpha: float = 0.20
    epsilon: float = 0.10
    lambda_b: float = 1.0
    lambda_init: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be strictly positive")
        if self.lambda_b < 0 or self.lambda_init < 0:
            raise ValueError("multiplier weights must be nonnegative")


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint task-id sets produced by `derive_splits`."""

    train: tuple[int, ...]
    valid: tuple[int, ...]
    test: tuple[int, ...]
    fractions: tuple[float, float, float] = (0.70, 0.15, 0.15)
    split_seed: int = 42

    def __post_init__(self):
        a, b, c = set(self.train), set(self.valid), set(self.test)
        if a & b or a & c or b & c:
            raise ValueError("splits must be pairwise disjoint")


def _apportion(n: int, fractions: tuple[float, float, float]) -> tuple[int, int, int]:
    """Largest-remainder apportionment, forced to keep every split nonempty."""
    ideal = [f * n for f in fractions]
    sizes = [int(math.floor(v)) for v in ideal]
    remaining = n - sum(sizes)
    order = sorted(range(3), key=lambda i: (-(ideal[i] - sizes[i]), i))
    for i in order[:remaining]:
        sizes[i] += 1
    while min(sizes) == 0:
        sizes[sizes.index(max(sizes))] -= 1
        sizes[sizes.index(0)] += 1
    return tuple(sizes)  # type: ignore[return-value]


def derive_splits(
    task_ids,
    fractions: tuple[float, float, float] = (0.70, 0.15, 0.15),
    seed: int = 42,
) -> DatasetSplit:
    """Deterministic task-level split: sort, shuffle with the seed, cut.

    Sorting before the seeded shuffle makes the partition a pure function of
    the task-id *set*, so permuted input lists yield identical membership.
    """
    ids = sorted(int(t) for t in task_ids)
    if len(ids) != len(set(ids)):
        raise ValueError("task ids must be unique")
    if len(ids) < 3:
        raise ValueError("need at least 3 tasks so every split is nonempty")
    if len(fractions) != 3 or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must be a triple summing to 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    shuffled = [ids[i] for i in order]
    n_train, n_valid, _ = _apportion(len(ids), tuple(fractions))
    return DatasetSplit(
        train=tuple(sorted(shuffled[:n_train])),
        valid=tuple(sorted(shuffled[n_train : n_train + n_valid])),
        test=tuple(sorted(shuffled[n_train + n_valid :])),
        fractions=tuple(fractions),
        split_seed=seed,
    )


# --- serialization -----------------------------------------------------------


def _context_to_dict(ctx: Context) -> dict:
    return {
        "goal": list(ctx.goal),
        "observations": [list(o) for o in ctx.observations],
        "actions": list(ctx.actions),
        "step_index": ctx.step_index,
    }


def _context_from_dict(d: dict) -> Context:
    return Context(
        goal=tuple(d["goal"]),
        observations=tuple(tuple(o) for o in d["observations"]),
        actions=tuple(d["actions"]),
        step_index=int(d["step_index"]),
    )


def _step_to_dict(step: StepRecord) -> dict:
    return {
        "context": _context_to_dict(step.context),
        "candidates": [[a, lp] for a, lp in step.candidates],
        "verifier_scores": list(step.verifier_scores),
        "chosen_action": step.chosen_action,
        "executor": step.executor,
        "features": None if step.features is None else list(step.features),
        "router_prob": step.router_prob,
        "decision": step.decision,
        "budget_remaining": step.budget_remaining,
    }


def _step_from_dict(d: dict) -> StepRecord:
    return StepRecord(
        context=_context_from_dict(d["context"]),
        candidates=tuple((int(a), float(lp)) for a, lp in d["candidates"]),
        verifier_scores=tuple(float(s) for s in d["verifier_scores"]),
        chosen_action=int(d["chosen_action"]),
        executor=d["executor"],
        features=None if d["features"] is None else tuple(float(v) for v in d["features"]),
        router_prob=None if d["router_prob"] is None else float(d["router_prob"]),
        decision=d.get("decision"),
        budget_remaining=d.get("budget_remaining"),
    )


def episode_to_dict(episode: PerturbedEpisode) -> dict:
    return {
        "schema": EPISODE_SCHEMA,
        "task_id": episode.task_id,
        "z": episode.seed.z,
        "success": episode.success,
        "llm_calls": episode.llm_calls,
        "budget_limit": episode.budget_limit,
        "kind": episode.kind,
        "steps": [_step_to_dict(s) for s in episode.steps],
    }


def episode_from_dict(d: dict) -> PerturbedEpisode:
    if d.get("schema") != EPISODE_SCHEMA:
        raise RecordFormatError(f"unexpected episode schema {d.get('schema')!r}")
    return PerturbedEpisode(
        task_id=int(d["task_id"]),
        seed=PerturbationSeed(int(d["z"])),
        steps=tuple(_step_from_dict(s) for s in d["steps"]),
        success=bool(d["success"]),
        llm_calls=int(d["llm_calls"]),
        budget_limit=None if d["budget_limit"] is None else int(d["budget_limit"]),
        kind=d.get("kind", ""),
    )


def routing_example_to_dict(example: RoutingExample) -> dict:
    return {
        "schema": ROUTING_SCHEMA,
        "features": list(example.features),
        "label": example.label,
        "seed_id": example.seed_id,
        "step_index": example.step_index,
        "split": example.split,
    }


def routing_example_from_dict(d: dict) -> RoutingExample:
    if d.get("schema") != ROUTING_SCHEMA:
        raise RecordFormatError(f"unexpected routing schema {d.get('schema')!r}")
    return RoutingExample(
        features=tuple(float(v) for v in d["features"]),
        label=int(d["label"]),
        seed_id=int(d["seed_id"]),
        step_index=int(d["step_index"]),
        split=d.get("split", "train"),
    )


# --- artifact files ------------------------------------------------------------
#
# A write goes to a temp file beside the target and is renamed over it, so a
# crash mid-write leaves the old file or none, never a torn one. Every reader
# checks the layout before it trusts a byte.


@contextmanager
def _atomic_write(path):
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def _json_line(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode()


def _parse(data: bytes, offset: int, path) -> dict:
    try:
        rec = json.loads(data)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise RecordFormatError(f"{path}: malformed record: {getattr(exc, 'msg', exc)}",
                                offset + getattr(exc, "pos", 0)) from exc
    if not isinstance(rec, dict):
        raise RecordFormatError(f"{path}: record is not a JSON object", offset)
    return rec


class _Header(dict):
    """A parsed artifact header; reading a field it lacks is a format error."""

    def __init__(self, fields: dict, path):
        super().__init__(fields)
        self.path = path

    def __missing__(self, key):
        raise RecordFormatError(f"{self.path}: header lacks {key!r}")

    def typed(self, key, *types):
        """The field `key`, whose type must be one of `types` exactly, so a
        bool is not taken for an int."""
        value = self[key]
        if type(value) not in types:
            raise RecordFormatError(f"{self.path}: header field {key!r} is {value!r}, not "
                                    + " or ".join(t.__name__ for t in types))
        return value


def read_header(path) -> dict:
    """An artifact's header: the whole of a `.json` file, else its first line."""
    path = Path(path)
    with open(path, "rb") as fh:
        data = fh.read() if path.suffix == ".json" else fh.readline()
    return _Header(_parse(data, 0, path), path)


def write_json(path, payload: dict) -> None:
    with _atomic_write(path) as fh:
        fh.write((json.dumps(payload, sort_keys=True, indent=2) + "\n").encode())


def write_csv(path, rows: list[dict], columns: list[str]) -> None:
    buf = io.StringIO()
    csv.writer(buf).writerows([columns] + [[_csv_cell(r.get(k)) for k in columns] for r in rows])
    with _atomic_write(path) as fh:
        fh.write(buf.getvalue().encode())


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return value


def write_rljson(path, records, header: dict) -> None:
    """Header line (stamped with the record `count`), then one JSON object per
    record."""
    with _atomic_write(path) as fh:
        fh.write(_json_line({**header, "count": len(records)}))
        for rec in records:
            fh.write(_json_line(rec))


def read_rljson(path):
    """Yield (byte_offset, dict) per record; the header line is not yielded.

    A malformed line raises RecordFormatError at its offset, and so does a
    record count that differs from the header's `count`.
    """
    with open(path, "rb") as fh:
        first = fh.readline()
        count = _parse(first, 0, path).get("count")
        offset, seen = len(first), 0
        for raw in fh:
            line = raw.rstrip(b"\n")
            if line:
                yield offset, _parse(line, offset, path)
                seen += 1
            offset += len(raw)
    if seen != count:
        raise RecordFormatError(f"{path}: header count is {count!r}, file holds {seen} records",
                                offset)


def decode_records(path, decode) -> list:
    """`decode` applied to every record of an rljson file; a record it
    rejects raises RecordFormatError at that record's offset."""
    out = []
    for offset, rec in read_rljson(path):
        try:
            out.append(decode(rec))
        except (KeyError, TypeError, ValueError) as exc:
            raise RecordFormatError(f"{path}: invalid record: {exc!r}", offset) from exc
    return out


def write_arrays(path, header: dict, arrays: dict) -> None:
    """Checkpoint: a JSON header line naming each array's shape, then the
    arrays as little-endian float64 bytes in name order."""
    names = sorted(arrays)
    with _atomic_write(path) as fh:
        fh.write(_json_line({**header, "arrays": {k: list(np.shape(arrays[k])) for k in names}}))
        for k in names:
            fh.write(np.ascontiguousarray(arrays[k], dtype="<f8").tobytes())


def read_arrays(path, schema: str, names) -> tuple[dict, dict]:
    """(header, name -> array) of a `write_arrays` checkpoint.

    The schema tag, the array names and shapes and the exact body length are
    checked before any body byte is interpreted.
    """
    with open(path, "rb") as fh:
        first = fh.readline()
        body = fh.read()
    header = _Header(_parse(first, 0, path), path)
    if header.get("schema") != schema:
        raise RecordFormatError(f"{path}: not a {schema} checkpoint")
    shapes = header.get("arrays")
    if (not isinstance(shapes, dict) or sorted(shapes) != sorted(names) or not all(
            isinstance(s, list) and all(type(d) is int and d >= 0 for d in s)
            for s in shapes.values())):
        raise RecordFormatError(f"{path}: header does not describe arrays {sorted(names)}")
    size = 8 * sum(math.prod(s) for s in shapes.values())
    if len(body) != size:
        raise RecordFormatError(f"{path}: body holds {len(body)} bytes, header promises {size}",
                                len(first) + min(len(body), size))
    arrays, pos = {}, 0
    for k in sorted(shapes):
        n = math.prod(shapes[k])
        arrays[k] = np.frombuffer(body, dtype="<f8", count=n, offset=pos).reshape(shapes[k]).copy()
        pos += 8 * n
    return header, arrays
