"""Shared data model: configs, contexts, episodes, routing examples,
preference pairs, splits, and the one module that reads and writes artifact
files.

All containers are immutable value objects after construction and can be
shared read-only across parallel workers. Episodes, routing seeds and
preference pairs serialize to line-delimited JSON ("rljson": a header line
naming the record `schema`, then one record per line holding each fact
once, its per-step values in columns) so datasets stream and diff cleanly.
A fixed-width float column is one base64 string of little-endian float64
bytes (`pack_floats`), which keeps every bit and writes in a fraction of
the time and bytes decimal text takes.

An episode in memory is the columns of its record, its float columns
read-only float64 arrays, so encoding and decoding it packs and unpacks
columns and builds no per-step object; `PerturbedEpisode.steps` gives one
step's values as a `StepView` when a reader asks for it. An episode has two
record formats: `episode@5` holds every column, and `routed-episode@1` only
the columns that evaluation reads, for the rollouts whose steps a rule
routes. A `pairs@3` record names its context as a step of an episode.
"""

from __future__ import annotations

import base64
import csv
import io
import json
import math
import os
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate, chain
from pathlib import Path

import numpy as np

PERTURBATION_FAMILIES = ("ToolFlaky", "PartialObs", "Injection", "Distractor")

EPISODE_SCHEMA = "episode@5"
ROUTED_EPISODE_SCHEMA = "routed-episode@1"
ROUTING_SCHEMA = "routing-seed@3"
PAIRS_SCHEMA = "pairs@3"
SPLITS = ("train", "valid", "test")
# where a preference pair's ranking came from
SOURCE_VERIFIER = "VerifierRanked"
SOURCE_TEACHER = "TeacherRecovered"

# risk features per step (layout in features.py)
FEATURE_DIM = 15


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


def require_number(name: str, value, positive: bool) -> None:
    """Raise ValueError unless `value` is a real number > 0 (>= 0 unless
    `positive`); a bool is not a number here."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not (value > 0 if positive else value >= 0)):
        raise ValueError(f"{name} must be a number {'>' if positive else '>='} 0, got {value!r}")


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
        for name in ("state_count", "action_count", "horizon", "goal_vocab_size", "rng_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.state_count < 5:
            raise ConfigError("state_count must be at least 5")
        if self.action_count < 4:
            raise ConfigError("action_count must be at least 4")
        if self.horizon < 2:
            raise ConfigError("horizon must be at least 2")
        for fam, inten in self.family_intensities.items():
            if fam not in PERTURBATION_FAMILIES:
                raise ConfigError(f"unknown perturbation family {fam!r}")
            require_number(f"intensity for {fam}", inten, False)
            if inten > 1.0:
                raise ConfigError(f"intensity for {fam} must lie in [0, 1]")
        require_number("storm_fraction", self.storm_fraction, False)
        if self.storm_fraction > 1.0:
            raise ConfigError("storm_fraction must lie in [0, 1]")
        require_number("storm_boost", self.storm_boost, True)
        if self.storm_boost < 1.0:
            raise ConfigError("storm_boost must be at least 1")

    def intensity(self, family: str) -> float:
        return float(self.family_intensities.get(family, 0.0))


@dataclass(frozen=True)
class Context:
    """What the agent sees at one step: goal, this step's observation, past
    actions, and the running count of goal and observation tokens seen."""

    goal: tuple[int, ...]
    observation: tuple[int, ...]
    actions: tuple[int, ...]
    tokens_seen: int

    def __post_init__(self):
        if self.tokens_seen < len(self.goal) + len(self.observation):
            raise ValueError("tokens_seen is less than the goal and observation hold")

    @property
    def step_index(self) -> int:
        return len(self.actions)

    def advanced(self, action: int, observation: tuple[int, ...]) -> "Context":
        return Context(goal=self.goal, observation=observation,
                       actions=self.actions + (int(action),),
                       tokens_seen=self.tokens_seen + len(observation))


@dataclass(frozen=True)
class PerturbationSeed:
    """Latent seed indexing the observation-corruption channel."""

    z: int

    def __post_init__(self):
        if self.z < 0:
            raise ValueError("perturbation seed must be unsigned")


# one step of an episode, built from its columns when `PerturbedEpisode.steps`
# is read; a teacher step has no candidates and no routing state
StepView = namedtuple("StepView", ("context", "candidates", "verifier_scores", "chosen_action",
                                   "executor", "features", "router_prob", "decision",
                                   "budget_remaining"))


# the columns of an episode that describe its step-tree nodes: what each step
# saw and weighed, all a function of (config, task, z, action prefix)
NODE_COLUMNS = ("observations", "candidates", "candidate_logps", "verifier_scores", "features")


@dataclass(frozen=True, eq=False)
class PerturbedEpisode:
    """One rollout under a perturbation seed with a binary outcome, its steps
    held as the columns of its record.

    Step t saw `observations[t]`, after the goal and the actions before it;
    it weighed `candidates[t]`, whose log-probs and verifier scores are
    `candidate_logps[a:b]` and `verifier_scores[a:b]` for (a, b) =
    `offsets[t:t + 2]`; it ran `actions[t]` on `executors[t]`. `features` is
    one (T, 15) row per step, or None (teacher steps); `router_probs` and
    `decisions` hold None on steps that no router or rule saw. `llm_calls`
    and each step's budget left are counted from `executors` and
    `budget_limit`. The float columns are read-only float64 copies.

    An episode decoded from a `routed-episode@1` record holds none of the
    `NODE_COLUMNS` (each is None, as are `offsets`), and its steps hold None
    where they would read one. Construction checks whole columns once: the
    node columns all present (features may be None) or all None, equal
    lengths, one log-prob and one score per candidate, scores and router
    probabilities in [0, 1], executors and the budget. Contexts are derived
    from the columns, so they always chain. Two episodes are equal when
    their records and kinds are, so packed floats compare bit for bit.
    """

    task_id: int
    seed: PerturbationSeed
    success: bool
    budget_limit: int | None
    kind: str
    goal: tuple[int, ...]
    observations: tuple[tuple[int, ...], ...] | None
    actions: tuple[int, ...]
    executors: tuple[str, ...]
    candidates: tuple[tuple[int, ...], ...] | None
    candidate_logps: np.ndarray | None
    verifier_scores: np.ndarray | None
    features: np.ndarray | None
    router_probs: tuple[float | None, ...]
    decisions: tuple[bool | None, ...]
    offsets: tuple[int, ...] | None = field(init=False, repr=False)

    def __post_init__(self):
        held = self.observations is not None
        if any((getattr(self, name) is not None) != held for name in NODE_COLUMNS[1:4]) or (
                not held and self.features is not None):
            raise ValueError("an episode holds all of its node columns or none")
        for name in ("candidate_logps", "verifier_scores", "features"):
            if getattr(self, name) is not None:
                column = np.array(getattr(self, name), dtype=np.float64)
                column.flags.writeable = False
                object.__setattr__(self, name, column)
        n = len(self.actions)
        if any(len(column) != n for column in (self.executors, self.router_probs, self.decisions)):
            raise ValueError("episode step columns differ in length")
        object.__setattr__(self, "offsets", (0, *accumulate(map(len, self.candidates)))
                           if held else None)
        if held:
            self._check_nodes(n)
        if not {"SLM", "LLM"}.issuperset(self.executors):
            raise ValueError("executor must be 'SLM' or 'LLM'")
        if any(p is not None and not 0.0 <= p <= 1.0 for p in self.router_probs):
            raise ValueError("router probability must lie in [0, 1]")
        if self.budget_limit is not None and self.llm_calls > self.budget_limit:
            raise ValueError("llm_calls exceeds the budget limit")

    def _check_nodes(self, n: int) -> None:
        k, scores = self.offsets[-1], self.verifier_scores
        if len(self.observations) != n or len(self.candidates) != n:
            raise ValueError("episode step columns differ in length")
        if self.candidate_logps.shape != (k,) or scores.shape != (k,):
            raise ValueError(f"{k} candidates need as many log-probs and verifier scores, got "
                             f"{self.candidate_logps.shape} and {scores.shape}")
        if scores.size and not (scores.min() >= 0.0 and scores.max() <= 1.0):
            raise ValueError("verifier scores must lie in [0, 1]")
        if self.features is not None and self.features.shape != (n, FEATURE_DIM):
            raise ValueError(f"an episode's {n} steps must all hold {FEATURE_DIM} features or "
                             f"none, got an array of shape {self.features.shape}")

    def __eq__(self, other):
        if not isinstance(other, PerturbedEpisode):
            return NotImplemented
        return _record(self) == _record(other)

    @property
    def llm_calls(self) -> int:
        """The number of steps the LLM ran."""
        return self.executors.count("LLM")

    def contexts(self) -> list[Context]:
        """Each step's context: the goal, the step's observation, the actions
        before it and the running count of goal and observation tokens."""
        out, tokens = [], len(self.goal)
        for t, observation in enumerate(self.observations):
            tokens += len(observation)
            out.append(Context(self.goal, observation, self.actions[:t], tokens))
        return out

    @property
    def steps(self) -> tuple:
        """The steps as `StepView`s, built from the columns on every read;
        without node columns, a step's context, candidates, scores and
        features are None."""
        n = len(self.actions)
        contexts = candidates = scores = features = (None,) * n
        if self.observations is not None:
            logps, flat = self.candidate_logps.tolist(), self.verifier_scores.tolist()
            bounds = list(zip(self.offsets, self.offsets[1:]))
            contexts = self.contexts()
            candidates = [tuple(zip(c, logps[a:b])) for c, (a, b) in zip(self.candidates, bounds)]
            scores = [tuple(flat[a:b]) for a, b in bounds]
            if self.features is not None:
                features = map(tuple, self.features.tolist())
        left = (None,) * n if self.budget_limit is None else [
            self.budget_limit - used for used in accumulate(e == "LLM" for e in self.executors)]
        return tuple(map(StepView, contexts, candidates, scores, self.actions, self.executors,
                         features, self.router_probs, self.decisions, left))


@dataclass(frozen=True)
class RoutingExample:
    """One (features, episode-failure label) pair tagged with its seed."""

    features: tuple[float, ...]
    label: int
    seed_id: int
    split: str = "train"

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError("routing label must be 0 or 1")
        if self.seed_id < 0:
            raise ValueError("routing example must carry its originating seed id")
        if self.split not in SPLITS:
            raise ValueError(f"routing split must be one of {SPLITS}, got {self.split!r}")


@dataclass(frozen=True)
class PreferencePair:
    """One recovery-distillation preference: a_plus over a_minus at context,
    step `context.step_index` of pool episode `episode` (None outside a pool)."""

    context: Context
    a_plus: int
    a_minus: int
    source: str
    episode: int | None = None

    def __post_init__(self):
        if self.a_plus == self.a_minus:
            raise ValueError("preference pair needs distinct actions")
        if self.source not in (SOURCE_VERIFIER, SOURCE_TEACHER):
            raise ValueError(f"unknown pair source {self.source!r}")


@dataclass(frozen=True)
class CostSpec:
    """Routing surrogate costs: local cost, escalation cost, miss penalty."""

    c_slm: float = 1.0
    c_llm: float = 50.0
    kappa: float = 98.0

    def __post_init__(self):
        for name in ("c_slm", "c_llm", "kappa"):
            require_number(name, getattr(self, name), True)


@dataclass(frozen=True)
class CVaRSpec:
    """Tail-risk constraint: tail mass, budget, Brier weight, initial multiplier."""

    alpha: float = 0.20
    epsilon: float = 0.10
    lambda_b: float = 1.0
    lambda_init: float = 1.0

    def __post_init__(self):
        require_number("alpha", self.alpha, True)
        if self.alpha > 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        require_number("epsilon", self.epsilon, True)
        require_number("lambda_b", self.lambda_b, False)
        require_number("lambda_init", self.lambda_init, False)


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

def _require_types(what: str, values, *types) -> None:
    """Raise ValueError unless each value's type is one of `types` (a bool is no int)."""
    if not set(types).issuperset(map(type, values)):
        raise ValueError(f"{what} must be " + " or ".join(t.__name__ for t in types))


def pack_floats(values) -> str:
    """A sequence or array of finite floats, in C order, as one base64 string
    of little-endian float64 bytes; a NaN or an infinity raises ValueError."""
    column = np.ascontiguousarray(values, dtype="<f8")
    if not np.isfinite(column).all():
        raise ValueError("non-finite number in a packed float column")
    return base64.b64encode(column.tobytes()).decode("ascii")


def unpack_floats(text: str, count: int) -> np.ndarray:
    """The `count` floats of a `pack_floats` string, as a read-only float64
    array; text that is not base64, a block of any other length and a
    non-finite value raise ValueError."""
    raw = base64.b64decode(text, validate=True)
    if len(raw) != 8 * count:
        raise ValueError(f"packed float column holds {len(raw)} bytes, not {8 * count}")
    values = np.frombuffer(raw, dtype="<f8")
    if not np.isfinite(values).all():
        raise ValueError("non-finite number in a packed float column")
    return values


def routed_episode_to_dict(episode: PerturbedEpisode) -> dict:
    """The `routed-episode@1` record of an episode: its id, seed, outcome,
    budget, goal and the per-step actions, executors, router probabilities
    and decisions, which is all that evaluation reads. The `NODE_COLUMNS`
    are left out, each a function of (config, task, z, action prefix), and
    so is `kind`, which the file header's `variant` gives."""
    return {
        "task_id": episode.task_id,
        "z": episode.seed.z,
        "success": episode.success,
        "budget_limit": episode.budget_limit,
        "goal": episode.goal,
        "actions": episode.actions,
        "executors": episode.executors,
        "router_probs": episode.router_probs,
        "decisions": episode.decisions,
    }


def episode_to_dict(episode: PerturbedEpisode) -> dict:
    """The `episode@5` record of an episode: the routed record's columns,
    its `kind` and its node columns.

    A step's context is stored as its observation alone: the goal once per
    episode, and the action prefix and `tokens_seen` rebuilt on decode.
    `candidates` holds each step's candidate actions. `candidate_logps` and
    `verifier_scores` are each one `pack_floats` block of the sum of K_t
    floats in step order, split on read by the length of each step's action
    list (a teacher step has K = 0). `features` is one block of T x 15
    floats, or null when the episode holds none. Every packed value is a
    little-endian float64 and must be finite.
    """
    return {
        **routed_episode_to_dict(episode),
        "kind": episode.kind,
        "observations": episode.observations,
        "candidates": episode.candidates,
        "candidate_logps": pack_floats(episode.candidate_logps),
        "verifier_scores": pack_floats(episode.verifier_scores),
        "features": None if episode.features is None else pack_floats(episode.features),
    }


def _record(episode: PerturbedEpisode) -> dict:
    """The columns an episode holds, with its kind, as its record stores them."""
    if episode.observations is None:
        return {**routed_episode_to_dict(episode), "kind": episode.kind}
    return episode_to_dict(episode)


def _routed_columns(d: dict) -> dict:
    """The fields of a routed record's columns, each value of the JSON type
    its writer wrote."""
    _require_types("an id, token or action", chain((d["task_id"], d["z"]), d["goal"],
                                                   d["actions"]), int)
    _require_types("success", (d["success"],), bool)
    _require_types("budget_limit", (d["budget_limit"],), int, type(None))
    _require_types("a decision", d["decisions"], bool, type(None))
    _require_types("a router probability", d["router_probs"], float, int, type(None))
    return dict(task_id=d["task_id"], seed=PerturbationSeed(d["z"]), success=d["success"],
                budget_limit=d["budget_limit"], goal=tuple(d["goal"]),
                actions=tuple(d["actions"]), executors=tuple(d["executors"]),
                router_probs=tuple(d["router_probs"]), decisions=tuple(d["decisions"]))


def routed_episode_from_dict(d: dict, kind: str) -> PerturbedEpisode:
    """The episode of one `routed-episode@1` record of a `kind` file, without
    node columns."""
    return PerturbedEpisode(kind=kind, **_routed_columns(d),
                            **dict.fromkeys(NODE_COLUMNS))


def episode_from_dict(d: dict) -> PerturbedEpisode:
    """The episode of one `episode@5` record, each value of the JSON type its
    writer wrote."""
    observations = tuple(map(tuple, d["observations"]))
    candidates = tuple(map(tuple, d["candidates"]))
    _require_types("a token or candidate", chain(*observations, *candidates), int)
    _require_types("kind", (d["kind"],), str)
    columns = _routed_columns(d)
    n_candidates = sum(map(len, candidates))
    return PerturbedEpisode(
        kind=d["kind"],
        observations=observations,
        candidates=candidates,
        candidate_logps=unpack_floats(d["candidate_logps"], n_candidates),
        verifier_scores=unpack_floats(d["verifier_scores"], n_candidates),
        features=(None if d["features"] is None else unpack_floats(
            d["features"], FEATURE_DIM * len(columns["actions"])).reshape(-1, FEATURE_DIM)),
        **columns,
    )


# T rows of 15 float64s are 120*T bytes, which base64 writes as 160*T characters
_ROW_CHARS = 4 * 8 * FEATURE_DIM // 3


def routing_record(seed_id: int, split: str, episode: PerturbedEpisode) -> dict:
    """One routing seed from its SLM-only episode: the features of every step
    as one `pack_floats` block of T x 15 little-endian float64s, each finite,
    in step order, and the episode-failure label they all carry (early steps
    that looked fine included: labels mark residual episode risk, not step
    correctness)."""
    if episode.features is None:
        raise ValueError("a routing seed needs an episode whose steps hold features")
    return {"seed_id": seed_id, "split": split,
            "label": 0 if episode.success else 1,
            "features": pack_floats(episode.features)}


def routing_seed_from_dict(d: dict) -> list[RoutingExample]:
    """The rows of one routing-seed record, in step order."""
    seed_id, label, split = d["seed_id"], d["label"], d["split"]
    _require_types("seed_id and label", (seed_id, label), int)
    # a block that is not whole rows is refused against its nearest row count
    rows = unpack_floats(d["features"], FEATURE_DIM * round(len(d["features"]) / _ROW_CHARS))
    return [RoutingExample(tuple(features), label, seed_id, split)
            for features in rows.reshape(-1, FEATURE_DIM).tolist()]


def pair_record(pair: PreferencePair) -> dict:
    """The `pairs@3` record of a pooled preference pair: its context named
    as step `step` of pool episode `episode`, and its ranking."""
    return {"episode": pair.episode, "step": pair.context.step_index, "a_plus": pair.a_plus,
            "a_minus": pair.a_minus, "source": pair.source}


def pair_from_dict(d: dict, pool, action_count: int | None = None) -> PreferencePair:
    """The preference pair of a `pairs@3` record, its context step `step` of
    `pool[episode]`. A reference to no step of the pool, and an action
    outside [0, action_count) when a count is given, raise ValueError."""
    e, t, plus, minus = d["episode"], d["step"], d["a_plus"], d["a_minus"]
    _require_types("episode, step, a_plus and a_minus", (e, t, plus, minus), int)
    # the signs are checked here, since pool[-1] would be the last episode
    if not (0 <= e < len(pool) and 0 <= t < len(pool[e].actions)):
        raise ValueError(f"the pool of {len(pool)} episodes holds no step {t} of an episode {e}")
    if action_count is not None and not (0 <= plus < action_count and 0 <= minus < action_count):
        raise ValueError(f"actions {plus} and {minus} are not both among {action_count}")
    return PreferencePair(pool[e].contexts()[t], plus, minus, d["source"], e)


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


# a NaN or an infinity is no JSON number: no artifact line or .json file holds
# one, and a read refuses the NaN/Infinity/-Infinity constants Python's json
# would accept
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def _refuse_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def _json_line(obj) -> bytes:
    return (_ENCODER.encode(obj) + "\n").encode()


def _parse(data: bytes, offset: int, path) -> dict:
    try:
        rec = json.loads(data, parse_constant=_refuse_constant)
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
        fh.write((json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
                  + "\n").encode())


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


def read_rljson(path, schema: str):
    """Yield (byte_offset, dict) per record; the header line, which must name
    the record format `schema`, is not yielded.

    Another header schema, a malformed line and a record count that differs
    from the header's `count` raise RecordFormatError at their offset.
    """
    with open(path, "rb") as fh:
        first = fh.readline()
        header = _parse(first, 0, path)
        if header.get("schema") != schema:
            raise RecordFormatError(f"{path}: header schema is {header.get('schema')!r}, "
                                    f"not {schema}")
        count = header.get("count")
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


def decode_records(path, schema: str, decode) -> list:
    """`decode` applied to every `schema` record of an rljson file; a record
    it rejects raises RecordFormatError at that record's offset."""
    out = []
    for offset, rec in read_rljson(path, schema):
        try:
            out.append(decode(rec))
        except (KeyError, TypeError, ValueError) as exc:
            raise RecordFormatError(f"{path}: invalid record: {exc!r}", offset) from exc
    return out


def write_arrays(path, header: dict, arrays: dict) -> None:
    """Checkpoint: a JSON header line naming each array's shape, then the
    arrays as little-endian float64 bytes in name order. An array holding a
    NaN or an infinity raises RecordFormatError before any byte is written."""
    names = sorted(arrays)
    for k in names:
        if not np.isfinite(arrays[k]).all():
            raise RecordFormatError(f"{path}: array {k} holds a non-finite value")
    with _atomic_write(path) as fh:
        fh.write(_json_line({**header, "arrays": {k: list(np.shape(arrays[k])) for k in names}}))
        for k in names:
            fh.write(np.ascontiguousarray(arrays[k], dtype="<f8").tobytes())


def read_arrays(path, schema: str, names) -> tuple[dict, dict]:
    """(header, name -> array) of a `write_arrays` checkpoint.

    The schema tag, the array names and shapes and the exact body length are
    checked before any body byte is interpreted; an array holding a NaN or an
    infinity is refused at its offset.
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
        if not np.isfinite(arrays[k]).all():
            raise RecordFormatError(f"{path}: array {k} holds a non-finite value",
                                    len(first) + pos)
        pos += 8 * n
    return header, arrays
