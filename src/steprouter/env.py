"""Hazard-chain POMDP family with seed-driven observation corruption.

World model: positions 0..S-1 on a line. A task fixes a start position, an
ordered list of sub-goal positions, and a terminal position. The agent must
INTERACT at each sub-goal in order, then INTERACT at the terminal to succeed.
One action is a hazard: taking it ends the episode unrecoverably. Clean
observations carry a direction hint, so the task is solvable from
observations alone; corruption channels mask or replace exactly that signal,
which makes risk state-dependent rather than a property of the task prompt.

Latent dynamics are deterministic given (state, action); all corruption
randomness is a pure function of (z, t, family, token index).

Action ids: 0 = move left, 1 = move right, 2 = interact, 3 = hazard,
4.. = wait (no-ops). Invalid ids are absorbed as no-ops with a marker token.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import seeds
from .domain import ConfigError, Context, EnvConfig, PerturbationSeed

ACTION_LEFT = 0
ACTION_RIGHT = 1
ACTION_INTERACT = 2
ACTION_HAZARD = 3

MAX_SUBGOALS = 3

FAMILY_ORDER = ("ToolFlaky", "PartialObs", "Injection", "Distractor")


@dataclass(frozen=True)
class TokenMap:
    """Reserved token ids 0-3, then position/target/hint/progress/goal blocks."""

    state_count: int
    vocab_size: int

    mask: int = 0
    error: int = 1
    inject: int = 2
    distract: int = 3

    @property
    def pos_base(self) -> int:
        return 4

    @property
    def next_base(self) -> int:
        return 4 + self.state_count

    @property
    def hint_left(self) -> int:
        return 4 + 2 * self.state_count

    @property
    def hint_right(self) -> int:
        return self.hint_left + 1

    @property
    def hint_here(self) -> int:
        return self.hint_left + 2

    @property
    def prog_base(self) -> int:
        return self.hint_left + 3

    @property
    def goal_base(self) -> int:
        return self.prog_base + MAX_SUBGOALS + 1

    @property
    def lure(self) -> int:
        return self.goal_base + self.state_count

    @property
    def invalid(self) -> int:
        return self.lure + 1

    @property
    def filler_base(self) -> int:
        return self.invalid + 1

    @property
    def n_fillers(self) -> int:
        return self.vocab_size - self.filler_base

    def __post_init__(self):
        if self.n_fillers < 4:
            raise ConfigError(
                f"goal_vocab_size={self.vocab_size} too small for "
                f"state_count={self.state_count}; need at least {self.filler_base + 4}"
            )


@dataclass(frozen=True)
class LatentState:
    """Hidden simulator state; task_id identifies the active task layout."""

    task_id: int
    position: int
    carried_flags: int
    hazard_flags: int

    @property
    def subgoals_done(self) -> int:
        return self.carried_flags.bit_count()


@dataclass(frozen=True)
class PerturbationOp:
    family: str
    intensity: float

    def __post_init__(self):
        if self.family not in FAMILY_ORDER:
            raise ValueError(f"unknown perturbation family {self.family!r}")
        if not (0.0 <= self.intensity <= 1.0):
            raise ValueError("intensity must lie in [0, 1]")


@dataclass(frozen=True)
class TaskSpec:
    task_id: int
    start: int
    subgoals: tuple[int, ...]
    terminal: int

    def path_length(self) -> int:
        """Steps an optimal agent needs: moves along the chain plus interacts."""
        stops = (self.start, *self.subgoals, self.terminal)
        moves = sum(abs(b - a) for a, b in zip(stops, stops[1:]))
        return moves + len(self.subgoals) + 1


def apply_perturbation(
    obs: tuple[int, ...],
    op: PerturbationOp,
    z: int,
    t: int,
    tokens: TokenMap,
) -> tuple[int, ...]:
    """Apply one corruption family; randomness is pure in (z, t, family, idx)."""
    obs = tuple(obs)
    if op.intensity <= 0.0:
        return obs
    fam = op.family
    if fam == "ToolFlaky":
        if seeds.unit_uniform(z, t, fam) < op.intensity:
            return (tokens.error,) * len(obs)
        return obs
    if fam == "PartialObs":
        return tuple(
            tokens.mask if seeds.unit_uniform(z, t, fam, i) < op.intensity else tok
            for i, tok in enumerate(obs)
        )
    if fam == "Injection":
        if seeds.unit_uniform(z, t, fam) < op.intensity:
            return obs + (tokens.inject, tokens.inject, tokens.lure)
        return obs
    if fam == "Distractor":
        if seeds.unit_uniform(z, t, fam) < op.intensity:
            fillers = tuple(
                tokens.filler_base + seeds.mix(z, t, "filler", i) % tokens.n_fillers
                for i in range(2)
            )
            return obs + (tokens.distract,) + fillers
        return obs
    raise ValueError(fam)


def seed_severity(config: EnvConfig, z: int) -> float:
    """Per-seed intensity multiplier: 1 for calm seeds, storm_boost for the
    storm fraction. A pure function of z."""
    if seeds.unit_uniform(z, "severity") < config.storm_fraction:
        return config.storm_boost
    return 1.0


def sample_task_spec(config: EnvConfig, task_id: int) -> TaskSpec:
    """Task layout drawn from (rng_seed, task id); resampled until solvable
    within the horizon.

    Path lengths are kept in a narrow band so task difficulty is roughly
    homogeneous and episode risk is driven by the perturbation seed.
    """
    rng = seeds.stream(config.rng_seed, "task", task_id)
    max_k = min(MAX_SUBGOALS, config.state_count - 2)
    hi = max(2, config.horizon - 4)
    lo = max(2, config.horizon - 7)
    fallback = None
    for _ in range(512):
        k = 1 + int(rng.integers(max_k))
        picks = rng.choice(config.state_count, size=k + 2, replace=False)
        start, *subs, term = (int(v) for v in picks)
        task = TaskSpec(task_id, start, tuple(subs), term)
        if task.path_length() > hi:
            continue
        if task.path_length() >= lo:
            return task
        if fallback is None or task.path_length() > fallback.path_length():
            fallback = task
    if fallback is not None:
        return fallback
    # tiny horizons: interact twice at the start cell
    return TaskSpec(task_id, 0, (0,), 0)


@dataclass(frozen=True)
class HazardChainEnv:
    """Value object over a frozen config; rollouts across (task, seed) pairs
    can run in parallel.

    Two memos make a step O(1) in the values that do not change within a run:
    the layout of each task id (`task_spec`), and the corruption ops of each
    seed z (storm severity times base intensity, per enabled family). Both are
    keyed only on an int and derived from the config as it was at
    construction, so they can never go stale; a fresh env recomputes the same
    values bit for bit.
    """

    config: EnvConfig
    task_count: int
    tokens: TokenMap = field(init=False)
    _base_intensities: tuple[tuple[str, float], ...] = field(
        init=False, repr=False, compare=False
    )
    _tasks: dict = field(init=False, repr=False, compare=False)
    _ops: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.task_count < 1:
            raise ConfigError("task_count must be positive")
        cfg = self.config
        object.__setattr__(
            self, "tokens", TokenMap(cfg.state_count, cfg.goal_vocab_size)
        )
        object.__setattr__(
            self,
            "_base_intensities",
            tuple(
                (fam, cfg.intensity(fam))
                for fam in FAMILY_ORDER
                if fam in cfg.perturbation_families
            ),
        )
        object.__setattr__(self, "_tasks", {})
        object.__setattr__(self, "_ops", {})

    # --- tasks ---------------------------------------------------------------

    def task_spec(self, task_id: int) -> TaskSpec:
        """Deterministic task layout, sampled once per task id and memoized."""
        task = self._tasks.get(task_id)
        if task is None:
            task = self._tasks[task_id] = sample_task_spec(self.config, task_id)
        return task

    def goal_tokens(self, task: TaskSpec) -> tuple[int, ...]:
        base = self.tokens.goal_base
        return (base + task.start, *(base + g for g in task.subgoals), base + task.terminal)

    def parse_goal(self, goal: tuple[int, ...]) -> TaskSpec:
        """Recover the task layout from goal tokens (start, subgoals, terminal)."""
        base = self.tokens.goal_base
        positions = [tok - base for tok in goal]
        if len(positions) < 2 or any(
            not (0 <= p < self.config.state_count) for p in positions
        ):
            raise ValueError("goal tokens do not encode a task layout")
        return TaskSpec(-1, positions[0], tuple(positions[1:-1]), positions[-1])

    # --- latent dynamics -------------------------------------------------------

    def next_target(self, task: TaskSpec, state: LatentState) -> int:
        for i, g in enumerate(task.subgoals):
            if not state.carried_flags & (1 << i):
                return g
        return task.terminal

    def optimal_action(self, task: TaskSpec, state: LatentState) -> int:
        target = self.next_target(task, state)
        if state.position < target:
            return ACTION_RIGHT
        if state.position > target:
            return ACTION_LEFT
        return ACTION_INTERACT

    def transition(
        self, task: TaskSpec, state: LatentState, action: int
    ) -> tuple[LatentState, bool]:
        """Deterministic latent step; returns (next state, success fired)."""
        pos, carried, hazard = state.position, state.carried_flags, state.hazard_flags
        success = False
        if 0 <= action < self.config.action_count:
            if action == ACTION_LEFT:
                pos = max(0, pos - 1)
            elif action == ACTION_RIGHT:
                pos = min(self.config.state_count - 1, pos + 1)
            elif action == ACTION_INTERACT:
                pending = None
                for i in range(len(task.subgoals)):
                    if not carried & (1 << i):
                        pending = i
                        break
                if pending is not None:
                    if pos == task.subgoals[pending]:
                        carried |= 1 << pending
                elif pos == task.terminal and hazard == 0:
                    success = True
            elif action == ACTION_HAZARD:
                hazard |= 1
        return LatentState(state.task_id, pos, carried, hazard), success

    def replay(self, task: TaskSpec, actions) -> LatentState:
        state = LatentState(task.task_id, task.start, 0, 0)
        for a in actions:
            state, _ = self.transition(task, state, int(a))
        return state

    # --- observations ------------------------------------------------------------

    def clean_observation(self, task: TaskSpec, state: LatentState) -> tuple[int, ...]:
        tm = self.tokens
        target = self.next_target(task, state)
        if state.position < target:
            hint = tm.hint_right
        elif state.position > target:
            hint = tm.hint_left
        else:
            hint = tm.hint_here
        done = min(state.subgoals_done, MAX_SUBGOALS)
        return (
            tm.pos_base + state.position,
            tm.next_base + target,
            hint,
            tm.prog_base + done,
        )

    def perturbation_ops(self, z: int) -> tuple[PerturbationOp, ...]:
        """The enabled families at seed z's effective intensity, in
        FAMILY_ORDER, zero-intensity ones dropped; memoized per z."""
        ops = self._ops.get(z)
        if ops is None:
            severity = seed_severity(self.config, z)
            ops = tuple(
                PerturbationOp(fam, inten)
                for fam, base in self._base_intensities
                if (inten := min(1.0, base * severity)) > 0.0
            )
            self._ops[z] = ops
        return ops

    def corrupt(self, obs: tuple[int, ...], z: int, t: int) -> tuple[int, ...]:
        """Chain enabled families in fixed order (composite perturbation),
        at the seed's effective intensity."""
        for op in self.perturbation_ops(z):
            obs = apply_perturbation(obs, op, z, t, self.tokens)
        return obs

    # --- public episode interface ---------------------------------------------

    def reset(self, task_id: int, seed: PerturbationSeed) -> tuple[LatentState, Context]:
        if not (0 <= task_id < self.task_count):
            raise ValueError(f"unknown task id {task_id}")
        task = self.task_spec(task_id)
        state = LatentState(task_id, task.start, 0, 0)
        obs = self.corrupt(self.clean_observation(task, state), seed.z, 0)
        ctx = Context(goal=self.goal_tokens(task), observations=(obs,), actions=(), step_index=0)
        return state, ctx

    def step(
        self, state: LatentState, action: int, seed: PerturbationSeed, t: int
    ) -> tuple[LatentState, tuple[int, ...], bool, bool]:
        """Returns (state', observation, terminal, success); absorbs invalid actions."""
        if t >= self.config.horizon:
            raise ValueError("stepped past the horizon")
        task = self.task_spec(state.task_id)
        invalid = not (0 <= action < self.config.action_count)
        state2, success = self.transition(task, state, action)
        terminal = success or state2.hazard_flags != 0 or (t + 1) >= self.config.horizon
        obs = self.corrupt(self.clean_observation(task, state2), seed.z, t + 1)
        if invalid:
            obs = (self.tokens.invalid,) + obs
        return state2, obs, terminal, success

    def clean_variant(self) -> "HazardChainEnv":
        """Same tasks, all corruption intensities zeroed."""
        cfg = self.config
        clean_cfg = replace(
            cfg, family_intensities={f: 0.0 for f in cfg.perturbation_families}
        )
        return HazardChainEnv(clean_cfg, self.task_count)
