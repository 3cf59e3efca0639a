import base64
import json
import re
import struct
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steprouter.domain import (
    EPISODE_SCHEMA,
    NODE_COLUMNS,
    ROUTED_EPISODE_SCHEMA,
    ROUTING_SCHEMA,
    Context,
    CostSpec,
    CVaRSpec,
    EnvConfig,
    PerturbationSeed,
    PerturbedEpisode,
    PreferencePair,
    RecordFormatError,
    RoutingExample,
    StepView,
    derive_splits,
    episode_from_dict,
    episode_to_dict,
    pack_floats,
    pair_from_dict,
    pair_record,
    read_arrays,
    read_header,
    read_rljson,
    routed_episode_from_dict,
    routed_episode_to_dict,
    routing_record,
    routing_seed_from_dict,
    unpack_floats,
    write_arrays,
    write_json,
    write_rljson,
)
from steprouter.pipeline import load_episodes, load_routing_examples


def make_context(t=0):
    return Context(
        goal=(35, 36, 40),
        observation=(4 + t, 16, 29, 31),
        actions=tuple(1 for _ in range(t)),
        tokens_seen=3 + 4 * (t + 1),
    )


def make_episode(n_steps=3, success=True, llm_steps=(1,), budget=None):
    """An r2v episode whose step t saw make_context(t): two candidates a
    step, 15 features, router probability 0.25."""
    return PerturbedEpisode(
        task_id=3,
        seed=PerturbationSeed(987654321),
        success=success,
        budget_limit=budget,
        kind="r2v",
        goal=(35, 36, 40),
        observations=tuple(make_context(t).observation for t in range(n_steps)),
        actions=(1,) * n_steps,
        executors=tuple("LLM" if t in llm_steps else "SLM" for t in range(n_steps)),
        candidates=((1, 2),) * n_steps,
        candidate_logps=[-0.5, -1.25] * n_steps,
        verifier_scores=[0.7, 0.4] * n_steps,
        features=np.tile(np.arange(15) / 20, (n_steps, 1)),
        router_probs=(0.25,) * n_steps,
        decisions=tuple(t in llm_steps for t in range(n_steps)),
    )


def teacher_episode(n_steps=2):
    """A demonstration: every step on the LLM, no candidates, no routing state."""
    return PerturbedEpisode(
        task_id=0, seed=PerturbationSeed(1), success=True, budget_limit=None, kind="exp", goal=(35,), observations=((4,),) * n_steps,
        actions=(2,) * n_steps, executors=("LLM",) * n_steps, candidates=((),) * n_steps,
        candidate_logps=(), verifier_scores=(), features=None,
        router_probs=(None,) * n_steps, decisions=(None,) * n_steps)


class TestSplits:
    def test_paper_sizes_100_tasks(self):
        split = derive_splits(range(100), (0.70, 0.15, 0.15), seed=42)
        assert (len(split.train), len(split.valid), len(split.test)) == (70, 15, 15)

    def test_minimal_three_tasks(self):
        split = derive_splits([7, 3, 11], (0.34, 0.33, 0.33), seed=5)
        assert (len(split.train), len(split.valid), len(split.test)) == (1, 1, 1)
        assert set(split.train) | set(split.valid) | set(split.test) == {3, 7, 11}

    def test_permutation_invariance(self):
        # order invariance, brute forced over shuffles of the same id set
        ids = list(range(40))
        reference = derive_splits(ids, seed=42)
        rng = np.random.default_rng(0)
        for _ in range(10):
            shuffled = list(rng.permutation(ids))
            split = derive_splits(shuffled, seed=42)
            assert split == reference

    def test_deterministic(self):
        assert derive_splits(range(10), seed=9) == derive_splits(range(10), seed=9)

    def test_rejects_too_few_tasks(self):
        with pytest.raises(ValueError):
            derive_splits([1, 2])

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            derive_splits(range(10), (0.5, 0.2, 0.2))

    def test_union_and_disjointness(self):
        split = derive_splits(range(23), seed=3)
        all_ids = sorted(split.train + split.valid + split.test)
        assert all_ids == list(range(23))


HEADER = {"schema": EPISODE_SCHEMA, "stage": "test"}
ROUTED_HEADER = {"schema": ROUTED_EPISODE_SCHEMA, "stage": "test", "variant": "r2v"}
ROUTING_HEADER = {"schema": ROUTING_SCHEMA, "stage": "test"}


def line_start(data: bytes, n: int) -> int:
    """Byte offset of line n (0 = the header line)."""
    offset = 0
    for _ in range(n):
        offset = data.index(b"\n", offset) + 1
    return offset


def round_trip(episodes, path):
    """Episodes through the artifact path: to_dict, write_rljson, read_rljson,
    from_dict."""
    write_rljson(path, [episode_to_dict(ep) for ep in episodes], HEADER)
    return [episode_from_dict(rec) for _, rec in read_rljson(path, EPISODE_SCHEMA)]


class TestSerialization:
    def test_round_trip_identity(self, tmp_path):
        ep = make_episode()
        assert round_trip([ep], tmp_path / "eps.rljson") == [ep]

    def test_round_trip_bit_exact_floats(self, tmp_path):
        eps = [make_episode(), make_episode(n_steps=5, success=False, llm_steps=())]
        first, second = tmp_path / "a.rljson", tmp_path / "b.rljson"
        write_rljson(first, [episode_to_dict(ep) for ep in eps], HEADER)
        write_rljson(second, [episode_to_dict(ep) for ep in round_trip(eps, first)], HEADER)
        assert second.read_bytes() == first.read_bytes()

    def test_empty_steps_round_trip(self, tmp_path):
        ep = teacher_episode(n_steps=0)
        assert round_trip([ep], tmp_path / "eps.rljson") == [ep]

    def test_truncated_stream_errors_with_offset(self, tmp_path):
        path = tmp_path / "eps.rljson"
        write_rljson(path, [episode_to_dict(make_episode())] * 2, HEADER)
        data = path.read_bytes()
        second = line_start(data, 2)
        path.write_bytes(data[: second + (len(data) - second) // 2])
        with pytest.raises(RecordFormatError) as err:
            load_episodes(path)
        assert err.value.offset >= second

    def test_garbage_is_rejected(self, tmp_path):
        path = tmp_path / "eps.rljson"
        write_rljson(path, [episode_to_dict(make_episode()), {"task_id": 1}], HEADER)
        with pytest.raises(RecordFormatError) as err:
            load_episodes(path)
        assert err.value.offset == line_start(path.read_bytes(), 2)

    @pytest.mark.parametrize("schema", ["episodes@2", "episode@4", ROUTING_SCHEMA, None])
    def test_header_schema_checked(self, tmp_path, schema):
        # the header names the record format once; a file whose header names
        # another (or none) is refused before any record is read
        path = tmp_path / "eps.rljson"
        write_rljson(path, [episode_to_dict(make_episode())], {"schema": schema, "stage": "test"})
        with pytest.raises(RecordFormatError, match=f"header schema is {schema!r}, not "
                                                    f"{EPISODE_SCHEMA}") as err:
            load_episodes(path)
        assert err.value.offset == 0
        assert "schema" not in episode_to_dict(make_episode())

    def test_context_tokens_seen_below_its_tokens_rejected(self):
        # a context cannot hold fewer tokens than its goal and observation,
        # and an episode's contexts, derived from its columns, hold the
        # running count and chain: each prefix is the actions before it
        with pytest.raises(ValueError, match="tokens_seen"):
            Context(goal=(35, 36, 40), observation=(4, 16, 29, 31), actions=(), tokens_seen=6)
        ep = make_episode()
        assert ep.contexts() == [make_context(t) for t in range(3)]
        assert [s.context for s in ep.steps] == ep.contexts()

    def test_rljson_stream_reports_byte_offset(self, tmp_path):
        path = tmp_path / "records.rljson"
        write_rljson(path, [{"a": 1}, {"b": 2}], HEADER)
        good = list(read_rljson(path, EPISODE_SCHEMA))
        assert [rec for _, rec in good] == [{"a": 1}, {"b": 2}]
        assert good[1][0] == line_start(path.read_bytes(), 1) + len(b'{"a":1}\n')
        with open(path, "ab") as fh:
            fh.write(b'{"broken": \n')
        with pytest.raises(RecordFormatError) as err:
            list(read_rljson(path, EPISODE_SCHEMA))
        assert err.value.offset >= good[1][0]

    def test_header_count_checked(self, tmp_path):
        path = tmp_path / "records.rljson"
        write_rljson(path, [{"a": 1}, {"b": 2}], HEADER)
        data = path.read_bytes()
        assert data.startswith(b'{"count":2,')
        path.write_bytes(data[: line_start(data, 2)])
        with pytest.raises(RecordFormatError, match="header count is 2, file holds 1"):
            list(read_rljson(path, EPISODE_SCHEMA))

    @pytest.mark.parametrize("constant", [b"NaN", b"Infinity", b"-Infinity"])
    def test_non_finite_record_refused_at_its_offset(self, tmp_path, constant):
        # Python's json reads these constants; no artifact may hold one
        path = tmp_path / "records.rljson"
        write_rljson(path, [{"a": 1}, {"router_probs": [0.5, 0.25]}], HEADER)
        data = path.read_bytes()
        path.write_bytes(data.replace(b"0.25", constant))
        with pytest.raises(RecordFormatError, match="non-finite") as err:
            list(read_rljson(path, EPISODE_SCHEMA))
        assert err.value.offset == line_start(data, 2)
        path.write_bytes(data.replace(b'"count":2', b'"count":' + constant))
        with pytest.raises(RecordFormatError, match="non-finite") as err:
            read_header(path)
        assert err.value.offset == 0

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_never_written(self, tmp_path, value):
        path = tmp_path / "records.rljson"
        with pytest.raises(ValueError):
            write_rljson(path, [{"a": [0.5, value]}], HEADER)
        with pytest.raises(ValueError):
            write_rljson(path, [], {**HEADER, "temperature": value})
        with pytest.raises(ValueError):
            write_json(tmp_path / "summary.json", {"variants": {"r2v": {"ece": value}}})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("column", ["candidate_logps", "verifier_scores", "features",
                                        "routing features"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_never_packed(self, value, column):
        ep = make_episode()
        if column == "candidate_logps":
            ep = replace(ep, candidate_logps=[-0.5, -1.25, -0.5, value, -0.5, -1.25])
        elif column == "verifier_scores":
            # the episode refuses a score outside [0, 1], so the packer's own
            # check is reached only past it
            with pytest.raises(ValueError, match="verifier scores"):
                replace(ep, verifier_scores=[0.7, 0.4, 0.7, value, 0.7, 0.4])
            object.__setattr__(ep, "verifier_scores", np.array([0.7, 0.4, 0.7, value, 0.7, 0.4]))
        else:
            features = np.array(ep.features)
            features[1, 0] = value
            ep = replace(ep, features=features)
        with pytest.raises(ValueError, match="non-finite"):
            routing_record(0, "train", ep) if column == "routing features" else episode_to_dict(ep)
        with pytest.raises(ValueError, match="non-finite"):
            pack_floats([0.5, value])

    @pytest.mark.parametrize("block, count, message", [
        (pack_floats([0.5, 0.25])[:-4] + "*" * 4, 2, "base64"),
        (base64.b64encode(struct.pack("<2d", 0.5, 0.25)[:-1]).decode(), 2, "15 bytes, not 16"),
        (pack_floats([0.5]), 2, "8 bytes, not 16"),
        (base64.b64encode(struct.pack("<2d", 0.5, float("nan"))).decode(), 2, "non-finite"),
        (base64.b64encode(struct.pack("<2d", -float("inf"), 0.5)).decode(), 2, "non-finite"),
    ], ids=["not-base64", "byte-short", "float-short", "nan", "-inf"])
    def test_bad_packed_block_refused(self, block, count, message):
        with pytest.raises(ValueError, match=message):
            unpack_floats(block, count)

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "records.rljson"
        write_rljson(path, [{"a": 1}], HEADER)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_rljson(path, [{"a": 2}, {"b": object()}, {"c": 3}], HEADER)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["records.rljson"]


def routing_episode(features, success=True):
    """An SLM-only episode whose steps hold `features`, one row per step."""
    ep = make_episode(len(features), success=success, llm_steps=())
    return replace(ep, features=features)


class TestColumnarRecords:
    """One record per episode or routing seed, per-step values in columns."""

    def test_episode_record_has_no_steps_key(self):
        rec = episode_to_dict(make_episode())
        assert "steps" not in rec
        assert rec["actions"] == (1, 1, 1) and len(rec["observations"]) == 3

    def test_unequal_columns_rejected_at_offset(self, tmp_path):
        # a JSON column or a packed block one entry short of the episode's
        # steps and candidates
        path = tmp_path / "eps.rljson"
        short_column = episode_to_dict(make_episode())
        short_column["decisions"] = short_column["decisions"][:-1]
        short_block = episode_to_dict(make_episode())
        short_block["verifier_scores"] = pack_floats(
            unpack_floats(short_block["verifier_scores"], 6)[:-1])
        for short, message in ((short_column, "differ in length"),
                               (short_block, "40 bytes, not 48")):
            write_rljson(path, [episode_to_dict(make_episode()), short], HEADER)
            with pytest.raises(RecordFormatError, match=message) as err:
                load_episodes(path)
            assert err.value.offset == line_start(path.read_bytes(), 2)

    def test_episode_at_2_record_rejected_at_offset(self, tmp_path):
        path = tmp_path / "eps.rljson"
        step = {"context": {"goal": [1], "observation": [2], "actions": [], "tokens_seen": 2},
                "candidates": [], "verifier_scores": [], "chosen_action": 0, "executor": "LLM",
                "features": None, "router_prob": None, "decision": None,
                "budget_remaining": None}
        old = {"schema": "episode@2", "task_id": 0, "z": 1, "success": True, "llm_calls": 1,
               "budget_limit": None, "kind": "exp", "steps": [step]}
        write_rljson(path, [episode_to_dict(make_episode()), old], HEADER)
        with pytest.raises(RecordFormatError, match="KeyError") as err:
            load_episodes(path)
        assert err.value.offset == line_start(path.read_bytes(), 2)

    def test_routing_seed_short_row_rejected_at_offset(self, tmp_path):
        path = tmp_path / "routing.rljson"
        records = [routing_record(i, "valid", make_episode()) for i in range(2)]
        records[1]["features"] = pack_floats(unpack_floats(records[1]["features"], 45)[:-1])
        write_rljson(path, records, ROUTING_HEADER)
        with pytest.raises(RecordFormatError, match="352 bytes, not 360") as err:
            load_routing_examples(path)
        assert err.value.offset == line_start(path.read_bytes(), 2)

    def test_routing_split_typo_rejected_at_offset(self, tmp_path):
        with pytest.raises(ValueError, match="split"):
            RoutingExample((0.0,) * 15, 0, seed_id=0, split="tarin")
        path = tmp_path / "routing.rljson"
        records = [routing_record(i, "valid", make_episode()) for i in range(2)]
        records[1]["split"] = "tarin"
        write_rljson(path, records, ROUTING_HEADER)
        with pytest.raises(RecordFormatError, match="tarin") as err:
            load_routing_examples(path)
        assert err.value.offset == line_start(path.read_bytes(), 2)


class TestInvariants:
    def test_llm_calls_counts_llm_executors(self):
        # the count is read from the executor column, so no record can hold
        # one that disagrees with it
        for llm_steps in ((), (1,), (0, 2), (0, 1, 2)):
            ep = make_episode(llm_steps=llm_steps)
            assert ep.llm_calls == ep.executors.count("LLM") == len(llm_steps)
            assert "llm_calls" not in episode_to_dict(ep)
        assert teacher_episode(4).llm_calls == 4

    def test_budget_cap_enforced(self):
        with pytest.raises(ValueError, match="exceeds the budget"):
            make_episode(llm_steps=(0, 1), budget=1)

    @pytest.mark.parametrize("column, value, message", [
        ("verifier_scores", [0.7, 0.4, 0.7, 1.5, 0.7, 0.4], "verifier scores"),
        ("verifier_scores", [0.7, 0.4, -0.25, 0.4, 0.7, 0.4], "verifier scores"),
        ("verifier_scores", [0.7, 0.4, 0.7, float("nan"), 0.7, 0.4], "verifier scores"),
        ("verifier_scores", [0.7, 0.4, 0.7, 0.4, 0.7], "6 candidates need"),
        ("candidate_logps", [-0.5] * 7, "6 candidates need"),
        ("candidates", ((1, 2), (1,), (1, 2)), "5 candidates need"),
        ("executors", ("SLM", "GPU", "SLM"), "executor must be"),
        ("router_probs", (0.25, 1.5, 0.25), "router probability"),
        ("router_probs", (0.25, -0.5, None), "router probability"),
        ("router_probs", (0.25, float("nan"), 0.25), "router probability"),
        ("observations", ((4,), (5,)), "differ in length"),
        ("decisions", (True, False), "differ in length"),
        ("features", [[0.5] * 15] * 2, "must all hold 15 features or none"),
        ("features", [[0.5] * 14] * 3, "must all hold 15 features or none"),
    ], ids=["score-above-1", "score-below-0", "score-nan", "scores-short", "logps-long",
            "candidates-short", "executor", "prob-above-1", "prob-below-0", "prob-nan",
            "observations-short", "decisions-short", "features-rows",
            "features-width"])
    def test_episode_columns_checked(self, column, value, message):
        # every check a step made on its own values is made once per
        # episode, on the whole column
        with pytest.raises(ValueError, match=message):
            replace(make_episode(), **{column: value})

    def test_routing_example_label_domain(self):
        with pytest.raises(ValueError):
            RoutingExample(features=(0.0,) * 15, label=2, seed_id=0)

    def test_cost_spec_positive(self):
        with pytest.raises(ValueError):
            CostSpec(c_slm=0.0, c_llm=1.0, kappa=1.0)

    def test_cvar_spec_alpha_domain(self):
        with pytest.raises(ValueError):
            CVaRSpec(alpha=0.0)
        with pytest.raises(ValueError):
            CVaRSpec(alpha=1.2)

    def test_env_config_validation(self):
        with pytest.raises(ValueError):
            EnvConfig(horizon=1)
        with pytest.raises(ValueError):
            EnvConfig(storm_boost=0.5)
        with pytest.raises(ValueError):
            EnvConfig(family_intensities={"ToolFlaky": 1.5})


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("serialization") / "eps.rljson"


@settings(max_examples=50, deadline=None)
@given(
    success=st.booleans(),
    n_steps=st.integers(min_value=0, max_value=6),
    z=st.integers(min_value=0, max_value=2**63),
)
def test_serialization_round_trip_property(scratch_file, success, n_steps, z):
    ep = replace(make_episode(n_steps, success=success, llm_steps=()), seed=PerturbationSeed(z),
                 features=None, router_probs=(None,) * n_steps, decisions=(None,) * n_steps)
    assert round_trip([ep], scratch_file) == [ep]


# finite floats, with the edges a packed column must keep bit for bit drawn often
EDGES = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.7e308, -1.7e308]
FLOATS = st.sampled_from(EDGES) | st.floats(allow_nan=False, allow_infinity=False)
UNIT = st.sampled_from([-0.0, 5e-324, 1.0]) | st.floats(min_value=0.0, max_value=1.0)


def float_bits(obj) -> list[bytes]:
    """Every float an episode, step or routing example holds, as its eight
    bytes, in field order: equal lists mean equal bits (-0.0 included)."""
    if isinstance(obj, float):
        return [struct.pack("<d", obj)]
    if isinstance(obj, np.ndarray):
        return float_bits(obj.ravel().tolist())
    if isinstance(obj, (tuple, list)):
        return [b for item in obj for b in float_bits(item)]
    if is_dataclass(obj):
        return [b for f in fields(obj) for b in float_bits(getattr(obj, f.name))]
    return []


@st.composite
def episodes(draw):
    """Random valid columns: a routed or a teacher episode."""
    routed = draw(st.booleans())
    n = draw(st.integers(0, 6))
    budget = draw(st.none() | st.integers(0, 4)) if routed else None
    executors, decisions = [], []
    left = budget
    for _ in range(n):
        decision = draw(st.booleans())
        escalate = not routed or decision and (left is None or left > 0)
        if routed and escalate and left is not None:
            left -= 1
        executors.append("LLM" if escalate else "SLM")
        decisions.append(decision if routed else None)
    ks = [draw(st.integers(0, 5)) if routed else 0 for _ in range(n)]
    total = sum(ks)
    return PerturbedEpisode(
        task_id=draw(st.integers(0, 100)), seed=PerturbationSeed(draw(st.integers(0, 2**64 - 1))),
        success=draw(st.booleans()), budget_limit=budget,
        kind=draw(st.sampled_from(["r2v", "slm", "exp", "pert"])),
        goal=tuple(draw(st.lists(st.integers(0, 63), min_size=1, max_size=5))),
        observations=tuple(tuple(draw(st.lists(st.integers(0, 200), max_size=8)))
                           for _ in range(n)),
        actions=tuple(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))),
        executors=tuple(executors),
        candidates=tuple(tuple(draw(st.lists(st.integers(0, 5), min_size=k, max_size=k)))
                         for k in ks),
        candidate_logps=draw(st.lists(FLOATS, min_size=total, max_size=total)),
        verifier_scores=draw(st.lists(UNIT, min_size=total, max_size=total)),
        features=(np.reshape(draw(st.lists(FLOATS, min_size=15 * n, max_size=15 * n)), (n, 15))
                  if routed and draw(st.booleans()) else None),
        router_probs=tuple(draw(st.lists(st.none() | UNIT, min_size=n, max_size=n))
                           if routed else [None] * n),
        decisions=tuple(decisions),
    )


@settings(max_examples=50, deadline=None)
@given(eps=st.lists(episodes(), min_size=1, max_size=4))
def test_routed_and_teacher_episodes_round_trip(scratch_file, eps):
    # in memory and through the file, every float keeps its bits, a decoded
    # record encodes to the same record, and every step view is equal
    for ep in eps:
        decoded = episode_from_dict(episode_to_dict(ep))
        assert decoded == ep and float_bits(decoded) == float_bits(ep)
        assert episode_to_dict(decoded) == episode_to_dict(ep)
        assert list(decoded.steps) == list(ep.steps)
        assert float_bits(list(decoded.steps)) == float_bits(list(ep.steps))
    write_rljson(scratch_file, [episode_to_dict(ep) for ep in eps], HEADER)
    loaded = load_episodes(scratch_file)
    assert loaded == eps and float_bits(loaded) == float_bits(eps)


def routed(episode, kind="r2v"):
    """The episode a routed record of `episode` decodes to in a `kind` file."""
    return routed_episode_from_dict(_as_json(routed_episode_to_dict(episode)), kind)


def as_routed(step):
    """A step view without what a routed record leaves out."""
    return step._replace(context=None, candidates=None, verifier_scores=None, features=None)


@settings(max_examples=50, deadline=None)
@given(eps=st.lists(episodes(), min_size=1, max_size=4))
def test_routed_records_round_trip(scratch_file, eps):
    # a routed record keeps the routed columns bit for bit and no node
    # column; a decoded step is the episode's step with None where the
    # record holds nothing, and through the file an episode takes its kind
    # from the header and encodes back to the same record
    for ep in eps:
        decoded = routed(ep, ep.kind)
        assert routed_episode_to_dict(decoded) == routed_episode_to_dict(ep)
        assert float_bits(decoded.router_probs) == float_bits(ep.router_probs)
        assert decoded.kind == ep.kind and decoded.llm_calls == ep.llm_calls
        assert all(getattr(decoded, column) is None for column in NODE_COLUMNS)
        assert list(decoded.steps) == [as_routed(step) for step in ep.steps]
        assert len(decoded.steps) == len(ep.actions)
        assert decoded == routed(decoded, ep.kind) and decoded != ep
    write_rljson(scratch_file, [routed_episode_to_dict(ep) for ep in eps], ROUTED_HEADER)
    loaded = load_episodes(scratch_file)
    assert loaded == [routed(ep) for ep in eps]
    assert float_bits([ep.router_probs for ep in loaded]) == float_bits(
        [ep.router_probs for ep in eps])


def test_node_columns_held_all_or_none():
    # an episode holds its observations, candidates and candidate floats
    # together (features may be None), or none of the five node columns
    ep = make_episode()
    for column in NODE_COLUMNS[:4]:
        with pytest.raises(ValueError, match="all of its node columns or none"):
            replace(ep, **{column: None})
    thin = routed(ep)
    for column in NODE_COLUMNS:
        with pytest.raises(ValueError, match="all of its node columns or none"):
            replace(thin, **{column: getattr(ep, column)})
    assert replace(ep, features=None).features is None
    assert thin.offsets is None and [s.chosen_action for s in thin.steps] == list(ep.actions)


def test_load_episodes_requires_the_given_schema(tmp_path):
    # a reader that names a record format refuses the other one at offset 0;
    # a routed file takes its episodes' kind from the header's variant
    full, thin = tmp_path / "full.rljson", tmp_path / "thin.rljson"
    write_rljson(full, [episode_to_dict(make_episode())], {**HEADER, "variant": "r2v"})
    write_rljson(thin, [routed_episode_to_dict(make_episode())], ROUTED_HEADER)
    assert load_episodes(full, EPISODE_SCHEMA) == [make_episode()]
    assert load_episodes(thin, ROUTED_EPISODE_SCHEMA) == [routed(make_episode())]
    for path, schema, found in ((full, ROUTED_EPISODE_SCHEMA, EPISODE_SCHEMA),
                                (thin, EPISODE_SCHEMA, ROUTED_EPISODE_SCHEMA)):
        with pytest.raises(RecordFormatError, match=f"header schema is {found!r}, "
                                                    f"not {schema}") as err:
            load_episodes(path, schema)
        assert err.value.offset == 0
    write_rljson(thin, [routed_episode_to_dict(make_episode())], {**ROUTED_HEADER,
                                                                  "variant": None})
    with pytest.raises(RecordFormatError, match="header field 'variant' is None"):
        load_episodes(thin)


def test_mixed_featured_steps_refused():
    # features are one row per step or none at all: a block short of the
    # steps is refused, and a teacher episode encodes null
    ep = make_episode()
    with pytest.raises(ValueError, match="all hold 15 features or none"):
        replace(ep, features=ep.features[:2])
    assert episode_to_dict(teacher_episode())["features"] is None
    with pytest.raises(ValueError, match="needs an episode whose steps hold features"):
        routing_record(0, "train", teacher_episode())


def test_step_views_read_the_columns():
    # a step view is the step's values, built from the columns when read;
    # the sequence supports len, negative indices and slices
    ep = make_episode(llm_steps=(1,))
    assert len(ep.steps) == 3 and ep.steps[-1] == ep.steps[2]
    assert ep.steps[1] == StepView(
        context=make_context(1), candidates=((1, -0.5), (2, -1.25)), verifier_scores=(0.7, 0.4),
        chosen_action=1, executor="LLM", features=tuple(float(v) / 20 for v in range(15)),
        router_prob=0.25, decision=True, budget_remaining=None)
    assert ep.steps[1:] == (ep.steps[1], ep.steps[2])
    with pytest.raises(IndexError):
        ep.steps[3]
    [step] = teacher_episode(1).steps
    assert (step.candidates, step.verifier_scores, step.features) == ((), (), None)


def test_budget_remaining_derived_from_executors():
    # the budget left after each step is the limit less the LLM steps so
    # far, read from the columns; an unlimited episode has none
    ep = make_episode(n_steps=4, llm_steps=(0, 2), budget=3)
    assert [s.budget_remaining for s in ep.steps] == [2, 2, 1, 1]
    assert [s.budget_remaining for s in make_episode(llm_steps=(0,)).steps] == [None] * 3
    assert [s.budget_remaining for s in make_episode(llm_steps=(), budget=0).steps] == [0] * 3
    assert "budget_remaining" not in episode_to_dict(ep)


def _as_json(rec: dict) -> dict:
    return json.loads(json.dumps(rec))


def _set(path, value):
    """An edit that sets the value at `path` (keys and indices) of a record."""
    def edit(rec):
        *head, last = path
        for key in head:
            rec = rec[key]
        rec[last] = value
    return edit


# the demonstrations a pair record indexes: episodes of 3 and 2 steps
PAIR_POOL = [make_episode(), teacher_episode()]


def _pair_record():
    return pair_record(PreferencePair(make_context(1), 1, 2, "VerifierRanked", 0))


def test_pair_record_names_a_step_of_the_pool():
    # the record holds (episode, step) in place of the context, which the
    # pool gives back
    rec = _as_json(_pair_record())
    assert rec == {"episode": 0, "step": 1, "a_plus": 1, "a_minus": 2,
                   "source": "VerifierRanked"}
    assert pair_from_dict(rec, PAIR_POOL, 3) == PreferencePair(make_context(1), 1, 2,
                                                               "VerifierRanked", 0)
    assert pair_from_dict({**rec, "episode": 1, "step": 1}, PAIR_POOL).context == (
        PAIR_POOL[1].contexts()[1])


@pytest.mark.parametrize("episode, step", [(-1, 0), (2, 0), (0, -1), (0, 3), (1, 2)])
def test_pair_record_refuses_a_step_the_pool_lacks(episode, step):
    # a negative index is refused, never read from the end of the pool
    rec = {**_pair_record(), "episode": episode, "step": step}
    with pytest.raises(ValueError, match="holds no step"):
        pair_from_dict(rec, PAIR_POOL)


@pytest.mark.parametrize("a_plus, a_minus", [(3, 1), (1, -1)])
def test_pair_record_refuses_an_action_past_the_count(a_plus, a_minus):
    rec = {**_pair_record(), "a_plus": a_plus, "a_minus": a_minus}
    pair_from_dict(rec, PAIR_POOL)
    with pytest.raises(ValueError, match="not both among 3"):
        pair_from_dict(rec, PAIR_POOL, 3)


RECORDS = {
    "episode": (lambda: episode_to_dict(make_episode(budget=2)), episode_from_dict),
    "routing": (lambda: routing_record(4, "train", make_episode()), routing_seed_from_dict),
    "pair": (_pair_record, lambda rec: pair_from_dict(rec, PAIR_POOL)),
    "routed": (lambda: routed_episode_to_dict(make_episode(budget=2)),
               lambda rec: routed_episode_from_dict(rec, "r2v")),
}

# a record value of another JSON type than its writer writes
MISTYPED = {
    "episode-observation-token-str": ("episode", ("observations", 1, 0), "5"),
    "episode-observation-token-bool": ("episode", ("observations", 0, 1), True),
    "episode-goal-token-float": ("episode", ("goal", 0), 35.0),
    "episode-action-bool": ("episode", ("actions", 0), True),
    "episode-candidate-str": ("episode", ("candidates", 2, 1), "2"),
    "episode-task_id-float": ("episode", ("task_id",), 3.0),
    "episode-z-bool": ("episode", ("z",), True),
    "episode-success-int": ("episode", ("success",), 1),
    "episode-budget_limit-bool": ("episode", ("budget_limit",), True),
    "episode-decision-str": ("episode", ("decisions", 1), "maybe"),
    "episode-router_prob-str": ("episode", ("router_probs", 0), "0.25"),
    "episode-router_prob-bool": ("episode", ("router_probs", 0), True),
    "routed-action-bool": ("routed", ("actions", 2), True),
    "routed-success-int": ("routed", ("success",), 0),
    "routed-budget_limit-float": ("routed", ("budget_limit",), 2.0),
    "routed-decision-int": ("routed", ("decisions", 0), 1),
    "routed-router_prob-str": ("routed", ("router_probs", 1), "0.25"),
    "routing-seed_id-bool": ("routing", ("seed_id",), True),
    "routing-label-bool": ("routing", ("label",), True),
    "routing-label-float": ("routing", ("label",), 1.0),
    "pair-episode-str": ("pair", ("episode",), "0"),
    "pair-episode-bool": ("pair", ("episode",), False),
    "pair-step-float": ("pair", ("step",), 1.0),
    "pair-step-bool": ("pair", ("step",), True),
    "pair-action-bool": ("pair", ("a_minus",), True),
    "pair-a_plus-bool": ("pair", ("a_plus",), True),
}


@pytest.mark.parametrize("case", sorted(MISTYPED))
def test_record_values_taken_as_written(case):
    # a decoder coerces nothing: the record as written decodes, and one
    # value of another JSON type is refused
    kind, path, value = MISTYPED[case]
    build, decode = RECORDS[kind]
    rec = _as_json(build())
    decode(rec)
    _set(path, value)(rec)
    with pytest.raises(ValueError, match="must be (int|bool|float)"):
        decode(rec)


def test_float_columns_are_read_only():
    ep = make_episode()
    for column in (ep.candidate_logps, ep.verifier_scores, ep.features):
        assert column.dtype == np.float64 and not column.flags.writeable
    source = np.array([[0.5] * 15] * 3)
    held = replace(ep, features=source).features
    source[0, 0] = 9.0
    assert held[0, 0] == 0.5


@settings(max_examples=50, deadline=None)
@given(seeds=st.lists(st.tuples(st.integers(0, 1), st.sampled_from(["train", "valid", "test"]),
                                st.lists(st.lists(FLOATS, min_size=15, max_size=15),
                                         min_size=1, max_size=5)),
                      min_size=1, max_size=5))
def test_routing_seeds_round_trip(scratch_file, seeds):
    # one record per SLM-only episode decodes to one row per step: the
    # step's features under the episode's failure label, bit for bit
    records = [routing_record(seed_id, split, routing_episode(f, not label))
               for seed_id, (label, split, f) in enumerate(seeds)]
    expected = [[RoutingExample(tuple(f), label, seed_id, split) for f in features]
                for seed_id, (label, split, features) in enumerate(seeds)]
    decoded = [routing_seed_from_dict(rec) for rec in records]
    assert decoded == expected and float_bits(decoded) == float_bits(expected)
    write_rljson(scratch_file, records, ROUTING_HEADER)
    flat = [row for rows in expected for row in rows]
    loaded = load_routing_examples(scratch_file)
    assert loaded == flat and float_bits(loaded) == float_bits(flat)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_checkpoint_arrays_must_be_finite(tmp_path, bad):
    # a non-finite array is never written, and one in a file is never read
    path = tmp_path / "net.bin"
    arrays = {"a": np.zeros(3), "b": np.array([[1.0, bad]])}
    with pytest.raises(RecordFormatError, match=re.escape(f"{path}: array b holds")):
        write_arrays(path, {"schema": "toy@1"}, arrays)
    assert not path.exists()
    write_arrays(path, {"schema": "toy@1"}, {"a": np.zeros(3), "b": np.ones((1, 2))})
    data = path.read_bytes()
    body = len(data) - 8 * 5
    path.write_bytes(data[:body + 8 * 4] + struct.pack("<d", bad))
    with pytest.raises(RecordFormatError, match="array b holds a non-finite value") as err:
        read_arrays(path, "toy@1", ("a", "b"))
    assert err.value.offset == body + 8 * 3
