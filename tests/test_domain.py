import base64
import struct
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steprouter.domain import (
    Context,
    CostSpec,
    CVaRSpec,
    EnvConfig,
    PerturbationSeed,
    PerturbedEpisode,
    RecordFormatError,
    RoutingExample,
    StepRecord,
    derive_splits,
    episode_from_dict,
    episode_to_dict,
    pack_floats,
    read_header,
    read_rljson,
    routing_record,
    routing_seed_from_dict,
    unpack_floats,
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
    steps = []
    for t in range(n_steps):
        steps.append(
            StepRecord(
                context=make_context(t),
                candidates=((1, -0.5), (2, -1.25)),
                verifier_scores=(0.7, 0.4),
                chosen_action=1,
                executor="LLM" if t in llm_steps else "SLM",
                features=tuple(float(v) / 20 for v in range(15)),
                router_prob=0.25,
                decision=t in llm_steps,
                budget_remaining=None,
            )
        )
    return PerturbedEpisode(
        task_id=3,
        seed=PerturbationSeed(987654321),
        steps=tuple(steps),
        success=success,
        llm_calls=len(llm_steps),
        budget_limit=budget,
        kind="r2v",
    )


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


HEADER = {"schema": "episodes@2", "stage": "test"}


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
    return [episode_from_dict(rec) for _, rec in read_rljson(path)]


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
        ep = PerturbedEpisode(
            task_id=0, seed=PerturbationSeed(1), steps=(), success=True, llm_calls=0
        )
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
        write_rljson(path, [episode_to_dict(make_episode()),
                            {"schema": "episode@4", "task_id": 1}], HEADER)
        with pytest.raises(RecordFormatError) as err:
            load_episodes(path)
        assert err.value.offset == line_start(path.read_bytes(), 2)
        with pytest.raises(RecordFormatError):
            episode_from_dict({**episode_to_dict(make_episode()), "schema": "other@1"})

    def test_context_tokens_seen_below_its_tokens_rejected(self):
        # a context cannot hold fewer tokens than its goal and observation,
        # and the encoder refuses a count below the episode's running count
        with pytest.raises(ValueError, match="tokens_seen"):
            Context(goal=(35, 36, 40), observation=(4, 16, 29, 31), actions=(), tokens_seen=6)
        ep = make_episode()
        low = replace(ep.steps[1].context, tokens_seen=3 + 4)
        with pytest.raises(ValueError, match="step 1"):
            episode_to_dict(replace(ep, steps=(ep.steps[0], replace(ep.steps[1], context=low),
                                               ep.steps[2])))

    def test_rljson_stream_reports_byte_offset(self, tmp_path):
        path = tmp_path / "records.rljson"
        write_rljson(path, [{"a": 1}, {"b": 2}], HEADER)
        good = list(read_rljson(path))
        assert [rec for _, rec in good] == [{"a": 1}, {"b": 2}]
        assert good[1][0] == line_start(path.read_bytes(), 1) + len(b'{"a":1}\n')
        with open(path, "ab") as fh:
            fh.write(b'{"broken": \n')
        with pytest.raises(RecordFormatError) as err:
            list(read_rljson(path))
        assert err.value.offset >= good[1][0]

    def test_header_count_checked(self, tmp_path):
        path = tmp_path / "records.rljson"
        write_rljson(path, [{"a": 1}, {"b": 2}], HEADER)
        data = path.read_bytes()
        assert data.startswith(b'{"count":2,')
        path.write_bytes(data[: line_start(data, 2)])
        with pytest.raises(RecordFormatError, match="header count is 2, file holds 1"):
            list(read_rljson(path))

    @pytest.mark.parametrize("constant", [b"NaN", b"Infinity", b"-Infinity"])
    def test_non_finite_record_refused_at_its_offset(self, tmp_path, constant):
        # Python's json reads these constants; no artifact may hold one
        path = tmp_path / "records.rljson"
        write_rljson(path, [{"a": 1}, {"router_probs": [0.5, 0.25]}], HEADER)
        data = path.read_bytes()
        path.write_bytes(data.replace(b"0.25", constant))
        with pytest.raises(RecordFormatError, match="non-finite") as err:
            list(read_rljson(path))
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
        step = ep.steps[1]
        if column == "candidate_logps":
            step = replace(step, candidates=((1, -0.5), (2, value)))
        elif column == "verifier_scores":
            # StepRecord refuses a score outside [0, 1], so the packer's own
            # check is reached only past it
            with pytest.raises(ValueError, match="verifier scores"):
                replace(step, verifier_scores=(0.7, value))
            step = replace(step)
            object.__setattr__(step, "verifier_scores", (0.7, value))
        else:
            step = replace(step, features=(value,) + step.features[1:])
        ep = replace(ep, steps=(ep.steps[0], step, ep.steps[2]))
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
    return replace(ep, steps=tuple(replace(step, features=tuple(f))
                                   for step, f in zip(ep.steps, features)))


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
        with pytest.raises(RecordFormatError, match="episode@2") as err:
            load_episodes(path)
        assert err.value.offset == line_start(path.read_bytes(), 2)

    def test_encoder_refuses_a_tampered_context_chain(self):
        ep = make_episode()
        s0, s1, s2 = ep.steps
        tampered = (replace(s1.context, goal=(35, 36, 41)),  # a goal that changes
                    replace(s1.context, actions=(2,)),  # a prefix of other actions
                    replace(s1.context, tokens_seen=s1.context.tokens_seen + 1))
        for ctx in tampered:
            with pytest.raises(ValueError, match="step 1"):
                episode_to_dict(replace(ep, steps=(s0, replace(s1, context=ctx), s2)))
        # a chosen action the next step's prefix does not hold
        with pytest.raises(ValueError, match="step 2"):
            episode_to_dict(replace(ep, steps=(s0, replace(s1, chosen_action=3), s2)))

    def test_routing_seed_short_row_rejected_at_offset(self, tmp_path):
        path = tmp_path / "routing.rljson"
        records = [routing_record(i, "valid", make_episode()) for i in range(2)]
        records[1]["features"] = pack_floats(unpack_floats(records[1]["features"], 45)[:-1])
        write_rljson(path, records, HEADER)
        with pytest.raises(RecordFormatError, match="352 bytes, not 360") as err:
            load_routing_examples(path)
        assert err.value.offset == line_start(path.read_bytes(), 2)

    def test_routing_split_typo_rejected_at_offset(self, tmp_path):
        with pytest.raises(ValueError, match="split"):
            RoutingExample((0.0,) * 15, 0, seed_id=0, split="tarin")
        path = tmp_path / "routing.rljson"
        records = [routing_record(i, "valid", make_episode()) for i in range(2)]
        records[1]["split"] = "tarin"
        write_rljson(path, records, HEADER)
        with pytest.raises(RecordFormatError, match="tarin") as err:
            load_routing_examples(path)
        assert err.value.offset == line_start(path.read_bytes(), 2)


class TestInvariants:
    def test_llm_call_recount_enforced(self):
        with pytest.raises(ValueError):
            PerturbedEpisode(
                task_id=0,
                seed=PerturbationSeed(1),
                steps=make_episode(llm_steps=(0, 1)).steps,
                success=True,
                llm_calls=1,
            )

    def test_budget_cap_enforced(self):
        with pytest.raises(ValueError):
            make_episode(llm_steps=(0, 1), budget=1)

    def test_step_record_validates_scores(self):
        with pytest.raises(ValueError):
            StepRecord(
                context=make_context(),
                candidates=((0, -1.0),),
                verifier_scores=(1.5,),
                chosen_action=0,
                executor="SLM",
            )

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
    steps = tuple(
        StepRecord(
            context=make_context(t),
            candidates=((0, -0.1), (1, -2.0)),
            verifier_scores=(0.5, 0.25),
            chosen_action=1,  # make_context's prefixes hold action 1
            executor="SLM",
        )
        for t in range(n_steps)
    )
    ep = PerturbedEpisode(
        task_id=1, seed=PerturbationSeed(z), steps=steps, success=success, llm_calls=0
    )
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
    if isinstance(obj, (tuple, list)):
        return [b for item in obj for b in float_bits(item)]
    if is_dataclass(obj):
        return [b for f in fields(obj) for b in float_bits(getattr(obj, f.name))]
    return []


@st.composite
def episodes(draw):
    """A routed or teacher episode whose contexts chain as a rollout's do."""
    routed = draw(st.booleans())
    featured = routed and draw(st.booleans())
    goal = tuple(draw(st.lists(st.integers(0, 63), min_size=1, max_size=5)))
    budget = draw(st.none() | st.integers(0, 4)) if routed else None
    remaining, llm_calls, steps, ctx = budget, 0, [], None
    for _ in range(draw(st.integers(0, 6))):
        obs = tuple(draw(st.lists(st.integers(0, 200), max_size=8)))
        ctx = (Context(goal, obs, (), len(goal) + len(obs)) if ctx is None
               else ctx.advanced(steps[-1].chosen_action, obs))
        action = draw(st.integers(0, 5))
        if not routed:
            steps.append(StepRecord(ctx, (), (), action, "LLM"))
            llm_calls += 1
            continue
        k = draw(st.integers(0, 5))
        decision = draw(st.booleans())
        executor = "LLM" if decision and (remaining is None or remaining > 0) else "SLM"
        if executor == "LLM":
            llm_calls += 1
            remaining = None if remaining is None else remaining - 1
        steps.append(StepRecord(
            context=ctx,
            candidates=tuple(zip(draw(st.lists(st.integers(0, 5), min_size=k, max_size=k)),
                                 draw(st.lists(FLOATS, min_size=k, max_size=k)))),
            verifier_scores=tuple(draw(st.lists(UNIT, min_size=k, max_size=k))),
            chosen_action=action,
            executor=executor,
            features=(tuple(draw(st.lists(FLOATS, min_size=15, max_size=15))) if featured
                      else None),
            router_prob=draw(st.none() | UNIT),
            decision=decision,
            budget_remaining=remaining,
        ))
    return PerturbedEpisode(
        task_id=draw(st.integers(0, 100)), seed=PerturbationSeed(draw(st.integers(0, 2**64 - 1))),
        steps=tuple(steps), success=draw(st.booleans()), llm_calls=llm_calls,
        budget_limit=budget, kind=draw(st.sampled_from(["r2v", "slm", "exp", "pert"])),
    )


@settings(max_examples=50, deadline=None)
@given(eps=st.lists(episodes(), min_size=1, max_size=4))
def test_routed_and_teacher_episodes_round_trip(scratch_file, eps):
    # in memory and through the file, every float keeps its bits
    for ep in eps:
        decoded = episode_from_dict(episode_to_dict(ep))
        assert decoded == ep and float_bits(decoded) == float_bits(ep)
    write_rljson(scratch_file, [episode_to_dict(ep) for ep in eps], HEADER)
    loaded = load_episodes(scratch_file)
    assert loaded == eps and float_bits(loaded) == float_bits(eps)


def test_mixed_featured_steps_refused():
    ep = make_episode()
    with pytest.raises(ValueError, match="all hold features or none"):
        episode_to_dict(replace(ep, steps=(ep.steps[0], replace(ep.steps[1], features=None),
                                           ep.steps[2])))
    teacher = replace(ep, steps=tuple(replace(s, features=None) for s in ep.steps))
    assert episode_to_dict(teacher)["features"] is None


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
    write_rljson(scratch_file, records, HEADER)
    flat = [row for rows in expected for row in rows]
    loaded = load_routing_examples(scratch_file)
    assert loaded == flat and float_bits(loaded) == float_bits(flat)
