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
    read_rljson,
    write_rljson,
)
from steprouter.pipeline import load_episodes


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


HEADER = {"schema": "episodes@1", "stage": "test"}


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
                            {"schema": "episode@2", "task_id": 1}], HEADER)
        with pytest.raises(RecordFormatError) as err:
            load_episodes(path)
        assert err.value.offset == line_start(path.read_bytes(), 2)
        with pytest.raises(RecordFormatError):
            episode_from_dict({**episode_to_dict(make_episode()), "schema": "other@1"})

    def test_context_tokens_seen_below_its_tokens_rejected(self, tmp_path):
        path = tmp_path / "eps.rljson"
        rec = episode_to_dict(make_episode())
        assert rec["steps"][0]["context"]["tokens_seen"] == 3 + 4
        rec["steps"][0]["context"]["tokens_seen"] = 3 + 4 - 1
        write_rljson(path, [rec], HEADER)
        with pytest.raises(RecordFormatError, match="tokens_seen"):
            load_episodes(path)

    def test_rljson_stream_reports_byte_offset(self, tmp_path):
        path = tmp_path / "records.rljson"
        write_rljson(path, [{"a": 1}, {"b": 2}], HEADER)
        good = list(read_rljson(path))
        assert [rec for _, rec in good] == [{"a": 1}, {"b": 2}]
        assert good[1][0] == line_start(path.read_bytes(), 1) + len(b'{"a": 1}\n')
        with open(path, "ab") as fh:
            fh.write(b'{"broken": \n')
        with pytest.raises(RecordFormatError) as err:
            list(read_rljson(path))
        assert err.value.offset >= good[1][0]

    def test_header_count_checked(self, tmp_path):
        path = tmp_path / "records.rljson"
        write_rljson(path, [{"a": 1}, {"b": 2}], HEADER)
        data = path.read_bytes()
        assert data.startswith(b'{"count": 2, ')
        path.write_bytes(data[: line_start(data, 2)])
        with pytest.raises(RecordFormatError, match="header count is 2, file holds 1"):
            list(read_rljson(path))

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "records.rljson"
        write_rljson(path, [{"a": 1}], HEADER)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_rljson(path, [{"a": 2}, {"b": object()}, {"c": 3}], HEADER)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["records.rljson"]


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
            RoutingExample(features=(0.0,) * 15, label=2, seed_id=0, step_index=0)

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
            chosen_action=0,
            executor="SLM",
        )
        for t in range(n_steps)
    )
    ep = PerturbedEpisode(
        task_id=1, seed=PerturbationSeed(z), steps=steps, success=success, llm_calls=0
    )
    assert round_trip([ep], scratch_file) == [ep]
