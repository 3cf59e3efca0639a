"""Golden-bytes guard: a tiny end-to-end run must keep writing the same bytes.

Speed work on the rollout path and the router trainer must not change
results, so this test pins the sha256 of the trained router and of the
evaluation outputs of one small config run through `evaluate`. A change that
alters a single output bit fails here; if the change is meant to alter
results, re-pin the digests and say why in CHANGES.md. One such change so
far: the router's activation became the tanh form of GELU, which moved
`router.bin`, `router_report.csv`, `eval_r2v.rljson`, `summary.json` and
`metrics.csv` and left every other pinned file byte-identical. The artifact
headers hold `inputs_hash`, so a change to the stage table's declared reads
moves the digests of every artifact downstream of it.

The digests hold for numpy 2.4 with OpenBLAS on x86-64; another BLAS build
may round a matmul differently in the last place.
"""

import hashlib

from steprouter import pipeline

GOLDEN_CONFIG = (
    "env.task_count=10",
    "policy.pert_seeds_per_task=2",
    "policy.bc_epochs=20",
    "distill.epochs=10",
    "router.epochs=10",
    "runtime.routing_seeds_per_task=3",
    "eval.task_ids=[0,3,5,8]",
    "eval.eval_seeds_per_task=3",
    "eval.bootstrap_resamples=50",
)

GOLDEN_SHA256 = {
    "summary.json": "66d7fe25a9de8aee7ffc859c80a89c510bc319120f37549594eeb3e7c3bb0d56",
    "metrics.csv": "a1ce4eec4e9633677daa8a957e238bc445c8181c5856f477e2ba2a0dc82b46fd",
    "routing.rljson": "e48f63b6a1cf834b1a26e5fd0049a7c34bb279c275c4afd95489fee18594a492",
    "eval_entropy.rljson": "bfaaa1f33e3f62a5d62113ecc9a4b722625ad66a0157e8089dd263ff7307de7a",
    "eval_heuristic.rljson": "1ccbe09f6f09777c0dd151d51ca259410202429d45f14b574e5075301af99198",
    "eval_llm.rljson": "29e653ef6aa3ec8cfdeced6a1a7dce7e6e0d7166bb331285d2b3a0ae5d614196",
    "eval_oracle.rljson": "65c1fb52b165ce20cbb8c91520e267274c36613fcaed5c1df87f6fc4b9d33831",
    "eval_r2v.rljson": "a33d5e4a952e4a0fd52abb7585b7e7098b107f2e97d1a10a6fe458b2c36a5e17",
    "eval_slm.rljson": "71ab19d0173a8f572aaac32fb720b422e72349983fdcf6c6bef99afeb54d4d1d",
    "router.bin": "6dcff300265f0f353c0a37968b537920f7651e5213062f65fe886b72398015c8",
    "router_report.csv": "6a279b76ae59d8dfde1e23ed9af8d91690c493df8a15ce58428f76fae784ff48",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_evaluate_outputs_are_byte_identical(tmp_path):
    cfg = pipeline.load_config(overrides=GOLDEN_CONFIG, environ={})
    pipeline.run_pipeline(cfg, tmp_path, workers=1)
    names = ["summary.json", "metrics.csv", "routing.rljson", "router.bin", "router_report.csv"]
    names += sorted(p.name for p in tmp_path.glob("eval_*.rljson"))
    got = {name: _sha256(tmp_path / name) for name in names}
    assert got == GOLDEN_SHA256
