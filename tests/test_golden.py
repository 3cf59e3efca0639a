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
moves the digests of every artifact downstream of it. One header-only change
so far: removing the config keys `env.perturbation_families`,
`verifier.regime`, `router.threshold_mode` and `router.train_seed` moved the
`config_hash` and `inputs_hash` in the headers of `summary.json`,
`routing.rljson`, `router.bin` and the six `eval_*.rljson`; every file of
the run is equal to its earlier form once those two hashes are dropped, and
`metrics.csv` and `router_report.csv` kept their bytes. A second deliberate
change, format only: a step record's context holds that step's observation
and a running `tokens_seen` count instead of every observation so far
(record schema `episode@2`). It moved the six `eval_*.rljson`; mapping each
earlier context to (goal, last observation, actions, goal plus observation
token count) makes every record equal to its earlier form, and every other
pinned file kept its bytes.

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
    "summary.json": "d6f63158701cb576a5f635a70fdad3b41382d038b430c34a9a89a6faf7045862",
    "metrics.csv": "a1ce4eec4e9633677daa8a957e238bc445c8181c5856f477e2ba2a0dc82b46fd",
    "routing.rljson": "215da59064e5e8def127baed7b7d0ab64f73816bc2461bc9e3bcc2c041499475",
    "eval_entropy.rljson": "dee77ca147072d862b9accbcc592c9011dc99e6b5055283935c740190683f6ff",
    "eval_heuristic.rljson": "125232b1fbf3476155967f5d5774077bce6729b262d31264508ef769cb630da1",
    "eval_llm.rljson": "e18b183dccd4e15173c13b5e34cf94841de4702c1aae652d20cc2d0562a12344",
    "eval_oracle.rljson": "edccd15b8c75ca3474e2fedbe50ac00e9a59816c9e0334b623bac54fcbc74e46",
    "eval_r2v.rljson": "4b28affad7612db50442c7a12fd87b79036fa3061c0c8a52d2b547fe1a4a6cfd",
    "eval_slm.rljson": "8d0240bbc6402f9e1a7bbb663054af2e5d47e5d463fa658fd83cd445f883d684",
    "router.bin": "e9da312e187a6e3adcc3029beedf17d36d9e77b5f10461d5d1326afa888dafa5",
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
