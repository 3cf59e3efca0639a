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
pinned file kept its bytes. A third deliberate change: the router became
batch-norm aware (checkpoint schema `router@2`). The hidden layers lost their
pre-batch-norm biases, the batch-norm backward reuses the sums dgamma and
dbeta, eval mode folds each batch norm into one scale and shift per call, and
the checkpoint header lost `fitted_temperature`. It moved `router.bin`,
`router_report.csv`, `eval_r2v.rljson`, `summary.json` and `metrics.csv`.
None of the 203 r2v escalation decisions changed, the largest `router_prob`
shift was 1.0e-11, and every other pinned file kept its bytes.

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
    "summary.json": "d06071a59b8709fda93eee3385888ab961298377dd395701e06e785f0882b96b",
    "metrics.csv": "f15f9ef0294c149e8cf537be6f4962c3835a510c763960df06eb36778f0a6427",
    "routing.rljson": "215da59064e5e8def127baed7b7d0ab64f73816bc2461bc9e3bcc2c041499475",
    "eval_entropy.rljson": "dee77ca147072d862b9accbcc592c9011dc99e6b5055283935c740190683f6ff",
    "eval_heuristic.rljson": "125232b1fbf3476155967f5d5774077bce6729b262d31264508ef769cb630da1",
    "eval_llm.rljson": "e18b183dccd4e15173c13b5e34cf94841de4702c1aae652d20cc2d0562a12344",
    "eval_oracle.rljson": "edccd15b8c75ca3474e2fedbe50ac00e9a59816c9e0334b623bac54fcbc74e46",
    "eval_r2v.rljson": "314f86e66a4d89202432ce3cb49c1dbaa21a45795ccf60b65753fecf27571a5a",
    "eval_slm.rljson": "8d0240bbc6402f9e1a7bbb663054af2e5d47e5d463fa658fd83cd445f883d684",
    "router.bin": "3540a15edf0d3fc4b0387a99bd144e8c23b1d6df7631d16e460930758ecef1a2",
    "router_report.csv": "aeec308e09e1ed817158d0027427752e90cf2fa995a24ee448ee9fa95f3b00e6",
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
