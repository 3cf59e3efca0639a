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
A fourth deliberate change: post-hoc calibration became a Platt map
sigmoid(a*z + b) fitted by Newton steps, in place of a bounded temperature
search that clipped at e^3 on this run, and train-router stopped reading
`eval.ece_bins`. It moved `router.bin` (temperature 20.09 -> 1.447 and the
output bias), `eval_r2v.rljson` (only `router_prob` and the header),
`summary.json` and `metrics.csv`. It moved only the header `inputs_hash` of
`eval_entropy.rljson` and `eval_heuristic.rljson`, whose records kept their
bytes. None of the 203 r2v escalation decisions changed, and every other
pinned file, `router_report.csv` included, kept its bytes.
A fifth deliberate change, a bug fix: when no candidate cleared the verifier
threshold, build-pairs asked the teacher to recover at a latent state rebuilt
from the goal tokens, whose task id was -1, so the teacher planned for the
layout of a task that does not exist. It now plans at the pooled episode's own
latent state, and this run's teacher-recovered pairs went from 4 to 1 (84
verifier-ranked pairs either way). That moved `pairs.rljson` and
`policy_distilled.bin`, the first files the fix changes, which this guard now
pins too, and every pinned file downstream of them. The files upstream of
build-pairs kept their bytes. The verifier now reads the rollout's own latent
state instead of the same rebuilt one; that half alone moves no bit.
A sixth deliberate change, format only: an episode is one record of per-step
columns (record schema `episode@3`, which stores neither the action prefix
nor `tokens_seen`), a routing seed is one record of per-step feature rows
(`routing-seed@1`), and every rljson line and checkpoint header line is
written without spaces after separators. It moved `pairs.rljson`,
`policy_distilled.bin`, `routing.rljson`, `router.bin` and the six
`eval_*.rljson`. Every record each of them holds decodes to an object equal
to what the earlier code decoded from the earlier file, the checkpoints hold
the same array bytes under an equal header, and `summary.json`, `metrics.csv`
and `router_report.csv` kept their bytes.
A seventh deliberate change, format only: the fixed-width float columns of
a record are packed, each one base64 string of little-endian float64 bytes
(record schemas `episode@4`, whose candidates hold actions alone beside
packed `candidate_logps`, `verifier_scores` and `features` blocks, and
`routing-seed@2`, whose features are one packed block). It moved
`routing.rljson` and the six `eval_*.rljson`. Every record each of them holds
decodes to an object equal to what the earlier code decoded from the earlier
file, every header is unchanged, and every other pinned file kept its bytes.
`tasks.json` and `episodes.rljson` are pinned since collect became one call.
`policy_bc.bin` and `distill_report.json` (distill's loss trace and
`final_loss`) are pinned since the line searches of train-bc and distill
stopped taking gradients at rejected trial points; both kept their bytes.
An eighth deliberate change: the router's training step runs in float32 on
float32 copies of the float64 master weights (mixed precision), with its
dropout masks drawn as float32 uniforms; the optimizer state, the batch-norm
running statistics and the loss terms stay float64. It moved `router.bin`
(still `router@2`, float64 arrays; temperature 5.225 -> 4.994, and
`tau_route`, `tau_h` and `theta_v` unchanged), `router_report.csv`,
`eval_r2v.rljson`, `summary.json` and `metrics.csv` (r2v's ECE, Brier and
AUROC). None of the 218 r2v escalation decisions changed, the largest
`router_prob` shift was 2.6e-3, and every other pinned file kept its bytes.
A ninth deliberate change: the first batch norm takes its batch mean and
variance from the float64 moments of the 15 input columns instead of
per-row statistics of its float32 pre-activation, and the dropout masks
are drawn as 16-bit integers, so the keep probability is 1 - rate
quantised to 2^-16 (0.8000031 for rate 0.2). It moved `router.bin`
(temperature 4.994 -> 5.024; `tau_route`, `tau_h` and `theta_v`
unchanged), `router_report.csv`, `eval_r2v.rljson`, `summary.json` and
`metrics.csv`, and, since every ablation trains its own router, both
ablation tables and the eight masked r2v rollouts. None of the 218 r2v
escalation decisions changed (r2v escalates on none at either tree), the
largest `router_prob` shift was 1.8e-3, no success rate or LLM rate of any
table moved, and every other pinned file kept its bytes.
A tenth deliberate change, format only: each fact of an rljson file is
stored once. The header's `schema` names the record format (`episode@5`,
`routing-seed@3`, `pairs@2`, in place of the header names `episodes@2` and
`routing@2` and a `schema` key in every record), and an episode record no
longer stores `llm_calls` or `budget_remaining`, which its executors and
budget limit determine. It moved `episodes.rljson`, `routing.rljson`, the
six `eval_*.rljson` and the eight masked r2v rollouts. Every record each of
them holds decodes to the fields the earlier code decoded from the earlier
file, the earlier stored `llm_calls` and `budget_remaining` equal the
derived ones (also under `runtime.budget_limit=3`), every header is equal
but its `schema`, and every other pinned file, `pairs.rljson` and both
ablation tables included, kept its bytes.
An eleventh deliberate change, format only: the rollouts whose steps a rule
routes (llm, entropy, heuristic, r2v and oracle) and the eight masked r2v
rollouts write `routed-episode@1` records, which keep `task_id`, `z`,
`success`, `budget_limit`, `goal`, `actions`, `executors`, `router_probs`
and `decisions` and leave out the five node columns (observations,
candidates, candidate log-probs, verifier scores and features) and `kind`,
which equals the header's `variant`. It moved the five routed
`eval_*.rljson` and the eight masked r2v rollouts. Every record each of
them holds equals the earlier record with those six columns dropped, every
earlier `kind` equals its header's `variant`, every header is equal but its
`schema`, and every other pinned file, `eval_slm.rljson` included, kept its
bytes.
A twelfth deliberate change, format only: a `pairs@3` record holds one
preference pair, its context named as (episode, step) of `episodes.rljson`
in place of the context written out, and the consistency views, which
distill now builds from `episodes.rljson` and the env, are no longer
stored. distill reads `episodes.rljson` and the `env` block, so its
`inputs_hash` moved. That moved `pairs.rljson` (60,756 to 6,379 bytes) and
the header `inputs_hash` of `policy_distilled.bin`, `routing.rljson`,
`router.bin`, the six `eval_*.rljson` and the eight masked r2v rollouts;
each of those holds the earlier body bytes under an otherwise equal header.
Every pair decodes to the earlier pair, and `distill_report.json`,
`summary.json`, `metrics.csv`, `router_report.csv` and both ablation tables
kept their bytes.

The features and cvar ablations of the same run are pinned too: their eight
masked r2v rollouts leave prefixes that an earlier policy visited, at steps
past the first, more often than any other rollout, so they guard the draw
positions of the shared step tree.

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
    "tasks.json": "0c3656dbd1a140ff466400e94c013fcbc5f3ca9bb18487b4e755bb1c8e8c7893",
    "episodes.rljson": "1789283c3b82dc7cd5ba99a8cd9c76dddb7403b366bde89f487ae54716d63547",
    "summary.json": "948f1de40d168119d7b9b1fe39592cdb293fb21a4d6c495e41d2fd4e06e07329",
    "metrics.csv": "e0c4336f13a529794802c9e90ca6f293cc4950e440353bd968f4f3ad2003d8e9",
    "pairs.rljson": "f795124d1a384eb4e0453fa2a4ae907672cd2eb682146e1aa5b46da84913f3f2",
    "policy_bc.bin": "9c891be06a9709ed5f3270e8add737abc01a83df21636d1612a631b1ea3dc62c",
    "distill_report.json": "a3f90b4f39cf848723a681d1cc57f2036839f47d15dc36abd01de7e39bcec9ca",
    "policy_distilled.bin": "5b2696dc8e65f2df4d0231436c5c296804801008ac772f4d3febc2efd1471a9b",
    "routing.rljson": "3272c053a4748ec74db5ab91f452172535d6ba65b096936037f6e55df90c4e81",
    "eval_entropy.rljson": "0fbfcb063ab8399c5c51534d3388d567f9df1ac0917fc1168c3d28cad4d2c606",
    "eval_heuristic.rljson": "aed9c74c073ec926e0aa21eb3b144d456352e87069e3c07c716727441b9e6005",
    "eval_llm.rljson": "9a28d9136bb35a73c71327b900906a8850e9652923adcb7adb6d2549c259646b",
    "eval_oracle.rljson": "a14c0ec123ecbad8c4e1a17a7dd06c6d99532dc0a879447bdb149903df352e0e",
    "eval_r2v.rljson": "1f7cdba0d390bed0a2487fc13cf4a46b2c0ba19be5199f2ceceddb4a3c7bdc57",
    "eval_slm.rljson": "2912edba79cebed2a90b456aaf416921885bbf3cf0ef6e7a17d23e12a7a495ab",
    "router.bin": "a7cf9da2c5e9fdf33832196b44b1415abb6a59d7d981a246e14f3705af301f6a",
    "router_report.csv": "83410e7b91bac78014f73c64a2accfa7afda9384384281e5fd2d57f553201cf0",
}

GOLDEN_ABLATION_SHA256 = {
    "ablate_features.csv": "67632286743629c90a522c23959447dc21f152f2ca65c26860d279be94edaeee",
    "ablate_cvar.csv": "84a8acb1c5ae9dd534ed10ce10e96a416834b038cf641f2ec6dcd8d613d35ca0",
    "eval_r2v_mask_EntropyOnly.rljson":
        "749c02adfd45da0a45859d4e7abfb4712303faf496681666f64a5ed160f4303e",
    "eval_r2v_mask_Full.rljson": "1f7cdba0d390bed0a2487fc13cf4a46b2c0ba19be5199f2ceceddb4a3c7bdc57",
    "eval_r2v_mask_LogProbOnly.rljson":
        "29eced2bf14f28c87e7f6bb0922de41a240e32506d8305c3974e72add146278c",
    "eval_r2v_mask_NoEntropy.rljson":
        "a224706528fda9ac4089f2549f6fbefff7a82bb5b1f392eb79e209fa1d0e188f",
    "eval_r2v_mask_NoVerifier.rljson":
        "2f34cf7b4034eda26e005266e201c5ea8302763c937000f41ba18e7b6a5fd066",
    "eval_r2v_mask_PseudoEntropy.rljson":
        "3d2439fb1eedb7416c8ac993788352727d7342086b8a334eaf083874bc19b379",
    "eval_r2v_mask_StepContextOnly.rljson":
        "7196513cc14b3f429f14fbd93af12f6f1358937040e24e4e76eff6d0ceb8f9ed",
    "eval_r2v_mask_VerifierOnly.rljson":
        "6fb0b69e6b3931746d5c4bdefd443c2246111b1496d00d835e77202789e34928",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_evaluate_outputs_are_byte_identical(tmp_path):
    cfg = pipeline.load_config(overrides=GOLDEN_CONFIG, environ={})
    pipeline.run_pipeline(cfg, tmp_path, workers=1)
    names = ["tasks.json", "episodes.rljson", "summary.json", "metrics.csv", "pairs.rljson",
             "policy_bc.bin", "distill_report.json", "policy_distilled.bin", "routing.rljson",
             "router.bin", "router_report.csv"]
    names += sorted(p.name for p in tmp_path.glob("eval_*.rljson"))
    got = {name: _sha256(tmp_path / name) for name in names}
    assert got == GOLDEN_SHA256
    for kind in ("features", "cvar"):
        pipeline.run_stage(cfg, tmp_path, "ablate", kind, 1)
    got = {name: _sha256(tmp_path / name) for name in GOLDEN_ABLATION_SHA256}
    assert got == GOLDEN_ABLATION_SHA256
