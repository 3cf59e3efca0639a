"""Golden-bytes guard: a tiny end-to-end run must keep writing the same bytes.

Speed work on the rollout path and the router trainer must not change
results, so this test pins the sha256 of the trained router and of the
evaluation outputs of one small config run through `evaluate`. A change that
alters a single output bit fails here; if the change is meant to alter
results, re-pin the digests and say why in CHANGES.md. The artifact headers
hold `inputs_hash`, so a change to the stage table's declared reads moves
the digests of every artifact downstream of it.

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
    "summary.json": "096ca55ebe263c00efcfac9a2614268e26ae062ea48814805b3254e4cb4e84a3",
    "metrics.csv": "83c144cf5a7a75d3916e963e23967d02b75f81b8856555662a67a2410ddb22ba",
    "routing.rljson": "e48f63b6a1cf834b1a26e5fd0049a7c34bb279c275c4afd95489fee18594a492",
    "eval_entropy.rljson": "bfaaa1f33e3f62a5d62113ecc9a4b722625ad66a0157e8089dd263ff7307de7a",
    "eval_heuristic.rljson": "1ccbe09f6f09777c0dd151d51ca259410202429d45f14b574e5075301af99198",
    "eval_llm.rljson": "29e653ef6aa3ec8cfdeced6a1a7dce7e6e0d7166bb331285d2b3a0ae5d614196",
    "eval_oracle.rljson": "65c1fb52b165ce20cbb8c91520e267274c36613fcaed5c1df87f6fc4b9d33831",
    "eval_r2v.rljson": "db836195ca84b2366e230b5a309d25daedb6f00edba1c0678a75b7e7f66a8fca",
    "eval_slm.rljson": "71ab19d0173a8f572aaac32fb720b422e72349983fdcf6c6bef99afeb54d4d1d",
    "router.bin": "1ca855c09310267e75131b4201a129f1098ff714a3fbb671f045a63531836369",
    "router_report.csv": "f63ccc44e75fce20ca84b6889cf89f357541eb158c08dd8390352c0c1038d28c",
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
