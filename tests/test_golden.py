"""Golden-bytes guard: a tiny end-to-end run must keep writing the same bytes.

Speed work on the rollout path must not change results, so this test pins the
sha256 of the evaluation outputs of one small config run through
`evaluate`. A change that alters a single output bit fails here; if the change
is meant to alter results, re-pin the digests and say why in CHANGES.md.

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
    "summary.json": "54b3fc74b828c861a2f4ac466291fc0473471d37968310f633b95489ffb6c0a1",
    "metrics.csv": "83c144cf5a7a75d3916e963e23967d02b75f81b8856555662a67a2410ddb22ba",
    "routing.rljson": "39fcca933b99f8cfe7c5af2ba52bb3580c03e1de1c3798e5c59c795d567bda9b",
    "eval_entropy.rljson": "376aa850d3d66b9d99a2065a35ff7caea9241a191d98336969b67eb9b1e298ff",
    "eval_heuristic.rljson": "1ba6ce0a2bae63940546f7f3c2bfaebf6331d8c9c879d1eee4e224f10338ae27",
    "eval_llm.rljson": "626128c95ed41abfefcb1b1eb5f289588d32d3eb568966f566c64d0689180ab3",
    "eval_oracle.rljson": "3c53048fd25edea19cc8ae9671a229d71406e211df6abc1f3166fcecc3fc8fd9",
    "eval_r2v.rljson": "84dad2e67a82ae0f785e3d774b615abbfda55a13834007f5c459f060fda1a39c",
    "eval_slm.rljson": "88b69f5e40d597208472b18a5c26c5219607276500d9e76563b0f05dfa63ec73",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_evaluate_outputs_are_byte_identical(tmp_path):
    cfg = pipeline.load_config(overrides=GOLDEN_CONFIG, environ={})
    pipeline.run_pipeline(cfg, tmp_path, workers=1)
    names = ["summary.json", "metrics.csv", "routing.rljson"]
    names += sorted(p.name for p in tmp_path.glob("eval_*.rljson"))
    got = {name: _sha256(tmp_path / name) for name in names}
    assert got == GOLDEN_SHA256
