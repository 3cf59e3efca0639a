"""Golden-bytes guard: a tiny end-to-end run must keep writing the same bytes.

Speed work on the rollout path and the router trainer must not change
results, so this test pins the sha256 of the trained router and of the
evaluation outputs of one small config run through `evaluate`. A change that alters a single output bit fails here; if the change
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
    "summary.json": "096ca55ebe263c00efcfac9a2614268e26ae062ea48814805b3254e4cb4e84a3",
    "metrics.csv": "83c144cf5a7a75d3916e963e23967d02b75f81b8856555662a67a2410ddb22ba",
    "routing.rljson": "805f7ffa1b9493e7210f92fb6cdd712c51c401361f379fa541d916a78509b9f7",
    "eval_entropy.rljson": "8fefce413862d403e8851ff93110b49df3e32fac7c7b07b9b0de8ca66e4f0ad0",
    "eval_heuristic.rljson": "62d50cd5dec14de0e5da9b3fb64d295281b068e10bf3b4b608e8002a33f15187",
    "eval_llm.rljson": "5dbd364e95d65bc3a849a969db73095a5fd620219f2427335dce62ee923ea89e",
    "eval_oracle.rljson": "f62b3e0708af3436851cef9c50cddfcf0820699e705aeced908f18f28e2c9975",
    "eval_r2v.rljson": "5c61fcdf60269103f191d825a7166883ed58678df013d802f7176e53bdeced43",
    "eval_slm.rljson": "6eccd29f91bb357ac8d57778e2380611c353f10752c7eb20fcacc939121b23f3",
    "router.bin": "95babaa35ab97f02360dc780c738c0a3bf9ea1cf2d0e7e2c46a1ee1f910e85e6",
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
