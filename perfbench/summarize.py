"""Summarize benchmark records: per workload, each metric's median and spread.

    python3 perfbench/summarize.py [RECORD.json ...]            # default: .perfbench/results/*.json
    python3 perfbench/summarize.py --baseline perfbench/baseline.json --note "..." [RECORD.json ...]

The spread is the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, the figure a
metric's bound in BENCHMARK.json is compared against. `--baseline` also
writes the medians, quartiles, per-seed output digests and quality numbers,
and the machine records to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

RESULTS = Path(__file__).resolve().parents[1] / ".perfbench" / "results"


def load(paths) -> list[dict]:
    files = [Path(p) for p in paths] or sorted(RESULTS.glob("*.json"))
    return [json.loads(f.read_text()) for f in files]


def summary(records: list[dict]) -> dict:
    groups: dict = {}
    for rec in records:
        groups.setdefault(f"{rec['workload']} trace={rec['trace']}", []).append(rec)
    out = {}
    for key, recs in sorted(groups.items()):
        metrics = {}
        for name in recs[0]["metrics"]:
            values = [r["metrics"][name] for r in recs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            metrics[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0}
        out[key] = {
            "runs": len(recs),
            "seeds": [r["seed"] for r in recs],
            "failed": sum(r["failed"] for r in recs),
            "all_correct": all(r["correct"] for r in recs),
            "metrics": metrics,
            "per_seed": {str(r["seed"]): {"digests": r["digests"], "quality": r["quality"],
                                          "input_size": r["input_size"]} for r in recs},
            "machines": sorted({json.dumps(r["machine"], sort_keys=True) for r in recs}),
            "loadavg": [[r["loadavg_before"], r["loadavg_after"]] for r in recs],
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("records", nargs="*")
    parser.add_argument("--baseline", help="write the summary to this JSON file")
    parser.add_argument("--note", default="", help="free text stored with --baseline")
    args = parser.parse_args()
    groups = summary(load(args.records))
    for key, g in groups.items():
        print(f"{key}: runs={g['runs']} failed={g['failed']} correct={g['all_correct']}")
        for name, m in g["metrics"].items():
            print(f"  {name:40s} median={m['median']:<12.6g} "
                  f"q1={m['q1']:<12.6g} q3={m['q3']:<12.6g} spread={m['spread']:.4f}")
    if args.baseline:
        for g in groups.values():
            g["machines"] = [json.loads(m) for m in g["machines"]]
        with open(args.baseline, "w") as fh:
            json.dump({"note": args.note, "groups": groups}, fh, indent=2, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
