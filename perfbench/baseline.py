#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json on seeds 1-10 and summarise.

    python3 perfbench/baseline.py --out perfbench/baseline.json
    python3 perfbench/baseline.py --out /tmp/again.json --against perfbench/baseline.json

Each seed is one untraced ``run.py`` call; one traced call per workload
follows (seed 1).  For every end-to-end metric the summary holds the median
over seeds, the quartiles, and the spread (Q3 - Q1) / median, flagged when it
exceeds a third of the metric's bound.  Per seed it keeps the op count, the
failures and the simulation digest, so two summaries of the same code can be
checked for identical simulated results.  ``--against`` prints, per workload
and metric, the ratio of this summary's median to the other's, and whether
the digests agree.  Runs are made one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 10   # the benchmark's protocol: ten seeds per workload


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / "perfbench" / "results" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def summarise(bench: dict) -> dict:
    summary = {}
    for wl in (w["name"] for w in bench["workloads"]):
        runs, values = [], {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(1, SEEDS + 1):
            result, record = _run(wl, seed, bench["run_seconds"], 0)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "failure_reasons": record["failure_reasons"],
                         "digest": record["digests"][0], "sim": record["sim"]})
            print(wl, seed, {k: v[-1] for k, v in values.items()}, file=sys.stderr, flush=True)
        metrics = {}
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            metrics[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                                  "spread": spread, "bound": m["bound"],
                                  "steady": spread <= m["bound"] / 3, "values": v}
        traced, record = _run(wl, 1, bench["run_seconds"], 1)
        summary[wl] = {
            "end_to_end": metrics, "runs": runs,
            "traced_seed1": {"correct": traced["correct"],
                             "matches_untraced": record["digests"] == [runs[0]["digest"]],
                             "metrics": {k: v["value"] for k, v in traced["metrics"].items()}},
        }
    return summary


def compare(new: dict, old: dict):
    for wl, cur in new["workloads"].items():
        ref = old["workloads"][wl]
        for name, m in cur["end_to_end"].items():
            ratio = m["median"] / ref["end_to_end"][name]["median"]
            print(f"{wl:9s} {name:17s} {ratio:8.4f}  (bound {m['bound']})")
        same = [a["digest"] == b["digest"] for a, b in zip(cur["runs"], ref["runs"])]
        print(f"{wl:9s} digests identical on {sum(same)}/{len(same)} seeds")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import context

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = {"context": context(), "run_seconds": bench["run_seconds"], "seeds": SEEDS,
           "workloads": summarise(bench)}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    if args.against:
        compare(doc, json.loads(args.against.read_text()))


if __name__ == "__main__":
    main()
