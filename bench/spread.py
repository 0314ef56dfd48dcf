#!/usr/bin/env python3
"""Every workload, end to end, and the run-to-run spread of its metrics.

    python3 bench/spread.py --seeds 1            # each workload once
    python3 bench/spread.py --seeds 1-10 --sets 2

Runs bench/run.py once per (set, seed, workload) over every workload of
BENCHMARK.json, interleaving the sets and the workloads so that drift in
host speed falls on all of them alike, and prints each run's metrics with
their units and its attempted, failed and correct.  With two or more seeds it then prints, per set, workload and
metric, the median, the quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median; with two sets also how far the second median
lies from the first, in the metric's worse direction.  Every run's summary
goes to bench/.results/spread.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
CONFIG = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int) -> dict:
    cmd = [*CONFIG["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(CONFIG["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True,
                          check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="range such as 1-10")
    p.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = p.parse_args(argv)
    workloads = [w["name"] for w in CONFIG["workloads"]]

    runs = []
    for seed in _seeds(args.seeds):
        for s in range(args.sets):
            for w in workloads:
                summary = _run(w, seed)
                runs.append({"set": s, "workload": w, "seed": seed, **summary})
                print(f"{w} seed {seed} set {s}: attempted {summary['attempted']}, "
                      f"failed {summary['failed']}, correct {summary['correct']}; "
                      + ", ".join(f"{k} {v['value']:.6g} {v['unit']}"
                                  for k, v in summary["metrics"].items()), flush=True)
    (BENCH / ".results").mkdir(exist_ok=True)
    (BENCH / ".results" / "spread.json").write_text(json.dumps(runs, indent=1) + "\n")
    if len(_seeds(args.seeds)) < 2:
        return 0 if all(r["correct"] for r in runs) else 1

    for w in workloads:
        for metric in CONFIG["end_to_end"]:
            name, medians = metric["name"], []
            for s in range(args.sets):
                vals = [r["metrics"][name]["value"] for r in runs
                        if r["workload"] == w and r["set"] == s]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                medians.append(med)
                print(f"{w:<15} {name:<12} set {s}: median {med:.6g}  "
                      f"q1 {q1:.6g}  q3 {q3:.6g}  spread {(q3 - q1) / med:.3f}  "
                      f"(bound {metric['bound']})")
            if args.sets == 2:
                worse = (medians[1] - medians[0]) / medians[0]
                if metric["better"] == "higher":
                    worse = -worse
                print(f"{w:<15} {name:<12} second median worse by {worse:+.3f}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
