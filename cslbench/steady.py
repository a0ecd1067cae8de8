#!/usr/bin/env python3
"""Steadiness check: run workloads over many seeds and report the spreads.

    python3 cslbench/steady.py                      # 10 seeds, every workload
    python3 cslbench/steady.py --workloads mc_grid --runs 5 --sets 2

For each end-to-end metric it prints the median of the runs and the
distance between the first and the third quartile as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's
bound from BENCHMARK.json.  With ``--sets 2`` a second set of runs, on
other seeds, is compared with the first.  The check passes when every
spread but that of ``setup_s`` is within its bound, the second median is
not worse than the first by more than the bound, every run is correct
and both sets fail the same share of operations; the exit status says
which.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload_names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=workload_names,
                        choices=workload_names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    ok = True
    report = {}
    for workload in args.workloads:
        sets = []
        for k in range(args.sets):
            seeds = [args.first_seed + k * args.runs + i for i in range(args.runs)]
            sets.append([run_once(workload, s, args.seconds) for s in seeds])
        report[workload] = sets
        print(f"\n{workload}: {args.runs} runs x {args.sets} set(s)")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians, cells = [], []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                medians.append(statistics.median(values))
                s = spread(values)
                if name != "setup_s" and s > bound:
                    ok = False
                cells.append(f"median {medians[-1]:.5g} spread {100 * s:5.2f}%")
            line = f"  {name:<12} " + " | ".join(cells) + f"  (bound {100 * bound:.0f}%)"
            if len(medians) == 2:
                moved = medians[1] / medians[0] - 1.0
                if metric["better"] == "higher":
                    moved = -moved
                ok &= moved <= bound
                line += f"  second vs first {100 * moved:+.2f}%"
            print(line)
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for rs in sets]
        correct = all(r["correct"] for rs in sets for r in rs)
        ok &= correct and len(set(shares)) == 1
        print(f"  failed share per set {shares}, all correct: {correct}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=1))
    print("\nwithin the bounds" if ok else "\nNOT within the bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
