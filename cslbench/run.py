#!/usr/bin/env python3
"""Benchmark for cslsim: three workloads timed end to end, and per module.

Run from the root of a source checkout (cslsim is imported from ./src):

    python3 cslbench/run.py                       # all three workloads
    python3 cslbench/run.py --workload mc_dense --seed 1 --seconds 30 --trace 0

A workload run first times its set-up in fresh processes, then repeats
rounds of passes over its timed calls until ``--seconds`` have passed;
every round is one pass with ``threads=1`` and one with ``threads=2``,
in alternating order.  Every output is checked (see checks.py).  With
``--trace 1`` each round also makes traced passes and the run reports
the per-layer metrics instead of the end-to-end ones.  The last line of
standard output is the result as one JSON object.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("mc_dense", "mc_grid", "deterministic")
END_TO_END_UNITS = {"setup_s": "s", "wall_1t_s": "s", "wall_2t_s": "s",
                    "peak_rss_mb": "MB"}
# Fresh processes whose set-up times give the median setup_s.
SETUP_SAMPLES = 7
# In-process set-ups traced for the set-up layers.
TRACED_SETUPS = 3
CHILD_TIMEOUT_S = 170


def _load_workloads():
    """Import the workloads with cslsim taken from this checkout's src."""
    if not (SRC / "cslsim" / "__init__.py").is_file():
        sys.exit(f"error: no cslsim sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads


class Tally:
    """Operations attempted and failed, with each output's checks.

    Outputs with the same digest are bit-identical, so their checks are
    evaluated once and reused.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = False
        self._verified = {}
        self.messages = []

    def record(self, part, out, reference=None):
        """Count one operation; return its output digest (None if it raised)."""
        self.attempted += 1
        if isinstance(out, BaseException):
            self.failed += 1
            self._note(f"{part.name}: raised {type(out).__name__}: {out}")
            return None
        key = part.digest(out)
        if (part.name, key) not in self._verified:
            self._verified[(part.name, key)] = part.verify(out)
        bad = [(c.name, c.detail) for c in self._verified[(part.name, key)]
               if not c.passed]
        if reference is not None and key != reference:
            bad.append(("bitwise", "output differs from the other passes of the round"))
        if bad:
            self.failed += 1
            self.wrong = True
            for name, detail in bad:
                self._note(f"{part.name}: {name} failed: {detail}")
        return key

    def _note(self, message):
        if message not in self.messages:
            self.messages.append(message)

    def check_lines(self):
        return [f"{part}: {c.name}: {'ok' if c.passed else 'FAILED'} {c.detail}"
                for (part, _), checks in self._verified.items() for c in checks]


def run_pass(parts, threads):
    """One pass over the timed calls; an exception is the call's output."""
    outs = []
    start = time.perf_counter()
    for part in parts:
        try:
            outs.append(part.call(threads))
        except Exception as exc:  # recorded as a failed operation
            traceback.print_exc(file=sys.stderr)
            outs.append(exc)
    return time.perf_counter() - start, outs


def record_round(tally, parts, passes):
    """Count the operations of one round; all passes must agree bitwise."""
    reference = [None] * len(parts)
    for outs in passes:
        for i, (part, out) in enumerate(zip(parts, outs)):
            key = tally.record(part, out, reference[i])
            if reference[i] is None:
                reference[i] = key


def timed(samples):
    """Drop the first round's sample when two or more rounds follow it.

    The first round pays first-call costs (thread pools, first touch of
    the batch arrays): up to a second more on mc_dense.  Its outputs are
    still checked and counted.
    """
    return samples[1:] if len(samples) >= 3 else samples


def setup_child(workload, seed):
    """Body of a set-up sample: import numpy and cslsim, build the inputs."""
    start = time.perf_counter()
    workloads = _load_workloads()
    workloads.SETUPS[workload](seed)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def measure_setup(workload, seed):
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples), samples


def run_untraced(workloads, workload, seed, seconds, tally):
    setup_s, setup_samples = measure_setup(workload, seed)
    parts = workloads.SETUPS[workload](seed)
    walls = {1: [], 2: []}
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        passes = []
        for threads in ((1, 2) if rounds % 2 == 0 else (2, 1)):
            wall, outs = run_pass(parts, threads)
            walls[threads].append(wall)
            passes.append(outs)
        record_round(tally, parts, passes)
        rounds += 1
    metrics = {
        "setup_s": setup_s,
        "wall_1t_s": statistics.median(timed(walls[1])),
        "wall_2t_s": statistics.median(timed(walls[2])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"rounds": rounds, "setup_samples": setup_samples,
              "wall_1t_samples": walls[1], "wall_2t_samples": walls[2]}
    return metrics, END_TO_END_UNITS, detail


def run_traced(workloads, workload, seed, seconds, tally):
    import tracing

    tracer = tracing.Tracer()
    setup_roots = []
    for _ in range(TRACED_SETUPS):
        tracing.install(tracer)
        try:
            with tracer.span("bench.setup") as root:
                parts = workloads.SETUPS[workload](seed)
        finally:
            tracer.unpatch()
        setup_roots.append(root)

    def traced_pass(threads):
        tracing.install(tracer)
        try:
            with tracer.span(f"bench.pass.{threads}t") as root:
                _, outs = run_pass(parts, threads)
        finally:
            tracer.unpatch()
        return root, outs

    untraced, roots = [], {1: [], 2: []}
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        passes = []
        for step in (("plain", 1, 2) if rounds % 2 == 0 else (1, "plain", 2)):
            if step == "plain":
                wall, outs = run_pass(parts, 1)
                untraced.append(wall)
            else:
                root, outs = traced_pass(step)
                roots[step].append(root)
            passes.append(outs)
        record_round(tally, parts, passes)
        rounds += 1
    metrics = tracing.per_layer_metrics(tracer, setup_roots, timed(roots[1]),
                                        timed(roots[2]), timed(untraced))
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"trace-{workload}-seed{seed}.npz")
    detail = {"rounds": rounds, "spans": len(tracer.spans),
              "untraced_1t_samples": untraced}
    return metrics, tracing.PER_LAYER_UNITS, detail


def run_workload(workload, seed, seconds, trace):
    workloads = _load_workloads()
    tally = Tally()
    runner = run_traced if trace else run_untraced
    metrics, units, detail = runner(workloads, workload, seed, seconds, tally)

    print(f"{workload} seed={seed} trace={trace} rounds={detail['rounds']}")
    for line in tally.check_lines():
        print("  check " + line)
    for message in tally.messages:
        print("  FAILURE " + message)
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  operations attempted={tally.attempted} failed={tally.failed}")

    result = {"correct": not tally.wrong, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{workload}-seed{seed}-trace{trace}.json", "w") as f:
        json.dump({**result, "detail": detail, "checks": tally.check_lines(),
                   "failures": tally.messages}, f, indent=1)
    print(json.dumps(result), flush=True)


def run_all(seed, seconds, trace):
    """Each workload in its own process; a summary table at the end."""
    results = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S + 600)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            sys.exit(f"error: workload {workload} exited with {done.returncode}")
        results[workload] = json.loads(lines[-1])
    print("\nworkload        correct attempted failed  metrics")
    for workload, r in results.items():
        shown = "  ".join(f"{k}={m['value']:.4g}{m['unit']}" for k, m in r["metrics"].items())
        print(f"{workload:<15} {str(r['correct']):<7} {r['attempted']:>9} {r['failed']:>6}  {shown}")
    print(json.dumps(results))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        run_all(args.seed, args.seconds, args.trace)
    elif args.setup_only:
        setup_child(args.workload, args.seed)
    else:
        run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
