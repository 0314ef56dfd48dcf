#!/usr/bin/env python3
"""Benchmark of hedonic-match: transport solves, alpha search, the dense
diagnose and the audit diagnostics, each checked against an independent
oracle.

Run from the root of a checkout:

    python3 bench/run.py --workload transport-2d --seed 1 --seconds 25 --trace 0

A run sets up (timed in fresh child processes), then runs whole rounds of
the workload's fixed operation list: at least two, and as many as end
nearest to --seconds.  Each operation runs once on the program and once,
back to back on the same CPU, on the reference copy in bench/reference/,
so the time metrics are ratios in which the host's speed cancels.  With
--trace 1 it then runs one more round with spans around the program's
public functions and reports per-layer self times and counts.  Last, it
checks every operation's answer against bench/oracle.py and that every
round wrote the same bytes.  The last line of standard output is one JSON
object: correct, attempted, failed and the metrics.  README.md describes
the workloads and the metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, and no transparent huge pages for numpy's arrays, set
# before numpy loads; child processes inherit both.  Huge pages would make
# peak RSS depend on how fragmented the machine's memory is at the time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
REFERENCE = BENCH / "reference"
WORK = BENCH / ".work"
RESULTS = BENCH / ".results"
WORKLOAD_NAMES = ("transport-2d", "alpha-1d", "diagnose-dense", "audit-1d")
# Set-up samples are taken PROBES_PER_ROUND before each round and the rest
# after the last, so that their median spans the run's changes in host speed.
SETUP_PROBES = 6
PROBES_PER_ROUND = 2
MIN_ROUNDS = 2

# per-layer metric -> (span name, field, unit); fields are per operation:
# self_s (self time), calls, count (the span's counter), or a ratio
LAYER_METRICS = {
    "surplus.value_grid_s": ("surplus.value_grid", "self_s", "s"),
    "surplus.value_grid_calls": ("surplus.value_grid", "calls", "count"),
    "surplus.cells": ("surplus.value_grid", "count", "count"),
    "reduction.reduce_s": ("reduction.reduce", "self_s", "s"),
    "solver.transport_s": ("solver.transport", "self_s", "s"),
    "solver.transport_pivots": ("solver.transport", "count", "count"),
    "solver.transport_us_per_pivot": ("solver.transport", "us_per_count", "us"),
    "solver.direct_lp_s": ("solver.direct_lp", "self_s", "s"),
    "solver.direct_lp_pivots": ("solver.direct_lp", "count", "count"),
    "solver.direct_lp_ms_per_pivot": ("solver.direct_lp", "ms_per_count", "ms"),
    "solver.fixed_alpha_s": ("solver.fixed_alpha", "self_s", "s"),
    "solver.fixed_alpha_pivots": ("solver.fixed_alpha", "count", "count"),
    "solver.lift_s": ("solver.lift", "self_s", "s"),
    "core.coupling_s": ("core.coupling", "self_s", "s"),
    "core.coupling_entries": ("core.coupling", "count", "count"),
    "core.project_s": ("core.project", "self_s", "s"),
    "diagnostics.stability_s": ("diagnostics.stability", "self_s", "s"),
    "diagnostics.purity_s": ("diagnostics.purity", "self_s", "s"),
    "diagnostics.prices_s": ("diagnostics.prices", "self_s", "s"),
    "diagnostics.support_dimension_s": ("diagnostics.support_dimension", "self_s", "s"),
    "diagnostics.splitting_s": ("diagnostics.splitting", "self_s", "s"),
    "diagnostics.splitting_members": ("diagnostics.splitting", "count", "count"),
    "diagnostics.twists_s": ("diagnostics.twists", "self_s", "s"),
    "serialize.write_s": ("serialize.write", "self_s", "s"),
    "serialize.bytes": ("serialize.write", "count", "bytes"),
    "cli.self_s": ("cli", "self_s", "s"),
    "trace.unattributed_s": ("op", "self_s", "s"),
    "trace.op_s": ("op", "total_s", "s"),
}


def _import_program(root: Path = SRC) -> None:
    if not (root / "hedonic_match" / "__init__.py").is_file():
        sys.exit(f"error: no package at {root / 'hedonic_match'}; "
                 "run from the root of a hedonic-match checkout")
    sys.path.insert(0, str(root))
    import hedonic_match  # noqa: F401


# --- set-up -------------------------------------------------------------------

def _setup_probe(args) -> None:
    """Child process: import the program and build the inputs, timed."""
    t0 = time.perf_counter()
    _import_program()
    import workloads
    t1 = time.perf_counter()
    workloads.build_inputs(workloads.WORKLOADS[args.workload], args.seed,
                           Path(args.setup_probe))
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}), flush=True)


def _measure_setup(args, run_dir: Path, k: int) -> dict:
    """One sample: wall time from spawning a fresh interpreter to the point
    where its first operation could start."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe", str(run_dir / f"setup{k}")]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        sys.exit(f"error: set-up probe exited with code {proc.returncode}")
    return {"setup_s": t1 - t0, **json.loads(line)}


# --- rounds -------------------------------------------------------------------

def _run_op(workload, i: int, item, round_dir: Path, tracer=None) -> dict:
    """One operation.  The record holds its time, whether it failed, and
    what it produced (artifact bytes for the CLI, the result object for
    the library)."""
    import workloads
    from hedonic_match.serialize import dumps_json

    if workload.argv is not None:
        out_dir = round_dir / f"op{i}"
        fn, call_args = workloads.run_cli, (workload, item, out_dir)
    else:
        fn, call_args = workloads.run_alpha, (item,)
    t0 = time.perf_counter()
    try:
        result = tracer.op(fn, *call_args) if tracer else fn(*call_args)
    except Exception:
        result = None
        traceback.print_exc()
    rec = {"op": i, "time_s": time.perf_counter() - t0}
    if workload.argv is not None:
        rec["failed"] = result != 0
        rec["out_dir"] = out_dir
        rec["artifacts"] = ({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
                            if out_dir.is_dir() else {})
    else:
        rec["failed"] = result is None
        rec["result"] = result
        rec["artifacts"] = {} if result is None else {
            "result": dumps_json(result.result.to_dict()).encode(),
            "fixed_alpha": dumps_json(result.fixed_alpha_result.to_dict()).encode(),
            "alpha": dumps_json(result.alpha.to_dict()).encode(),
        }
    return rec


def _reference_worker(args) -> None:
    """Child process: the reference copy of the program runs the operation
    whose index each line of standard input names, and answers each with
    its time in seconds, or "failed"."""
    _import_program(REFERENCE)
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    run_dir = Path(args.reference_worker)
    inputs = workloads.build_inputs(workload, args.seed, run_dir / "ref-in")
    print("ready", flush=True)
    for line in sys.stdin:
        i, out_dir = line.split(maxsplit=1)
        item = inputs[int(i)]
        t0 = time.perf_counter()
        try:
            if workload.argv is not None:
                ok = workloads.run_cli(workload, item, Path(out_dir.strip())) == 0
            else:
                ok = workloads.run_alpha(item) is not None
        except Exception:
            ok = False
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
        print(repr(elapsed) if ok else "failed", flush=True)


def _start_reference(args, run_dir: Path) -> subprocess.Popen:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--reference-worker", str(run_dir)]
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    if proc.stdout.readline().strip() != "ready":
        _stop_reference(proc)
        sys.exit("error: the reference worker did not start")
    return proc


def _stop_reference(proc: subprocess.Popen) -> None:
    proc.stdin.close()
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _run_reference_op(proc: subprocess.Popen, i: int, out_dir: Path) -> float | None:
    proc.stdin.write(f"{i} {out_dir}\n")
    proc.stdin.flush()
    answer = proc.stdout.readline().strip()
    return None if answer in ("failed", "") else float(answer)


def _run_round(workload, inputs, round_dir: Path, reference, r: int) -> list[dict]:
    """Each operation on the program and on the reference, back to back.
    Which goes first alternates from one operation to the next and from
    one round to the next: the second run of a market can be faster."""
    records = []
    for i, item in enumerate(inputs):
        reference_first = (r + i) % 2 == 1
        if reference_first:
            ref_s = _run_reference_op(reference, i, round_dir / f"ref{i}")
        rec = _run_op(workload, i, item, round_dir)
        if not reference_first:
            ref_s = _run_reference_op(reference, i, round_dir / f"ref{i}")
        rec["ref_s"] = ref_s
        records.append(rec)
    return records


def _run_traced(workload, inputs, round_dir: Path, tracer) -> tuple[list, list]:
    """Each operation untraced and then traced, back to back, so that the
    difference of the two medians is the tracing overhead and not a drift
    in host speed."""
    plain, traced = [], []
    for i, item in enumerate(inputs):
        plain.append(_run_op(workload, i, item, round_dir / "plain"))
        tracer.install()
        try:
            traced.append(_run_op(workload, i, item, round_dir / "traced", tracer))
        finally:
            tracer.remove()
    return plain, traced


# --- checks -------------------------------------------------------------------

def _check(workload, seed: int, rounds: list[list[dict]]) -> list[str]:
    """Every operation against the oracle, where a failed operation is a
    failure of its own; and every round's artifacts against the first
    round's."""
    import oracle
    import workloads

    fails = []
    for i, market in enumerate(workloads.markets(workload, seed)):
        orc = oracle.Oracle(market)
        if workload.name == "audit-1d" and not orc.identity_optimal:
            fails.append(f"{market.label}: the sorted start is not optimal")
        first = None
        for r, records in enumerate(rounds):
            rec = records[i]
            what = f"{market.label} round {r}"
            if "ref_s" in rec and rec["ref_s"] is None:
                fails.append(f"{what}: the reference operation failed")
            if rec["failed"]:
                fails.append(f"{what}: the operation failed")
                continue
            try:
                if workload.argv is None:
                    found = oracle.check_alpha(orc, rec["result"])
                elif workload.argv[0] == "solve":
                    found = oracle.check_solve(orc, rec["out_dir"])
                else:
                    found = oracle.check_diagnose(orc, rec["out_dir"])
            except (OSError, KeyError, TypeError, ValueError) as exc:
                found = [f"unreadable output: {exc!r}"]
            fails += [f"{what}: {msg}" for msg in found]
            if first is None:
                first = rec["artifacts"]
            else:
                fails += oracle.check_identical(first, rec["artifacts"], what)
    return fails


# --- metrics ------------------------------------------------------------------

def _layer_metrics(tracer, setup: list[dict], plain: list[float],
                   traced: list[float]) -> dict[str, tuple[float, str]]:
    """Per-operation figures of the traced round, plus the set-up split and
    the tracing overhead (traced minus untraced median)."""
    layers = tracer.layers()
    n_ops = len(traced)
    out = {}
    for metric, (span, field, unit) in LAYER_METRICS.items():
        agg = layers.get(span, {"self_s": 0.0, "total_s": 0.0, "calls": 0, "count": 0})
        if field in ("us_per_count", "ms_per_count"):
            # 0 where the layer made no pivots: the ratio does not apply
            factor = 1e6 if field == "us_per_count" else 1e3
            value = factor * agg["self_s"] / agg["count"] if agg["count"] else 0.0
        else:
            value = agg[field] / n_ops
        out[metric] = (float(value), unit)
    out["setup.import_s"] = (statistics.median(s["import_s"] for s in setup), "s")
    out["setup.inputs_s"] = (statistics.median(s["inputs_s"] for s in setup), "s")
    out["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return out


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="measure the whole rounds that end nearest to this "
                        f"many seconds (at least {MIN_ROUNDS} rounds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    p.add_argument("--reference-worker", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _time_metrics(rounds: list[list[dict]]) -> dict[str, tuple[float, str]]:
    """The program's operation times against the reference's, each pair
    measured back to back, so that host speed cancels."""
    pairs = [(rec["time_s"], rec["ref_s"]) for records in rounds for rec in records
             if not rec["failed"] and rec["ref_s"] is not None]
    if not pairs:
        return {"ops_per_s_vs_ref": (0.0, "x"), "op_s_p50_vs_ref": (0.0, "x")}
    return {
        "ops_per_s_vs_ref": (sum(r for _, r in pairs) / sum(t for t, _ in pairs), "x"),
        "op_s_p50_vs_ref": (statistics.median(t / r for t, r in pairs), "x"),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        _setup_probe(args)
        return 0
    if args.reference_worker:
        _reference_worker(args)
        return 0

    _import_program()
    # The program, the reference and the set-up probes share one CPU, so
    # that each pair of operations meets the same load from the host.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)

    import workloads
    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.build_inputs(workload, args.seed, run_dir / "in")

    # Whole rounds, at least MIN_ROUNDS, and another one only while it would
    # end nearer to --seconds than stopping now does.
    rounds, setup, elapsed = [], [], 0.0
    reference = _start_reference(args, run_dir)
    try:
        while True:
            while len(setup) < min(SETUP_PROBES, PROBES_PER_ROUND * (len(rounds) + 1)):
                setup.append(_measure_setup(args, run_dir, len(setup)))
            start = time.perf_counter()
            rounds.append(_run_round(workload, inputs, run_dir / f"round{len(rounds)}",
                                     reference, len(rounds)))
            elapsed += time.perf_counter() - start
            if (len(rounds) >= MIN_ROUNDS
                    and elapsed * (1 + 0.5 / len(rounds)) >= args.seconds):
                break
    finally:
        _stop_reference(reference)
    while len(setup) < SETUP_PROBES:
        setup.append(_measure_setup(args, run_dir, len(setup)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    times = [rec["time_s"] for records in rounds for rec in records
             if not rec["failed"]]
    time_metrics = _time_metrics(rounds)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        rounds += _run_traced(workload, inputs, run_dir / "paired", tracer)

    fails = _check(workload, args.seed, rounds)
    attempted = sum(len(records) for records in rounds)
    failed = sum(rec["failed"] for records in rounds for rec in records)
    correct = not fails

    if tracer is None:
        metrics = {
            **time_metrics,
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(s["setup_s"] for s in setup), "s"),
        }
    else:
        plain, traced = ([rec["time_s"] for rec in records] for records in rounds[-2:])
        metrics = _layer_metrics(tracer, setup, plain, traced)

    for msg in fails:
        print(f"check failed: {msg}", file=sys.stderr)
    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g}  {unit}")
    if times:
        print(f"(host-dependent, not a metric: {len(times) / sum(times):.4g} "
              f"operations/s, median operation {statistics.median(times):.4g} s)")
    print(f"attempted {attempted}, failed {failed}, rounds {len(rounds)}, "
          f"checks {'passed' if correct else 'FAILED'}")

    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({
        **summary, "check_failures": fails, "setup": setup,
        "op_times_s": [[rec["time_s"] for rec in records] for records in rounds],
        "ref_times_s": [[rec.get("ref_s") for rec in records] for records in rounds],
    }, indent=1) + "\n")
    if tracer is not None:
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(
            [{"name": n, "start": s, "end": e, "parent": p, "count": c}
             for n, s, e, p, c in tracer.spans]) + "\n")
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
