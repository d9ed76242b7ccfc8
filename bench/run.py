"""Benchmark of the starcong package: one workload, one run, one JSON line.

    python3 bench/run.py --workload classify-stream --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout of the repository: the package is
imported from the checkout's ``src``.  The run sets itself up, measures the
workload for ``--seconds`` (at least until its fixed first block of
operations is done), checks every answer, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
their times scaled to a nominal machine speed (see ``speed.py``).  With
``--trace 1`` they are the per-layer ones: the run then measures untraced for
``--seconds``, runs the first block again with spans recorded around every
call into the package's modules, reports the difference between the two as
the tracing overhead, and then judges the workload's probe set (inputs
outside the regime the package serves, see ``workloads.py``) untimed.  A
line starting with ``bench-info`` before the result records the environment,
the package version and the digest of the block's output; the same record,
with the spans of a traced run, is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One thread everywhere: this process and every process it starts.  Set
# before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from spans import MODULES, TRACED, Tracer, self_times  # noqa: E402
from speed import SpeedProbe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7


def load_package():
    """Import starcong from the checkout's source tree, never from elsewhere."""
    init = SRC / "starcong" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: {init} not found; run the benchmark inside a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import starcong

    if Path(starcong.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported starcong from {starcong.__file__}, not from {SRC}")
    return starcong


def measure(workload, seconds: float, tracer=None):
    """Closed loop with one caller: (latency of every operation, speed probe)."""
    workload.reset()
    probe = SpeedProbe(*workload.speed_kernel)
    latencies = []
    end = perf_counter() + seconds
    i = 0
    while i < workload.block or perf_counter() < end or (workload.whole_blocks and i % workload.block):
        probe.tick(i)
        inp = workload.prepare(i)
        if tracer is None:
            t0 = perf_counter()
            out = workload.call(inp)
            latencies.append(perf_counter() - t0)
        else:
            tracer.op = i
            with tracer.recording():
                t0 = perf_counter()
                out = workload.call(inp)
                latencies.append(perf_counter() - t0)
        workload.check(i, inp, out)
        i += 1
    probe.tick(i, force=True)
    workload.finish()
    return latencies, probe


def setup_times(args):
    """Wall times of fresh processes that import, generate the inputs and warm up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    probe = SpeedProbe("interpreter", reps=15)
    times = []
    for k in range(SETUP_REPEATS):
        probe.tick(k, force=True)
        t0 = perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    probe.tick(SETUP_REPEATS, force=True)
    return times, probe


def end_to_end(workload, latencies, setup_s) -> dict:
    """End-to-end metrics from the latencies and the set-up time."""
    return {
        "setup_s": setup_s,
        "peak_rss_mb": workload.peak_rss_mb(),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_ms_p50": 1e3 * float(np.median(latencies)),
        "op_ms_tail": 1e3 * float(np.percentile(latencies, workload.tail)),
    }


def per_layer(workload, spans, untraced, overhead, names) -> dict:
    """Per-layer metrics from the spans of the traced block, and the workload's own counts.

    Per-layer times are unscaled wall time; ``untraced`` are the unscaled
    latencies of the untraced phase.
    """
    own = self_times(spans)
    out: dict = {}
    for module, func in TRACED:
        name = f"{module}.{func}"
        durations = [e - s for n, s, e, _, _ in spans if n == name]
        out[f"{name}.calls"] = sum(1 for n, _, _, _, op in spans if n == name and op < workload.block)
        out[f"{name}.us_p50"] = 1e6 * float(np.median(durations)) if durations else 0.0
        out[f"{name}.s"] = float(np.median(durations)) if durations else 0.0
    top = sum(e - s for _, s, e, parent, _ in spans if parent < 0)
    for module in MODULES:
        share = sum(t for (n, *_), t in zip(spans, own) if n.split(".")[0] == module)
        out[f"{module}.self_frac"] = share / top if top > 0 else 0.0
    out["ops_failed_frac"] = workload.counts["failed"] / (workload.block + workload.probed)
    out["trace.overhead_frac"] = overhead
    own_metrics = workload.per_layer(spans, untraced)
    undeclared = sorted(set(own_metrics) - set(names))
    if undeclared:
        raise KeyError(f"metrics missing from BENCHMARK.json: {undeclared}")
    out.update(own_metrics)
    return out


def environment(args, starcong) -> dict:
    commit = "unknown"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "version": starcong.__version__,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": os.environ["OMP_NUM_THREADS"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    # One CPU for this process and the processes it starts, so the speed
    # probe and the operations run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    starcong = load_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    workload.warm_up()
    if args.setup_only:
        return 0
    if args.trace:
        # Untraced for --seconds, then the same first block traced: the spans
        # stay bounded (closure-graph alone records 57600 spans a graph).
        untraced, probe = measure(workload, args.seconds)
        untraced_violations = workload.violations
        tracer = Tracer()
        workload.tracer = tracer
        tracer.install()
        try:
            traced, traced_probe = measure(workload, 0.0, tracer)
        finally:
            tracer.uninstall()
        workload.probe()
        workload.violations[:0] = untraced_violations
        scaled = traced_probe.normalize(traced)
        overhead = sum(scaled) / sum(probe.normalize(untraced)[: len(scaled)]) - 1.0
        declared = config["per_layer"]
        values = per_layer(workload, tracer.spans, untraced, overhead, [m["name"] for m in declared])
    else:
        setup_raw, setup_probe = setup_times(args)
        raw, probe = measure(workload, args.seconds)
        setup_s = statistics.median(setup_probe.normalize(setup_raw))
        values = end_to_end(workload, probe.normalize(raw), setup_s)
        raw_values = end_to_end(workload, raw, statistics.median(setup_raw))
        declared = config["end_to_end"]

    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}
    result = {
        "correct": not workload.violations,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }
    record = {
        **environment(args, starcong),
        "speed_kernel": probe.kind,
        "speed_kernel_median_s": probe.median(),
        "digest": workload.digest.hexdigest(),
        "block": workload.block,
        "probed": workload.probed,
        "counts": dict(sorted(workload.counts.items())),
        "violations": workload.violations[:20],
        "result": result,
    }
    if not args.trace:
        record["unnormalized_metrics"] = raw_values
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    for message in workload.violations[:20]:
        print(f"bench: violation: {message}", file=sys.stderr)
    print("bench-info " + json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
