#!/usr/bin/env python3
"""The focalgroups benchmark: one closed-loop client in one process.

    python3 perfbench/run.py --workload {balls,queries,reports} --seed N \\
        --seconds S --trace {0,1}

With --trace 0 the run is untraced and the last line of stdout is a JSON
object whose metrics are the end-to-end metrics of BENCHMARK.json.  With
--trace 1 the same ops run twice, untraced and then traced, and the metrics
are the per-layer metrics; the full trace (spans, per-op breakdown) is
written to .bench_out/ in the checkout.  Every op is checked outside its
timed region; `failed` counts ops that raised or failed their check.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["balls", "queries", "reports"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload, seed):
    """Imports, family construction, op generation and reference loading."""
    start = time.perf_counter()
    import workloads

    wl = workloads.Workload(workload, seed)
    return wl, time.perf_counter() - start


def probe_setup(args):
    """Set-up time of a fresh interpreter, measured inside it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


class Pass:
    """Latencies and outcomes of one pass over a sequence of ops."""

    def __init__(self):
        self.ops, self.latencies, self.failures, self.bytes_out = [], [], [], 0

    @property
    def failed(self):
        return len(self.failures)

    def entry_runs(self):
        """The latencies of each distinct pool entry that ran."""
        runs = {}
        for op, seconds in zip(self.ops, self.latencies):
            runs.setdefault(id(op), []).append(seconds)
        return list(runs.values())

    def entry_latencies(self):
        """The least latency of each distinct pool entry that ran.

        Every entry weighs the same however often it ran, so a run that
        stops part-way through a round has the pool's mix.  On a shared host
        other tenants slow pure Python code by up to 1.6x for seconds at a
        time; an entry's fastest run is the one least disturbed by them, so
        the least latency is far steadier from run to run than the mean or
        the median, and it still moves with the work the op does."""
        return [min(v) for v in self.entry_runs()]


def release_memory():
    """Free garbage and hand unused heap back to the OS, so that the peak
    RSS is that of the largest op rather than of the heap's history."""
    gc.collect()
    if _LIBC is not None and hasattr(_LIBC, "malloc_trim"):
        _LIBC.malloc_trim(0)


_LIBC = ctypes.CDLL(None) if sys.platform.startswith("linux") else None


def run_pass(rounds, reference, deadline=None, tracer=None, run=None, check=None, release=False):
    """Run ops one at a time, each after the previous one returned.

    `rounds` is an iterable of op lists.  With a deadline the first round
    always completes and the pass stops at the first op boundary after the
    deadline.  With `release`, memory is released between ops, outside the
    timed region."""
    import workloads

    run = run or workloads.run_op
    check = check or workloads.check_op
    out = Pass()
    for index, batch in enumerate(rounds):
        for op in batch:
            if deadline is not None and index > 0 and time.perf_counter() >= deadline:
                return out
            if tracer is not None:
                tracer.op_index = len(out.ops)
            error, result = None, None
            start = time.perf_counter()
            try:
                result = run(op)
            except Exception as exc:  # a failed op is counted, not fatal
                error = exc
            out.latencies.append(time.perf_counter() - start)
            out.ops.append(op)
            if tracer is not None:
                tracer.paused = True
            try:
                if error is None and not check(op, result, reference):
                    error = "check failed"
            except Exception as exc:
                error = exc
            finally:
                if tracer is not None:
                    tracer.paused = False
            if error is not None:
                out.failures.append(f"{op.name} [{op.kind}]: {error!r}")
            if op.kind == "cli" and result is not None:
                out.bytes_out += len(result["text"].encode())
            result = None
            if release:
                release_memory()
        if deadline is None or time.perf_counter() >= deadline:
            return out
    return out


def tail(values):
    """The highest ladder percentile with >= TAIL_MIN_BEYOND values beyond
    it; fewer than 2 * TAIL_MIN_BEYOND values give the largest one
    (percentile 100).  Returns the value, the percentile and the count
    beyond it."""
    n = len(values)
    ordered = sorted(values)
    for p in TAIL_LADDER:
        beyond = int(n * (100 - p) / 100 + 1e-9)
        if beyond >= TAIL_MIN_BEYOND:
            return ordered[n - beyond - 1], p, beyond
    return ordered[-1], 100.0, 0


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def blas_threads():
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment():
    import numpy

    from workloads import SRC, metric

    digest = hashlib.sha256()
    for path in sorted((SRC / "focalgroups").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "blas_threads": blas_threads(),
        "speedups_imported": metric._speedups is not None,
        "use_speedups": bool(metric.USE_SPEEDUPS),
    }


# ---------------------------------------------------------------------------


def end_to_end(args, wl, setup_s):
    # Half the fresh set-ups run before the loop and half after it, so that
    # their median does not hang on one phase of the host's speed.
    probes = SETUP_SAMPLES - 1
    setup_samples = [setup_s] + [probe_setup(args) for _ in range(probes // 2)]
    deadline = time.perf_counter() + args.seconds
    result = run_pass(wl.rounds(), wl.reference, deadline=deadline, release=wl.release_between_ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_samples += [probe_setup(args) for _ in range(probes - probes // 2)]
    entries = result.entry_latencies()
    runs_per_entry = [len(v) for v in result.entry_runs()]
    tail_s, tail_p, tail_beyond = tail(entries)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (len(entries) / sum(entries), "1/s"),
        "op_p50_ms": (statistics.median(entries) * 1000, "ms"),
        "op_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {
        "setup_samples_s": setup_samples,
        "ops": len(result.ops),
        "pool_entries": len(entries),
        "runs_per_entry": {"min": min(runs_per_entry), "median": statistics.median(runs_per_entry)},
        "entry_mean_over_least": statistics.fmean(statistics.fmean(v) / min(v) for v in result.entry_runs()),
        "busy_s": sum(result.latencies),
        "op_tail_percentile": tail_p,
        "op_tail_entries_beyond": tail_beyond,
        "failed_ratio": {"value": result.failed / len(result.ops), "unit": "ratio"},
        "failures": result.failures[:10],
    }
    return result, metrics, detail


def per_layer(args, wl):
    from tracer import LAYER_METRICS, Tracer

    import workloads

    # Tracing slows ops by about 1.3x, so the untraced pass gets 40% of
    # --seconds and the whole traced run takes about --seconds.
    budget = args.seconds * 0.4
    plain = run_pass(wl.rounds(), wl.reference, deadline=time.perf_counter() + budget, release=wl.release_between_ops)
    with Tracer() as tracer:
        traced = run_pass([plain.ops], wl.reference, tracer=tracer, release=wl.release_between_ops)
    overhead = sum(traced.latencies) / sum(plain.latencies)
    values = tracer.layer_metrics(len(traced.ops), overhead, traced.bytes_out)
    metrics = {name: (values[name], LAYER_METRICS[name][0]) for name in LAYER_METRICS}
    inclusive, own = tracer.span_times()
    by_op = tracer.by_op([op.name for op in traced.ops], traced.latencies)
    trace = {
        "workload": args.workload,
        "seed": args.seed,
        "env": environment(),
        "ops": len(traced.ops),
        "untraced_busy_s": sum(plain.latencies),
        "traced_busy_s": sum(traced.latencies),
        "span_inclusive_s": dict(inclusive),
        "span_self_s": dict(own),
        "tally_calls": dict(tracer.calls),
        "tally_s": dict(tracer.seconds),
        "by_op": by_op,
        "spans": tracer.spans,
    }
    workloads.OUT_DIR.mkdir(exist_ok=True)
    path = workloads.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(trace))
    failures = plain.failures + traced.failures
    detail = {
        "trace_file": str(path.relative_to(ROOT)),
        "ops_per_pass": len(plain.ops),
        # The per-entry breakdown of a large pool stays in the trace file.
        "by_op": {k: {"ops": v["ops"], "seconds": round(v["seconds"], 4), "top_spans": dict(list(v["spans"].items())[:4])}
                  for k, v in by_op.items()} if len(by_op) <= 20 else None,
        "failures": failures[:10],
    }
    combined = Pass()
    combined.ops = plain.ops + traced.ops
    combined.failures = failures
    return combined, metrics, detail


def main(argv=None):
    args = parse_args(argv)
    try:
        wl, setup_s = setup(args.workload, args.seed)
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: cannot set up the benchmark: {exc!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        result, metrics, detail = per_layer(args, wl)
    else:
        result, metrics, detail = end_to_end(args, wl, setup_s)
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed, "detail": detail}))
    for failure in result.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": len(result.ops),
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
