"""Benchmark runner for dimcert.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify_exact --seed 1 --seconds 58 --trace 0

The workloads, metrics and bounds are defined in BENCHMARK.json at the
root; ``perfbench/layers.json`` says which end-to-end metric each
per-layer metric should move, on which workload.

With ``--trace 0`` the run times the end-to-end metrics with no tracing.
With ``--trace 1`` the first half of the time runs untraced and the
second half runs with every public dimcert function wrapped in a span
(see tracing.py); the run reports the per-layer metrics and the tracing
overhead. Every operation is checked by the workload's oracle after its
timing stops; a raise, a nonzero CLI exit or a failed oracle is a failed
operation.

A run cycles through its workload's pool of inputs, each pass on the
next CPU the process may use. items_per_s is the items done over the
summed wall-clock time of the operations; op_p50_ms and op_p90_ms are
percentiles of the operations' own times, which the result file keeps.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The run also
writes that result, with its provenance, to ``.bench_out/`` at the root,
and a traced run writes its spans there as ``.npz``.
"""

import os

# A plain single-threaded baseline: sampling already runs on one worker
# (DIMCERT_THREADS is removed below), and BLAS gets one thread unless the
# caller chose otherwise. This must precede the first import of numpy.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
CALLER_BLAS_THREADS = {v: os.environ.get(v) for v in BLAS_THREAD_VARS}
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7      # set-up is timed in this many fresh interpreters
MIN_OPS = 100          # so op_p90_ms has at least ten operations beyond it
HOLDOUT_SEED = 90_271  # a claimed gain must also hold on this seed
MAX_FAILURE_REPORTS = 5


def load_dimcert():
    """Import dimcert from src/ of this checkout, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dimcert
        import dimcert.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import dimcert from {src}: {exc}")
    where = Path(dimcert.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"perfbench: dimcert was imported from {where}, "
                         f"not from {src}")
    return dimcert


def set_up(name, seed):
    """Import the package, make the inputs and warm up.

    Returns the package, the workload, its inputs and the set-up time: the
    import of dimcert and the warm-up, without the benchmark's own making
    of the inputs (numpy is already imported, with this module).
    """
    start = time.perf_counter()
    dc = load_dimcert()
    imported = time.perf_counter()
    wl = workloads.make(name, dc)
    inputs = wl.make_inputs(seed)
    warm = time.perf_counter()
    for inp in wl.warmup_inputs(inputs):
        wl.run(inp)
    setup_s = (imported - start) + (time.perf_counter() - warm)
    return dc, wl, inputs, setup_s


def time_set_up(name, seed, repeats):
    """Set-up time in fresh interpreters, one per repeat, as each measured
    its own. The repeats take turns on the CPUs the process may use, as the
    passes of ``measure`` do."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", name, "--seed", str(seed)]
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    times = []
    try:
        for k in range(repeats):
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            res = subprocess.run(cmd, check=True, capture_output=True,
                                 text=True, timeout=120)
            times.append(float(res.stdout.split()[-1]))
    finally:
        os.sched_setaffinity(0, allowed)
    return times


class Tally:
    """Timings and oracle outcomes of the operations of one phase."""

    def __init__(self):
        self.durations_ns = []
        self.items = []
        self.failed = 0
        self.known = 0
        self.tight = 0

    @property
    def attempted(self):
        return len(self.durations_ns)

    def items_per_s(self):
        return sum(self.items) / (sum(self.durations_ns) / 1e9)


def measure(wl, inputs, seconds, min_ops=1, tracer=None):
    """Run operations back to back for ``seconds`` (and at least ``min_ops``
    operations, within three times ``seconds``); check each one.

    Each pass through the inputs runs on the next of the CPUs the process
    may use. On a shared host one CPU can be slowed for tens of seconds
    while another is not, so a run's times should not hinge on the CPU
    the scheduler happened to pick.
    """
    tally = Tally()
    op_span = tracer.name_id(tracing.OP) if tracer else None
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    start = time.perf_counter()
    try:
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= 3 * seconds or (elapsed >= seconds
                                          and tally.attempted >= min_ops):
                break
            run_one(wl, inputs, tally, cpus, tracer, op_span)
    finally:
        os.sched_setaffinity(0, allowed)
    return tally


def run_one(wl, inputs, tally, cpus, tracer, op_span):
    """Time and check the next operation of the pass; record it in ``tally``."""
    input_id = tally.attempted % len(inputs)
    if input_id == 0:
        n_pass = tally.attempted // len(inputs)
        os.sched_setaffinity(0, {cpus[n_pass % len(cpus)]})
    inp = inputs[input_id]
    if tracer:
        tracer.op_index = tally.attempted
        tracer.active = True
        tracer.enter(op_span)
    error = None
    t0 = time.perf_counter_ns()
    try:
        out = wl.run(inp)
    except Exception as exc:  # a raise is a failed operation
        error = exc
    t1 = time.perf_counter_ns()
    if tracer:
        tracer.exit()
        tracer.active = False
    tally.durations_ns.append(t1 - t0)
    if error is None:
        try:
            verdict = wl.check(inp, out)
        except Exception as exc:
            verdict = workloads.fail(f"oracle raised {exc!r}")
    else:
        verdict = workloads.fail(f"raised {error!r}")
    if not verdict.ok:
        tally.failed += 1
        tally.items.append(0)
        if tally.failed <= MAX_FAILURE_REPORTS:
            print(f"perfbench: {wl.name} op {tally.attempted - 1} failed: "
                  f"{verdict.reason}", file=sys.stderr)
        return
    tally.items.append(wl.items(inp))
    tally.known += verdict.known
    tally.tight += verdict.tight


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(tally, setup_times):
    ms = np.array(tally.durations_ns) / 1e6
    return {
        "setup_s": statistics.median(setup_times),
        "items_per_s": tally.items_per_s(),
        "op_p50_ms": float(np.percentile(ms, 50)),
        "op_p90_ms": float(np.percentile(ms, 90)),
        "peak_rss_mb": peak_rss_mb(),
        "pass_frac": 1 - tally.failed / tally.attempted,
        "tight_frac": tally.tight / tally.known if tally.known else 0.0,
    }


def blas_info():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def provenance(args, dimcert_threads):
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads_set_by_caller": CALLER_BLAS_THREADS,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "DIMCERT_THREADS_in_caller_env": dimcert_threads,
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


def run(args):
    dimcert_threads = os.environ.pop("DIMCERT_THREADS", None)
    if args.setup_only:
        print(set_up(args.workload, args.seed)[3])
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    dc, wl, inputs, _ = set_up(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = {}
    if args.trace:
        listed = spec["per_layer"]
        untraced = measure(wl, inputs, args.seconds / 2)
        tracer = tracing.Tracer()
        extra["bindings_wrapped"] = tracing.install(tracer, dc)
        tally = measure(wl, inputs, args.seconds / 2, tracer=tracer)
        values = tracing.layer_metrics(tracer, tally.attempted)
        traced_ips = tally.items_per_s()
        values["trace_overhead_frac"] = (untraced.items_per_s() / traced_ips - 1
                                         if traced_ips else 0.0)
        spans = OUT_DIR / f"{stem}-spans.npz"
        tracer.save(spans)
        extra["spans_file"] = str(spans.relative_to(ROOT))
        failed = untraced.failed + tally.failed
        attempted = untraced.attempted + tally.attempted
    else:
        listed = spec["end_to_end"]
        setup_times = time_set_up(args.workload, args.seed, SETUP_REPEATS)
        tally = measure(wl, inputs, args.seconds, min_ops=MIN_OPS)
        values = end_to_end(tally, setup_times)
        extra["setup_s_samples"] = setup_times
        extra["op_ms"] = [t / 1e6 for t in tally.durations_ns]
        failed, attempted = tally.failed, tally.attempted
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    result = {"correct": failed == 0 and attempted > 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    prov = provenance(args, dimcert_threads)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"provenance": prov, **extra, **result}, indent=2) + "\n")
    print(f"# provenance {json.dumps(prov)}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'fail_frac':48s} {failed / attempted:>16.6g} fraction "
          f"({failed} of {attempted} operations)")
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=58.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
