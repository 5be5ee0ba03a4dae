"""Span tracing of the dimcert package from outside it.

``install`` replaces every binding of every public dimcert function (the
names in each module's ``__all__``) with a wrapper that records a span.
The package imports with ``from .x import y``, so a function has one
binding in its defining module and one more in each module that imports
it; all of them are replaced, or internal calls would go unrecorded. The
checks run when a ``DensityMatrix`` or ``PureState`` is built are traced
as ``states.validate`` through their ``__post_init__``.

Spans are kept in memory in flat integer columns and written out once, at
the end of the run. A span's self time is its duration minus the time its
child spans cover; sampling runs on one worker, so children never overlap.
"""

import functools
import inspect
import math
import sys
import time
from array import array

import numpy as np

LAYERS = ("states", "correlations", "criteria", "moments", "boundary",
          "randsim", "cli")
OP = "op"
VALIDATE = "states.validate"
SAMPLES = "randsim.samples"
BLOCKS = "randsim.blocks"
POOL_WORKERS = "randsim.pool_workers"
COLUMNS = ("name", "op", "parent", "start_ns", "end_ns", "self_ns")


class Tracer:
    """Span recorder with a stack for self time, active only inside ops."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.cols = {c: array("q") for c in COLUMNS}
        self.counts = {}
        self._stack = []  # [span index, start_ns, child_ns]
        self.active = False
        self.op_index = -1

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid):
        cols = self.cols
        idx = len(cols["name"])
        cols["name"].append(nid)
        cols["op"].append(self.op_index)
        cols["parent"].append(self._stack[-1][0] if self._stack else -1)
        cols["start_ns"].append(0)
        cols["end_ns"].append(0)
        cols["self_ns"].append(0)
        start = time.perf_counter_ns()
        self._stack.append([idx, start, 0])

    def exit(self):
        end = time.perf_counter_ns()
        idx, start, child = self._stack.pop()
        dur = end - start
        self.cols["start_ns"][idx] = start
        self.cols["end_ns"][idx] = end
        self.cols["self_ns"][idx] = dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def count(self, name, n):
        if self.active:
            self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name, on_call=None):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(tracer, args, kwargs)
            tracer.enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return traced

    def arrays(self):
        return {c: np.frombuffer(self.cols[c], dtype=np.int64)
                for c in COLUMNS}

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def _count_samples(tracer, args, kwargs):
    # estimate_moments(rho, n_tot, seed, ...): sampling runs in blocks of
    # 4096 draws, so the block count follows from n_tot
    n_tot = kwargs.get("n_tot", args[1] if len(args) > 1 else 0)
    tracer.count(SAMPLES, int(n_tot))
    tracer.count(BLOCKS, math.ceil(int(n_tot) / 4096))


def install(tracer, package):
    """Wrap every binding of the public dimcert functions; return the map
    from span name to the number of bindings replaced."""
    prefix = package.__name__ + "."
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == package.__name__
                                     or name.startswith(prefix))]
    wrappers = {}
    for mod in modules:
        short = mod.__name__[len(prefix):]
        if short not in LAYERS:
            continue
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if (callable(obj) and not inspect.isclass(obj)
                    and getattr(obj, "__module__", None) == mod.__name__):
                span = f"{short}.{name}"
                on_call = (_count_samples if span == "randsim.estimate_moments"
                           else None)
                wrappers[id(obj)] = (obj, tracer.wrap(obj, span, on_call),
                                     span)
    bindings = {}
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                bindings[hit[2]] = bindings.get(hit[2], 0) + 1
    randsim = sys.modules[prefix + "randsim"]
    pool_cls = randsim.ThreadPoolExecutor

    class CountingPool(pool_cls):
        # sampling only builds a pool for more than one worker
        def __init__(self, max_workers=None, *args, **kwargs):
            tracer.counts[POOL_WORKERS] = max(
                tracer.counts.get(POOL_WORKERS, 0), max_workers or 0)
            super().__init__(max_workers, *args, **kwargs)

    randsim.ThreadPoolExecutor = CountingPool
    states = sys.modules[prefix + "states"]
    for cls in (states.DensityMatrix, states.PureState):
        cls.__post_init__ = tracer.wrap(cls.__post_init__, VALIDATE)
        bindings[VALIDATE] = bindings.get(VALIDATE, 0) + 1
    return bindings


def layer_metrics(tracer, n_ops):
    """Per-layer metrics of the traced ops, from the recorded spans."""
    cols = tracer.arrays()
    n_names = len(tracer.names)
    names = cols["name"]
    calls = np.bincount(names, minlength=n_names)
    self_ns = np.bincount(names, weights=cols["self_ns"], minlength=n_names)
    incl_ns = np.bincount(names, weights=cols["end_ns"] - cols["start_ns"],
                          minlength=n_names)
    by_name = {n: (int(calls[i]), float(self_ns[i]), float(incl_ns[i]))
               for i, n in enumerate(tracer.names)}
    ops = max(n_ops, 1)
    total_ns = by_name.get(OP, (0, 0.0, 0.0))[2]

    def self_ms(*spans):
        return sum(by_name.get(s, (0, 0.0, 0.0))[1] for s in spans) / 1e6 / ops

    def per_op_calls(*spans):
        return sum(by_name.get(s, (0, 0.0, 0.0))[0] for s in spans) / ops

    out = {}
    for layer in LAYERS:
        spans = [n for n in tracer.names if n.split(".")[0] == layer]
        ns = sum(by_name[s][1] for s in spans)
        out[f"{layer}.calls_per_op"] = per_op_calls(*spans)
        out[f"{layer}.self_ms_per_op"] = ns / 1e6 / ops
        out[f"{layer}.self_share"] = ns / total_ns if total_ns else 0.0
    out["correlations.correlation_data.calls_per_op"] = per_op_calls(
        "correlations.correlation_data")
    out["correlations.correlation_data.self_ms_per_op"] = self_ms(
        "correlations.correlation_data")
    for fn in ("compare_all", "sn_trace_norm", "sn_ccnr", "sn_two_norm",
               "sn_fidelity", "sn_reduction_map", "sn_covariance"):
        out[f"criteria.{fn}.self_ms_per_op"] = self_ms(f"criteria.{fn}")
    out["states.validate.calls_per_op"] = per_op_calls(VALIDATE)
    out["states.validate.self_ms_per_op"] = self_ms(VALIDATE)
    out["states.random.self_ms_per_op"] = self_ms(
        "states.random_pure", "states.random_mixed")
    out["moments.exact_moments.self_ms_per_op"] = self_ms(
        "moments.exact_moments")
    out["boundary.lower_boundary.calls_per_op"] = per_op_calls(
        "boundary.lower_boundary")
    out["boundary.lower_boundary.self_ms_per_op"] = self_ms(
        "boundary.lower_boundary")
    out["boundary.classify_point.self_ms_per_op"] = self_ms(
        "boundary.classify_point")
    out["randsim.estimate_moments.self_ms_per_op"] = self_ms(
        "randsim.estimate_moments")
    out["cli.main.self_ms_per_op"] = self_ms("cli.main")
    est_ns = by_name.get("randsim.estimate_moments", (0, 0.0, 0.0))[2]
    samples = tracer.counts.get(SAMPLES, 0)
    out["randsim.sampling_items_per_s"] = (samples / (est_ns / 1e9)
                                           if est_ns else 0.0)
    out["randsim.blocks_per_op"] = tracer.counts.get(BLOCKS, 0) / ops
    out["randsim.workers"] = float(tracer.counts.get(POOL_WORKERS, 0)
                                   or (1 if samples else 0))
    out["untraced_share"] = (by_name[OP][1] / total_ns) if total_ns else 0.0
    return out
