"""Span tracing around calls into uniconsist's modules.

The program itself is not edited: :func:`install` replaces module
attributes (and ``DensitySpec.__post_init__``) with timing wrappers, from
the benchmark's own files. A function imported by name into several
modules is replaced in every module that holds it, so by-name imports such
as ``mclab.substream`` or ``suites.chi2_rejections`` are traced too. A
target that no longer exists is skipped and its layer reports 0 calls.

Spans are kept in memory and written once, after the timed phase. Each
span records (id, parent id, name, start, end, work count, process CPU
time, whether it is a call or a pool task). Span stacks are per thread;
``mclab``'s thread pool is replaced by one whose tasks inherit the
submitting thread's open span, so block work done by pool workers is
attributed to the engine call that started it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Span name -> (module, attribute) targets. A class method is given as
# "Class.method". Names are the per-layer metric prefixes.
TARGETS = {
    "rng.substream": [("rng", "substream")],
    "signals.densityspec": [("signals", "DensitySpec.__post_init__")],
    "signals.invert_cdf": [("signals", "invert_cdf")],
    "signals.cdf_offset": [("signals", "cdf_offset")],
    "mclab.quad": [("mclab", "quad_rejections")],
    "mclab.kernel": [("mclab", "kernel_rejections")],
    "mclab.fixed": [("mclab", "fixed_rejections")],
    "mclab.chi2": [("mclab", "chi2_rejections")],
    "mclab.cvm": [("mclab", "cvm_rejections")],
    "cvm.null_table": [("cvm", "weighted_null_quantiles")],
    "kernel.builtin": [("kernel", "builtin_kernel")],
    "quad.build_profile": [("quad", "build_profile")],
    "chi2.population": [("chi2", "chi2_population"),
                        ("chi2", "chi2_predicted_beta")],
    "alternatives.factory": [("alternatives", "make_consistent"),
                             ("alternatives", "make_inconsistent"),
                             ("alternatives", "make_spike_tail"),
                             ("alternatives", "combine")],
    "alternatives.classify": [("alternatives", "classify")],
    "funclasses.widths": [("funclasses", "greedy_widths"),
                          ("funclasses", "compactness_diagnostic")],
    "reports.write": [("suites", "write_result")],
}

ENGINE_FAMILIES = ("quad", "kernel", "fixed", "chi2", "cvm")
SUITE_NAMES = ("consistency", "inconsistency", "interaction", "purity",
               "compactness", "unbiasedness", "maxiset-counterexample")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


# Work counted per span, from the call's arguments and result.
COUNTS = {
    "signals.invert_cdf": lambda a, k, r: int(np.size(_arg(a, k, 1, "u"))),
    "signals.cdf_offset": lambda a, k, r: int(np.size(_arg(a, k, 1, "x"))),
    "cvm.null_table": lambda a, k, r: (
        int(np.size(_arg(a, k, 0, "weights")))
        * int(_arg(a, k, 2, "replicates"))),
    "reports.write": lambda a, k, r: _file_bytes(r),
    **{f"mclab.{f}": (lambda a, k, r: int(np.size(r))) for f in ENGINE_FAMILIES},
}


class NullTracer:
    """Tracer of untraced passes: calls run as they are."""

    def call(self, name, fn, args, kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Collects spans from every thread of one traced pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []        # tuples, see _record
        self.missing = []      # targets not found in this version
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    # -- span stack -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, sid, parent, name, t0, t1, count, cpu, is_call):
        with self._lock:
            self.spans.append((sid, parent, name, t0, t1, count, cpu, is_call))

    def call(self, name, fn, args, kwargs, count_fn=None, is_call=True,
             cpu=False):
        stack = self._stack()
        parent = stack[-1] if stack else (None, None)
        sid = next(self._ids)
        stack.append((sid, name))
        c0 = time.process_time() if cpu else None
        t0 = time.perf_counter()
        done = False
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            t1 = time.perf_counter()
            c = None if c0 is None else time.process_time() - c0
            stack.pop()
            count = (count_fn(args, kwargs, result)
                     if done and count_fn is not None else 0)
            self._record(sid, parent[0], name, t0, t1, count, c, is_call)

    # -- wrappers -------------------------------------------------------
    def wrap(self, name, fn):
        count_fn = COUNTS.get(name)
        engine = name.startswith("mclab.")
        proxy = name == "rng.substream"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs, count_fn, cpu=engine)
            return _GeneratorProxy(tracer, result) if proxy else result

        return traced

    def pool_class(self):
        """ThreadPoolExecutor whose tasks run under the submitter's span."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else (None, "pool")

                def task(*a, **k):
                    inner = tracer._stack()
                    inner.append(parent)
                    try:
                        return tracer.call(parent[1], fn, a, k, is_call=False)
                    finally:
                        inner.pop()

                return super().submit(task, *args, **kwargs)

        return TracedPool

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        keys = ("id", "parent", "name", "start", "end", "count", "cpu",
                "call")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                rec = dict(zip(keys, span))
                rec["run"] = self.run_id
                fh.write(json.dumps(rec) + "\n")


class _GeneratorProxy:
    """Generator stand-in that times the draw methods the program uses."""

    __slots__ = ("_tracer", "_gen")

    def __init__(self, tracer: Tracer, gen):
        self._tracer = tracer
        self._gen = gen

    def standard_normal(self, *args, **kwargs):
        return self._tracer.call("rng.draw", self._gen.standard_normal, args,
                                 kwargs, _result_size)

    def random(self, *args, **kwargs):
        return self._tracer.call("rng.draw", self._gen.random, args, kwargs,
                                 _result_size)

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


def _result_size(args, kwargs, result) -> int:
    return int(np.size(result))


def install(tracer: Tracer) -> None:
    """Replace every target attribute in the loaded uniconsist modules."""
    package = importlib.import_module("uniconsist")
    for name, targets in TARGETS.items():
        for module_name, attr in targets:
            try:
                module = importlib.import_module(f"uniconsist.{module_name}")
            except ImportError:
                tracer.missing.append(f"{module_name}.{attr}")
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or meth not in vars(cls):
                    tracer.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(cls, meth, tracer.wrap(name, vars(cls)[meth]))
                continue
            original = getattr(module, attr, None)
            if original is None:
                tracer.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = tracer.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod is package
                                       or mod_name.startswith("uniconsist.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
    mclab = sys.modules.get("uniconsist.mclab")
    if mclab is not None and getattr(mclab, "ThreadPoolExecutor", None):
        mclab.ThreadPoolExecutor = tracer.pool_class()


# -- aggregation ---------------------------------------------------------

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans) -> dict:
    """Per-layer metrics (without units) from a list of span tuples."""
    children = {}
    for sid, parent, name, t0, t1, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    calls, counts, self_s, incl_s = {}, {}, {}, {}
    cpu_sum = wall_sum = 0.0
    for sid, parent, name, t0, t1, count, cpu, is_call in spans:
        dur = t1 - t0
        kids = children.get(sid)
        own = dur - (_covered(kids) if kids else 0.0)
        self_s[name] = self_s.get(name, 0.0) + own
        if is_call:
            calls[name] = calls.get(name, 0) + 1
            counts[name] = counts.get(name, 0) + count
            incl_s[name] = incl_s.get(name, 0.0) + dur
            if cpu is not None:
                cpu_sum += cpu
                wall_sum += dur

    def c(name):
        return calls.get(name, 0)

    def n(name):
        return counts.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    out = {
        "rng.substream.calls": c("rng.substream"),
        "rng.substream.s": s("rng.substream"),
        "rng.draw.values": n("rng.draw"),
        "rng.draw.s": s("rng.draw"),
        "signals.densityspec.calls": c("signals.densityspec"),
        "signals.densityspec.s": s("signals.densityspec"),
        "signals.invert_cdf.calls": c("signals.invert_cdf"),
        "signals.invert_cdf.points": n("signals.invert_cdf"),
        "signals.invert_cdf.s": s("signals.invert_cdf"),
        "signals.cdf_offset.calls": c("signals.cdf_offset"),
        "signals.cdf_offset.points": n("signals.cdf_offset"),
        "signals.cdf_offset.s": s("signals.cdf_offset"),
        "signals.evals_per_point": (
            n("signals.cdf_offset") / n("signals.invert_cdf")
            if n("signals.invert_cdf") else 0.0),
    }
    for fam in ENGINE_FAMILIES:
        name = f"mclab.{fam}"
        out[f"{name}.calls"] = c(name)
        out[f"{name}.rows"] = n(name)
        out[f"{name}.s"] = s(name)
        incl = incl_s.get(name, 0.0)
        out[f"{name}.rows_per_s"] = n(name) / incl if incl > 0.0 else 0.0
    out["mclab.cpu_per_wall"] = cpu_sum / wall_sum if wall_sum > 0.0 else 0.0
    draws = n("cvm.null_table")
    out.update({
        "cvm.null_table.calls": c("cvm.null_table"),
        "cvm.null_table.draws": draws,
        "cvm.null_table.bytes_computed": 8 * draws,
        "cvm.null_table.s": s("cvm.null_table"),
        "kernel.builtin.calls": c("kernel.builtin"),
        "kernel.builtin.s": s("kernel.builtin"),
        "quad.build_profile.calls": c("quad.build_profile"),
        "quad.build_profile.s": s("quad.build_profile"),
        "chi2.population.calls": c("chi2.population"),
        "chi2.population.s": s("chi2.population"),
        "alternatives.factory.calls": c("alternatives.factory"),
        "alternatives.factory.s": s("alternatives.factory"),
        "alternatives.classify.s": s("alternatives.classify"),
        "funclasses.widths.s": s("funclasses.widths"),
    })
    for suite in SUITE_NAMES:
        out[f"suites.{suite}.total_s"] = incl_s.get(f"suites.{suite}", 0.0)
    out.update({
        "reports.write.calls": c("reports.write"),
        "reports.write.bytes": n("reports.write"),
        "reports.write.s": s("reports.write"),
    })
    return out
