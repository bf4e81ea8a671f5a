"""Per-layer tracing of one `simplotope` job, from outside the package.

A traced job is a fresh process running this file:

    python perfbench/tracer.py JOB STATS.json <simplotope arguments...>

It imports every `simplotope.*` module, replaces each function named in
LAYERS with a timing wrapper, then calls `simplotope.cli.main(arguments)`
exactly as `python -m simplotope.cli` does, so standard output and the exit
code are the untraced job's.  A module-level function is replaced under
every alias it has across the package's module namespaces (`lp_minimize`
lives in `exact`, `lptable` and `verifier`); a method is replaced on its
class.  A function that no longer exists is left out, and its metrics are
absent from the result rather than reported as 0.

Every wrapped call is a span: name, start, end, parent span and job.  Spans
are kept in memory and written to STATS.json when the job ends.  The hot
leaves marked `fold` (VTable.get runs millions of times per bounds job) keep
per-name totals only.  A span's self time is its duration minus the
durations of the wrapped calls it made.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import pkgutil
import sys
import time
from dataclasses import dataclass
from typing import Callable

CALLS = "calls"
SELF = "self_s"
TOTAL = "total_s"   # inclusive time, wrapped calls made inside included


def _lp_size(problem, *args, **kwargs) -> dict:
    return {"exact.lp_minimize.cols": len(problem.objective),
            "exact.lp_minimize.rows": len(problem.constraints)}


def _pairs(cand, *args, **kwargs) -> dict:
    n = len(cand.simplices)
    return {"verifier.pairs": n * (n - 1) // 2}


@dataclass(frozen=True)
class Layer:
    module: str                         # submodule of simplotope
    qualname: str                       # function, or Class.method
    report: tuple[str, ...]             # which of CALLS / SELF / TOTAL the benchmark reports
    fold: bool = False                  # hot leaf: per-name totals, no span records
    count: Callable[..., dict] | None = None   # call arguments -> {metric: increment}
    counted: tuple[str, ...] = ()       # metric names `count` produces

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


LAYERS = (
    Layer("exact", "lp_minimize", (CALLS, SELF), count=_lp_size,
          counted=("exact.lp_minimize.cols", "exact.lp_minimize.rows")),
    Layer("exact", "det", (CALLS, SELF), fold=True),
    Layer("exact", "scaled_inverse", (SELF,)),
    Layer("core", "class_of", (CALLS, SELF), fold=True),
    Layer("core", "minimal_face", (CALLS, SELF), fold=True),
    Layer("core", "has_exterior_facet", (SELF,)),
    Layer("counting", "q_count", (CALLS, SELF), fold=True),
    Layer("fbounds", "f_bound", (CALLS, SELF), fold=True),
    Layer("fbounds", "VTable.get", (CALLS, SELF), fold=True),
    Layer("lptable", "build_lp", (CALLS, SELF)),
    Layer("lptable", "solve_cell", (SELF,)),
    Layer("lptable", "bounds_table", (SELF,)),
    Layer("verifier", "verify", (CALLS, SELF), count=_pairs, counted=("verifier.pairs",)),
    Layer("verifier", "facet_rows", (SELF,)),
    Layer("verifier", "adjacency_graph", (SELF,)),
    Layer("verifier", "interiors_overlap", (CALLS, SELF, TOTAL)),
    Layer("tfiles", "load_candidate", (SELF,)),
    Layer("standard", "standard_triangulation", (SELF,)),
    Layer("trisquare", "lower_bound_10_argument", (SELF,)),
    Layer("trisquare", "overlap_matrix", (SELF,)),
    Layer("trisquare", "center_in_facet", (SELF,)),
    Layer("trisquare", "construction_stages", (SELF,)),
    Layer("cli", "main", (SELF,)),
)

MEMO_METRICS = ("fbounds.memo_entries", "fbounds.memo_hit_ratio")


def metric_names(layers=LAYERS) -> list[str]:
    """Every per-layer metric a traced run can report, in order."""
    names = []
    for layer in layers:
        names += [f"{layer.name}.{m}" for m in layer.report] + list(layer.counted)
    return names + list(MEMO_METRICS)


class Recorder:
    """Spans and per-name totals of one job, held in memory until `dump`."""

    def __init__(self, job: str):
        self.job = job
        self.t0 = time.perf_counter()
        self.stack: list[list] = []          # open calls: [child time, span id]
        self.spans: list[tuple] = []         # (id, name, parent id, start, end)
        self.totals: dict[str, list] = {}    # name -> [calls, self seconds, total seconds]
        self.counters: dict[str, int] = {}
        self.ids = itertools.count()

    def wrap(self, fn, layer: Layer):
        totals = self.totals[layer.name] = [0, 0.0, 0.0]
        for metric in layer.counted:
            self.counters[metric] = 0
        stack, spans, ids, counters = self.stack, self.spans, self.ids, self.counters
        record = not layer.fold
        count, name, clock, t0 = layer.count, layer.name, time.perf_counter, self.t0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None and layer.counted[0] in counters:
                try:
                    for metric, inc in count(*args, **kwargs).items():
                        counters[metric] += inc
                except (AttributeError, TypeError, KeyError):
                    # the arguments changed shape: drop the counter, keep the call
                    for metric in layer.counted:
                        counters.pop(metric, None)
            parent = stack[-1][1] if stack else -1
            # a folded call passes its parent's id on to the spans below it
            frame = [0.0, next(ids) if record else parent]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                totals[0] += 1
                totals[1] += duration - frame[0]
                totals[2] += duration
                if record:
                    spans.append((frame[1], name, parent, start - t0, end - t0))

        return wrapper

    def dump(self, path: str, missing: list[str], memo: dict) -> None:
        doc = {
            "job": self.job,
            "layers": {n: {CALLS: c, SELF: s, TOTAL: t} for n, (c, s, t) in self.totals.items()},
            "missing": missing,
            "counters": self.counters,
            "memo": memo,
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def install(rec: Recorder, layers=LAYERS) -> list[str]:
    """Wrap every layer function that exists; return the names that do not."""
    pkg = importlib.import_module("simplotope")
    for info in pkgutil.iter_modules(pkg.__path__, "simplotope."):
        importlib.import_module(info.name)
    namespaces = [m for n, m in sys.modules.items() if n == "simplotope" or n.startswith("simplotope.")]
    missing = []
    for layer in layers:
        *path, attr = layer.qualname.split(".")
        owner = sys.modules.get(f"simplotope.{layer.module}")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None)
        if not callable(fn):
            missing.append(layer.name)
            continue
        wrapped = rec.wrap(fn, layer)
        if path:
            setattr(owner, attr, wrapped)
            continue
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is fn:
                    setattr(ns, key, wrapped)
    return missing


def memo_stats() -> dict:
    """Size and hit counters of the package's process-wide F memo, if it has one."""
    memo = getattr(sys.modules.get("simplotope.fbounds"), "DEFAULT_MEMO", None)
    try:
        return {"entries": len(memo), "hits": int(memo.hits), "misses": int(memo.misses)}
    except (AttributeError, TypeError):
        return {}


def per_layer_metrics(stats: list[dict], layers=LAYERS) -> dict:
    """Sum the jobs' stats into the per-layer metrics; absent where unmeasurable."""
    out: dict = {}
    for layer in layers:
        found = [s["layers"][layer.name] for s in stats if layer.name in s["layers"]]
        if stats and len(found) == len(stats):
            for m in layer.report:
                out[f"{layer.name}.{m}"] = sum(f[m] for f in found)
        for metric in layer.counted:
            if stats and all(metric in s["counters"] for s in stats):
                out[metric] = sum(s["counters"][metric] for s in stats)
    memos = [s["memo"] for s in stats]
    if stats and all(memos):
        out["fbounds.memo_entries"] = sum(m["entries"] for m in memos)
        lookups = sum(m["hits"] + m["misses"] for m in memos)
        # no lookups at all (a workload that never evaluates F) reads as 0
        out["fbounds.memo_hit_ratio"] = sum(m["hits"] for m in memos) / lookups if lookups else 0.0
    return out


def main(argv: list[str]) -> int:
    job, out, cli_args = argv[0], argv[1], argv[2:]
    rec = Recorder(job)
    missing = install(rec)
    cli = sys.modules["simplotope.cli"]
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        rec.dump(out, missing, memo_stats())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
