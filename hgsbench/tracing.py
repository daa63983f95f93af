"""Layer spans recorded from the benchmark's own wrappers.

Nothing under ``src/`` is instrumented.  :func:`install` replaces the
public functions of each layer — as attributes of their classes, and in
every ``repro`` module namespace that imported them by name — with thin
wrappers that push a span (name, start, end, parent, request id) onto a
per-thread stack; :func:`uninstall` puts the originals back.  Spans stay
in memory until :meth:`Recorder.summary` folds them into per-layer self
times and :meth:`Recorder.dump` writes them out.

A span's self time is its duration minus the time its child spans
cover.  Every span carries its layer, so the layer self times of one
operation, plus the self time of the benchmark's own ``bench.op`` root
(the untraced remainder), add up to the operation's wall time.

Coroutines on the service's event loop are timed step by step (each
``send`` into the coroutine is one span), so time spent suspended in an
``await`` is never charged to the service layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers in report order; ``bench`` is the benchmark's own op root.
LAYERS = (
    "session", "planner", "exec", "kvstore", "index", "build", "taf",
    "service",
)


def _count_multiget(args, kwargs, result) -> Dict[str, float]:
    values, stats = result
    return {
        "kvstore.rounds": 1.0,
        "kvstore.requests": float(len(values)),
        "kvstore.bytes_read": float(stats.bytes_read),
    }


#: (``module:qualname``, layer, metric group or None, count hook or None).
#: Layers follow the module map: session = session.py + api/; planner =
#: index/tgi/planner.py + stats/; exec = exec/; kvstore = kvstore/;
#: index = index/tgi/index.py + query.py + deltas/ + graph/; build =
#: index/tgi/build.py + partitioning/ + index/delta_tree.py (plus the
#: index's own write entry points); taf = taf/ + spark/; service =
#: service/.  A group names an end-to-end-relevant slice reported with
#: its inclusive time and call count.
TARGETS: Tuple[Tuple[str, str, Optional[str], Optional[Callable]], ...] = (
    # session
    ("repro.session:GraphSession.execute", "session", None, None),
    ("repro.session:GraphSession.execute_batch", "session", None, None),
    ("repro.session:GraphSession.explain", "session", None, None),
    ("repro.api.wire:request_from_spec", "session", None, None),
    ("repro.api.wire:result_payload", "session", None, None),
    ("repro.api.result:QueryStats.as_dict", "session", None, None),
    # planner
    ("repro.index.tgi.planner:price_plan", "planner", None, None),
    ("repro.index.tgi.planner:TGIPlanner.plan_snapshot", "planner", None,
     None),
    ("repro.index.tgi.planner:TGIPlanner.plan_node_history", "planner",
     None, None),
    ("repro.index.tgi.planner:TGIPlanner.plan_node_histories", "planner",
     None, None),
    ("repro.index.tgi.planner:TGIPlanner.plan_khop", "planner", None, None),
    ("repro.index.tgi.planner:TGIPlanner.plan_khops", "planner", None,
     None),
    ("repro.stats.model:expected_khop_pids", "planner",
     "stats.expected_khop_pids", None),
    ("repro.stats.model:prefer_near_seed", "planner", None, None),
    ("repro.stats.model:prefer_snapshot_near_seed", "planner", None, None),
    ("repro.stats.model:TimespanStats.reachable_pids", "planner", None,
     None),
    ("repro.stats.collect:collect_timespan_stats", "planner", None, None),
    ("repro.stats.calibrate:calibrate_apply_costs", "planner", None, None),
    # exec
    ("repro.exec.executor:PlanExecutor.execute", "exec", None, None),
    ("repro.exec.executor:PlanExecutor.execute_many", "exec", None, None),
    ("repro.exec.executor:PlanExecutor.fetch", "exec", None, None),
    ("repro.exec.coalesce:CoalesceScope.admit_stage", "exec", None, None),
    ("repro.exec.coalesce:CoalesceScope.flush_window", "exec", None, None),
    ("repro.exec.cache:DeltaCache.lookup", "exec", None, None),
    ("repro.exec.cache:DeltaCache.admit", "exec", None, None),
    ("repro.exec.cache:DeltaCache.invalidate_many", "exec", None, None),
    ("repro.exec.cache:StateCheckpointCache.lookup", "exec", None, None),
    ("repro.exec.cache:StateCheckpointCache.nearest", "exec", None, None),
    ("repro.exec.cache:StateCheckpointCache.admit", "exec", None, None),
    # kvstore
    ("repro.kvstore.cluster:Cluster.multiget", "kvstore", "kvstore.multiget",
     _count_multiget),
    ("repro.kvstore.cluster:Cluster.plan_records", "kvstore", None, None),
    ("repro.kvstore.cluster:Cluster.get", "kvstore", None, None),
    ("repro.kvstore.cluster:Cluster.put", "kvstore", "kvstore.put", None),
    ("repro.kvstore.cluster:Cluster.put_many", "kvstore", "kvstore.put",
     None),
    ("repro.kvstore.codec:encode", "kvstore", "build.encode", None),
    ("repro.kvstore.codec:decode", "kvstore", "kvstore.decode", None),
    ("repro.kvstore.cost:simulate_plan", "kvstore", None, None),
    ("repro.kvstore.cost:ExecutionTimeline.submit", "kvstore", None, None),
    ("repro.kvstore.cost:ExecutionTimeline.submit_local", "kvstore", None,
     None),
    # index (retrieval side)
    ("repro.index.tgi.index:TGI.get_snapshot", "index", None, None),
    ("repro.index.tgi.index:TGI.get_node_history", "index", None, None),
    ("repro.index.tgi.index:TGI.get_node_histories", "index", None, None),
    ("repro.index.tgi.index:TGI.get_khop", "index", None, None),
    ("repro.index.tgi.index:TGI.get_khops", "index", None, None),
    ("repro.index.tgi.index:TGI.get_khop_snapshot_first", "index", None,
     None),
    ("repro.index.tgi.query:PartialState.load_delta", "index",
     "index.load_delta", None),
    ("repro.index.tgi.query:PartialState.apply_events", "index",
     "index.apply", None),
    ("repro.index.tgi.query:PartialState.apply_eventlists", "index",
     "index.apply", None),
    ("repro.index.tgi.query:PartialState.to_graph", "index",
     "index.materialize", None),
    ("repro.index.tgi.version_chain:VersionChainStore.fetch", "index", None,
     None),
    ("repro.deltas.base:Delta.to_graph", "index", "index.materialize", None),
    ("repro.deltas.snapshot:SnapshotDelta.to_graph", "index",
     "index.materialize", None),
    ("repro.deltas.columnar:ColumnarEventList.apply_to", "index",
     "index.apply", None),
    ("repro.deltas.eventlist:EventList.apply_to", "index", "index.apply",
     None),
    ("repro.deltas.columnar:pack_eventlist", "index", "build.encode", None),
    ("repro.graph.static:Graph.apply_events", "index", "index.apply", None),
    ("repro.graph.static:Graph.apply_columnar", "index", "index.apply",
     None),
    ("repro.graph.static:Graph.copy", "index", None, None),
    # build (write path)
    ("repro.index.tgi.index:TGI.build", "build", None, None),
    ("repro.index.tgi.index:TGI.update", "build", "build.update", None),
    ("repro.index.tgi.build:build_timespan", "build", "build.timespan",
     None),
    ("repro.index.delta_tree:build_delta_tree", "build", None, None),
    ("repro.partitioning.temporal:partition_timespan", "build", None, None),
    ("repro.partitioning.temporal:timespan_boundaries", "build", None,
     None),
    # taf
    ("repro.taf.handler:TGIHandler.fetch_node_histories", "taf", None,
     None),
    ("repro.taf.handler:TGIHandler.fetch_subgraph", "taf", None, None),
    ("repro.taf.handler:TGIHandler.fetch_subgraphs", "taf", None, None),
    ("repro.taf.handler:TGIHandler.known_nodes", "taf", None, None),
    ("repro.taf.son:SON.fetch", "taf", "taf.fetch", None),
    ("repro.taf.son:SOTS.fetch", "taf", "taf.fetch", None),
    ("repro.taf.son:SON.NodeCompute", "taf", "taf.compute", None),
    ("repro.taf.son:SON.NodeComputeTemporal", "taf", "taf.compute", None),
    ("repro.taf.son:SON.NodeComputeDelta", "taf", "taf.compute", None),
    ("repro.taf.son:SOTS.NodeCompute", "taf", "taf.compute", None),
    ("repro.taf.son:SOTS.NodeComputeTemporal", "taf", "taf.compute", None),
    ("repro.taf.son:SOTS.NodeComputeDelta", "taf", "taf.compute", None),
    ("repro.spark.rdd:RDD.collect", "taf", None, None),
    ("repro.spark.rdd:SparkContext.parallelize", "taf", None, None),
    # service (event-loop side; worker threads enter at execute_batch)
    ("repro.service.http:QueryService.handle_connection", "service", None,
     None),
    ("repro.service.collector:MicroBatchCollector.submit", "service", None,
     None),
    ("repro.service.admission:AdmissionController.admit", "service", None,
     None),
    ("repro.service.admission:AdmissionController.release", "service",
     None, None),
    ("repro.service.metrics:ServiceMetrics.record_response", "service",
     None, None),
    ("repro.service.metrics:ServiceMetrics.record_batch", "service", None,
     None),
    ("repro.service.metrics:ServiceMetrics.record_query", "service", None,
     None),
    ("repro.service.metrics:ServiceMetrics.snapshot", "service", None,
     None),
)

#: Span record fields, kept as lists for cheap in-place close.
_NAME, _LAYER, _GROUP, _START, _END, _PARENT, _RID, _OUTER = range(8)


class Recorder:
    """In-memory span store with one span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._rid = 0
        self._lock = threading.Lock()
        #: spans and counts before the mark are excluded from summaries
        self.mark_index = 0
        self.mark_counts: Dict[str, float] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.groups = {}
        return stack

    def enter(self, name: str, layer: str, group: Optional[str]) -> list:
        stack = self._stack()
        groups = self._local.groups
        if stack:
            parent = stack[-1]
            rid = parent[_RID]
        else:
            parent = None
            with self._lock:
                self._rid += 1
                rid = self._rid
        outer = True
        if group is not None:
            depth = groups.get(group, 0)
            outer = depth == 0
            groups[group] = depth + 1
        span = [name, layer, group, time.perf_counter(), None, parent, rid,
                outer]
        stack.append(span)
        return span

    def exit(self, span: list) -> None:
        span[_END] = time.perf_counter()
        self._stack().pop()
        group = span[_GROUP]
        if group is not None:
            self._local.groups[group] -= 1
        self.spans.append(span)

    def count(self, deltas: Dict[str, float]) -> None:
        with self._lock:
            for key, value in deltas.items():
                self.counts[key] = self.counts.get(key, 0.0) + value

    def mark(self) -> None:
        """Start the summarised window here (spans closing later and
        count increments made later)."""
        self.mark_index = len(self.spans)
        self.mark_counts = dict(self.counts)

    # -- summaries --------------------------------------------------------
    def window(self) -> List[list]:
        return self.spans[self.mark_index:]

    def summary(self) -> Dict[str, Any]:
        """Per-layer self ms, per-group inclusive ms and calls, counts
        and the span count, over the spans closed since the mark."""
        spans = self.window()
        child: Dict[int, float] = {}
        for s in spans:
            parent = s[_PARENT]
            if parent is not None:
                key = id(parent)
                child[key] = child.get(key, 0.0) + (s[_END] - s[_START])
        layer_self: Dict[str, float] = {}
        layer_calls: Dict[str, int] = {}
        group_ms: Dict[str, float] = {}
        group_calls: Dict[str, int] = {}
        for s in spans:
            dur = s[_END] - s[_START]
            own = dur - child.get(id(s), 0.0)
            layer = s[_LAYER]
            layer_self[layer] = layer_self.get(layer, 0.0) + own * 1e3
            layer_calls[layer] = layer_calls.get(layer, 0) + 1
            group = s[_GROUP]
            if group is not None:
                group_calls[group] = group_calls.get(group, 0) + 1
                if s[_OUTER]:
                    group_ms[group] = group_ms.get(group, 0.0) + dur * 1e3
        counts = {
            k: v - self.mark_counts.get(k, 0.0)
            for k, v in self.counts.items()
        }
        return {
            "layer_self_ms": layer_self,
            "layer_calls": layer_calls,
            "group_ms": group_ms,
            "group_calls": group_calls,
            "counts": counts,
            "spans": len(spans),
        }

    def dump(self, path) -> None:
        """Write the windowed spans as JSON: one
        ``[name, layer, start_s, end_s, parent_index, request_id]`` row
        per span, parents as indexes into the same list (-1 for roots or
        parents that closed outside the window)."""
        spans = self.window()
        index = {id(s): i for i, s in enumerate(spans)}
        rows = [
            [s[_NAME], s[_LAYER], round(s[_START], 7), round(s[_END], 7),
             index.get(id(s[_PARENT]), -1) if s[_PARENT] is not None else -1,
             s[_RID]]
            for s in spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, separators=(",", ":"))


# ----------------------------------------------------------------------
# wrapping
# ----------------------------------------------------------------------
class _Steps:
    """Await a coroutine while timing each step it runs on the loop."""

    __slots__ = ("coro", "rec", "name", "layer")

    def __init__(self, coro, rec: Recorder, name: str, layer: str) -> None:
        self.coro = coro
        self.rec = rec
        self.name = name
        self.layer = layer

    def __await__(self):
        coro, rec = self.coro, self.rec
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            span = rec.enter(self.name, self.layer, None)
            try:
                if error is not None:
                    exc, error = error, None
                    yielded = coro.throw(exc)
                else:
                    yielded = coro.send(value)
            except StopIteration as stop:
                rec.exit(span)
                return stop.value
            except BaseException:
                rec.exit(span)
                raise
            rec.exit(span)
            try:
                value = yield yielded
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # delivered into the coroutine
                error, value = exc, None


def _wrapper(fn: Callable, rec: Recorder, name: str, layer: str,
             group: Optional[str], hook: Optional[Callable]) -> Callable:
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def step_timed(*args, **kwargs):
            return await _Steps(fn(*args, **kwargs), rec, name, layer)

        return step_timed

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = rec.enter(name, layer, group)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(span)
        if hook is not None:
            rec.count(hook(args, kwargs, result))
        return result

    return traced


def _resolve(target: str):
    module_name, qualname = target.split(":")
    module = importlib.import_module(module_name)
    owner: Any = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1]


def install(rec: Recorder) -> List[Tuple[Any, str, Any]]:
    """Wrap every target; returns the ``(owner, attribute, original)``
    patches :func:`uninstall` restores."""
    patches: List[Tuple[Any, str, Any]] = []
    resolved = [(_resolve(t[0]),) + t for t in TARGETS]
    for (module, owner, attr), target, layer, group, hook in resolved:
        if owner is module:
            continue
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(
                _wrapper(raw.__func__, rec, target, layer, group, hook)
            )
        else:
            wrapped = _wrapper(raw, rec, target, layer, group, hook)
        patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
    # module-level functions: replace every reference held by a repro
    # module namespace, since callers import them by name
    functions = {
        id(getattr(module, attr)): (getattr(module, attr), target, layer,
                                    group, hook)
        for (module, owner, attr), target, layer, group, hook in resolved
        if owner is module
    }
    wrappers = {
        key: _wrapper(fn, rec, target, layer, group, hook)
        for key, (fn, target, layer, group, hook) in functions.items()
    }
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro"
                               or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            key = id(value)
            if key in functions and functions[key][0] is value:
                patches.append((mod, attr, value))
                setattr(mod, attr, wrappers[key])
    return patches


def uninstall(patches: List[Tuple[Any, str, Any]]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    patches.clear()


# ----------------------------------------------------------------------
# per-operation metrics
# ----------------------------------------------------------------------
def layer_metrics(summary: Dict[str, Any], ops: int) -> Dict[str, float]:
    """Per-operation means of the traced window: layer self ms, group
    inclusive ms and calls, and store counts."""
    per = 1.0 / max(ops, 1)
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = summary["layer_self_ms"].get(layer, 0.0) * per
    out["planner.calls"] = summary["layer_calls"].get("planner", 0) * per
    out["trace.unattributed_ms"] = (
        summary["layer_self_ms"].get("bench", 0.0) * per
    )
    groups, calls = summary["group_ms"], summary["group_calls"]
    out["stats.expected_khop_pids_ms"] = (
        groups.get("stats.expected_khop_pids", 0.0) * per
    )
    out["stats.expected_khop_pids_calls"] = (
        calls.get("stats.expected_khop_pids", 0) * per
    )
    out["index.materialize_ms"] = groups.get("index.materialize", 0.0) * per
    out["index.apply_ms"] = groups.get("index.apply", 0.0) * per
    loads = calls.get("index.load_delta", 0)
    out["index.load_delta_calls"] = loads * per
    counts = summary["counts"]
    rows = counts.get("kvstore.requests", 0.0)
    out["index.loads_per_fetched_row"] = loads / rows if rows else 0.0
    out["kvstore.multiget_ms"] = groups.get("kvstore.multiget", 0.0) * per
    out["kvstore.decode_ms"] = groups.get("kvstore.decode", 0.0) * per
    out["kvstore.put_ms"] = groups.get("kvstore.put", 0.0) * per
    for key in ("kvstore.rounds", "kvstore.requests", "kvstore.bytes_read"):
        out[key] = counts.get(key, 0.0) * per
    out["build.update_ms"] = groups.get("build.update", 0.0) * per
    out["build.timespan_ms"] = groups.get("build.timespan", 0.0) * per
    out["build.encode_ms"] = groups.get("build.encode", 0.0) * per
    out["taf.fetch_ms"] = groups.get("taf.fetch", 0.0) * per
    out["taf.compute_ms"] = groups.get("taf.compute", 0.0) * per
    out["trace.spans"] = summary["spans"] * per
    return out


def format_table(summary: Dict[str, Any], ops: int, wall_ms: float) -> str:
    """The per-layer self-time table printed by traced runs."""
    per = 1.0 / max(ops, 1)
    lines = [f"{'layer':<12}{'self ms/op':>12}{'share':>8}{'spans/op':>10}"]
    total = 0.0
    for layer in LAYERS + ("bench",):
        ms = summary["layer_self_ms"].get(layer, 0.0) * per
        total += ms
        calls = summary["layer_calls"].get(layer, 0) * per
        share = ms / wall_ms if wall_ms else 0.0
        label = "remainder" if layer == "bench" else layer
        lines.append(f"{label:<12}{ms:>12.3f}{share:>8.1%}{calls:>10.1f}")
    lines.append(f"{'sum':<12}{total:>12.3f}   op wall {wall_ms:.3f} ms")
    return "\n".join(lines)
