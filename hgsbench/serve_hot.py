"""``serve-hot``: the ``hgs serve`` HTTP API under an open loop.

``hgs serve`` runs as its own process over a saved index whose delta
and checkpoint caches are sized to hold the hot set.  This process is
the one load generator: an open loop at pinned rates over at most
``nproc`` keep-alive connections.  Each request is timed from the
moment it was due, so a stall shows as latency on every request queued
behind it, and the generator's own lateness is reported on its own.

The request mix is Zipf-skewed over 32 centers at four recent times:
80% k=2 k-hop, 15% node history, 5% snapshot.  A sequential warm-up
sends every distinct request once (one connection, so each request is
its own batch and its cost-model time repeats exactly), then timing
starts.  Every 429, 503 and 504 answer counts as a failed operation.

``sustained_qps`` is the highest pinned rate of an ascending ladder
whose tail latency stays within ``LIMIT_MS`` with no growing backlog.

Served figures are reported as measured.  A served request is mostly
the fixed batching window plus work in the server process, and neither
the run's median probe in this process nor probes on the server's CPU
around each phase tracked that work from one run to the next: scaling
by them widened the spread in some rounds.  Instead the reference-rate
phase runs in chunks spread between the ladder's steps, so its
latencies sample the machine over the whole run rather than over one
stretch of it.  Set-up steps are scaled by probes run in this process
around them, like the closed loops' set-ups.
"""

from __future__ import annotations

import contextlib
import gc
import http.client
import json
import os
import selectors
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from common import (
    BENCH_DIR,
    DATASET_SEED,
    Outcome,
    Speed,
    StepTimer,
    child_env,
    fingerprint,
    median,
    note,
    out_dir,
    peak_rss_mb,
    rng_for,
    tail,
)
from khop_batch import K, NODES, index_config
from oracle import node_versions, snapshots_at, wire_versions

from repro.index.tgi import TGI
from repro.storage import save_index
from repro.workloads.citation import CitationConfig, generate_citation_events

CENTERS = 32
TIMES = 4
#: the four recent times sit this share of the history apart
TIME_STEP = 0.025
ZIPF_S = 1.1
MIX = (("khop", 0.80), ("node", 0.15), ("snapshot", 0.05))
DELTA_CACHE_ROWS = 8192
CHECKPOINTS = 1024
WINDOW_MS = 10.0
CONNECTIONS = max(1, min(2, len(os.sched_getaffinity(0))))
#: pinned reference rate: latency figures are measured here
REF_RATE = 20.0
#: pinned rates probed for sustained_qps, 4% apart (requests per second)
LADDER = tuple(round(REF_RATE * 1.04 ** i, 1) for i in range(60))
#: the search climbs the ladder this many rungs at a time, then bisects
STRIDE = 8
LADDER_STEP_S = 1.5
#: tail-latency limit a sustained rate must meet
LIMIT_MS = 250.0
#: requests still unsent when a step's schedule ends, beyond which the
#: backlog counts as growing
BACKLOG_LIMIT = 2
SETUPS = 3
#: share of --seconds spent at the reference rate
REF_SHARE = 0.6
#: the reference-rate time runs as this many chunks: one before the
#: ladder, then one after every REF_EVERY ladder steps, the rest after
#: the ladder
REF_CHUNKS = 6
REF_EVERY = 3
#: staircase steps walked around the boundary the search found
STAIRCASE = 8
START_TIMEOUT_S = 60.0


class Server:
    """One ``hgs serve`` process (optionally under the span launcher)."""

    def __init__(self, index_path: str, traced: bool, tag: str,
                 cpu: Optional[int] = None) -> None:
        out = out_dir()
        self.index_path = index_path
        self.summary_path = str(out / f"serve-{tag}-summary.json")
        self.log = open(out / f"serve-{tag}.log", "w", encoding="utf-8")
        args = ["serve", "--index", index_path, "--port", "0",
                "--batch-window-ms", str(WINDOW_MS)]
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "serve_traced.py"),
                   "--summary", self.summary_path,
                   "--spans", str(out / f"spans-serve-{tag}.json"), "--"]
        else:
            cmd = [sys.executable, "-m", "repro.cli"]
        self.proc = subprocess.Popen(
            cmd + args, stdout=subprocess.PIPE, stderr=self.log,
            env=child_env(), text=True,
        )
        if cpu is not None:
            try:
                os.sched_setaffinity(self.proc.pid, {cpu})
            except OSError:  # not permitted here: run unpinned
                pass
        self.port = self._await_listening()

    def _await_listening(self) -> int:
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + START_TIMEOUT_S
        try:
            while time.monotonic() < deadline:
                if not sel.select(timeout=deadline - time.monotonic()):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    break
                if "listening on" in line:
                    return int(line.strip().rsplit(":", 1)[1])
        finally:
            sel.close()
        self.stop()
        raise RuntimeError("hgs serve did not start; see its log in "
                           f"{self.log.name}")

    def rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def mark(self) -> None:
        """Ask the traced launcher to start its summary window here."""
        self.proc.send_signal(signal.SIGUSR1)

    def metrics(self) -> Dict[str, Any]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/metrics")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        if os.path.exists(self.index_path):
            os.unlink(self.index_path)


# ----------------------------------------------------------------------
# inputs and expected answers
# ----------------------------------------------------------------------
class Inputs:
    def __init__(self, seed: int, events) -> None:
        t0, t1 = events[0].time, events[-1].time
        step = max(1, round(TIME_STEP * (t1 - t0)))
        self.times = [t1 - i * step for i in range(TIMES)]
        self.t0, self.t1 = t0, t1
        graphs = snapshots_at(events, self.times)
        rng = rng_for(seed, "serve-hot")
        alive = sorted(graphs[min(self.times)].nodes())
        self.centers = rng.sample(alive, CENTERS)
        self.weights = [1.0 / (r + 1) ** ZIPF_S for r in range(CENTERS)]
        versions = node_versions(events, self.centers, t0, t1)
        self.expected: Dict[str, Any] = {}
        for c in self.centers:
            for t in self.times:
                self.expected[_key(self.khop(c, t))] = sorted(
                    graphs[t].khop_nodes(c, K))
            self.expected[_key(self.node(c))] = wire_versions(versions[c])
        for t in self.times:
            g = graphs[t]
            self.expected[_key(self.snapshot(t))] = {
                "nodes": g.num_nodes, "edges": g.num_edges}
        self._mix = rng_for(seed, "serve-hot-mix")

    def khop(self, c, t):
        return {"kind": "khop", "node": c, "time": t, "k": K}

    def node(self, c):
        return {"kind": "node", "node": c, "ts": self.t0, "te": self.t1}

    def snapshot(self, t):
        return {"kind": "snapshot", "time": t}

    def warmup(self) -> List[dict]:
        """Every distinct request once.  Snapshots go first: they pull
        each time's whole state into the caches, so the warm-up's store
        cost depends on the fixed history and times, not on which
        centers the seed drew."""
        specs = [self.snapshot(t) for t in self.times]
        specs += [self.node(c) for c in self.centers]
        specs += [self.khop(c, t) for c in self.centers for t in self.times]
        return specs

    def draw(self, n: int) -> List[dict]:
        rng = self._mix
        out = []
        for _ in range(n):
            c = rng.choices(self.centers, self.weights)[0]
            t = rng.choice(self.times)
            r = rng.random()
            if r < MIX[0][1]:
                out.append(self.khop(c, t))
            elif r < MIX[0][1] + MIX[1][1]:
                out.append(self.node(c))
            else:
                out.append(self.snapshot(t))
        return out

    def check(self, spec, status: int, payload) -> Tuple[bool, bool, str]:
        """``(ok, wrong, why)`` for one response."""
        if status != 200:
            return False, False, f"{spec} -> HTTP {status}"
        if not isinstance(payload, dict):
            return False, True, f"{spec} -> unreadable 200 response"
        want = self.expected[_key(spec)]
        if spec["kind"] == "khop":
            got = payload.get("members")
        elif spec["kind"] == "node":
            got = payload.get("versions")
        else:
            got = payload.get("snapshot")
        if got != want:
            return False, True, f"{spec} differs from the replay"
        return True, False, ""


def _key(spec) -> str:
    return json.dumps(spec, sort_keys=True)


# ----------------------------------------------------------------------
# load generation
# ----------------------------------------------------------------------
class Sample:
    __slots__ = ("due", "sent", "done", "lag", "status", "payload", "spec")


def _post(conn, spec) -> Tuple[int, Any]:
    body = json.dumps(spec)
    conn.request("POST", "/query", body,
                 {"Content-Type": "application/json"})
    resp = conn.getresponse()
    data = resp.read()
    try:
        return resp.status, json.loads(data)
    except ValueError:
        return resp.status, None


def open_loop(port: int, specs: List[dict], rate: float,
              connections: int = CONNECTIONS) -> List[Sample]:
    """Send ``specs`` at ``rate`` per second over ``connections``
    keep-alive connections; each request is due at ``start + i / rate``."""
    samples: List[Optional[Sample]] = [None] * len(specs)
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05

    def worker() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        free_since = time.perf_counter()
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(specs):
                    return
                due = start + i / rate
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                s = Sample()
                s.spec, s.due = specs[i], due
                s.sent = time.perf_counter()
                s.lag = s.sent - max(due, free_since)
                try:
                    s.status, s.payload = _post(conn, specs[i])
                except (OSError, http.client.HTTPException) as exc:
                    s.status, s.payload = 0, repr(exc)
                    conn.close()
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=60)
                s.done = free_since = time.perf_counter()
                samples[i] = s
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i, s in enumerate(samples):
        if s is None:  # its worker died: a failed request, never dropped
            s = samples[i] = Sample()
            s.spec, s.status, s.payload = specs[i], -1, None
            s.due = s.sent = s.done = start + i / rate
            s.lag = 0.0
    return samples


def sequential(port: int, specs: List[dict]) -> List[Sample]:
    return open_loop(port, specs, rate=1e9, connections=1)


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
class ServeHot:
    name = "serve-hot"

    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.outcome = Outcome()
        self.inputs: Optional[Inputs] = None
        self.cpus = sorted(os.sched_getaffinity(0))
        self.server_cpu: Optional[int] = None
        self.speed = Speed()
        #: reference-rate chunks run so far (samples, span seconds)
        self.ref: List[Tuple[List[Sample], float]] = []
        self.steps = 0

    def _setup(self, tag: str, traced: bool):
        """Data generation, index build, save and server start, each step
        scaled by the speed probes around it like the closed loops'
        set-ups."""
        gc.collect()
        self.speed.probe()
        timer = StepTimer(self.speed)
        events = generate_citation_events(CitationConfig(
            num_nodes=NODES, citations_per_node=4,
            seed=DATASET_SEED,
        ))
        timer.split()
        tgi = TGI(index_config(delta_cache_entries=DELTA_CACHE_ROWS,
                               checkpoint_entries=CHECKPOINTS))
        tgi.build(events)
        timer.split()
        build_s = timer.steps[-1][0]
        path = str(out_dir() / f"serve-hot-{tag}.hgs")
        save_index(tgi, path)
        timer.split()
        server = Server(path, traced, tag, self.server_cpu)
        timer.split()
        facts = {
            "setup_s": timer.scaled,
            "raw_setup_s": timer.raw,
            "events_per_s": len(events) / build_s,
            "storage_bytes_per_event": tgi.cluster.stored_bytes / len(events),
            "stored_bytes": tgi.cluster.stored_bytes,
        }
        if self.inputs is None:
            try:
                self.inputs = Inputs(self.seed, events)
            except BaseException:
                server.stop()
                raise
        return server, facts

    def _record(self, samples: List[Sample]) -> None:
        for s in samples:
            ok, wrong, why = self.inputs.check(s.spec, s.status, s.payload)
            self.outcome.record(ok, wrong=wrong, why=why)

    @contextlib.contextmanager
    def _generating(self):
        """Keep this process off the server's CPU while it generates
        load.  Set-ups run unpinned, so the index build is not tied to
        whichever CPU happens to be contended."""
        if self.server_cpu is None:
            yield
            return
        try:
            os.sched_setaffinity(0, set(self.cpus) - {self.server_cpu})
        except OSError:  # not permitted here: run unpinned
            yield
            return
        try:
            yield
        finally:
            os.sched_setaffinity(0, set(self.cpus))

    def _warm(self, server: Server, rows: List[list]) -> List[Sample]:
        """The sequential warm-up; its per-request counts are appended to
        ``rows``, one list per server, for the determinism check."""
        samples = sequential(server.port, self.inputs.warmup())
        self._record(samples)
        rows.append([warm_row(s) for s in samples])
        return samples

    def run(self) -> Tuple[Outcome, Dict[str, Tuple[float, str]]]:
        if len(self.cpus) >= 2:
            # the server gets a CPU of its own; while load is generated
            # this process keeps to the others (see _generating), so
            # neither is moved onto the other mid-phase
            self.server_cpu = self.cpus[0]
        if self.trace:
            return self.outcome, self._run_traced()
        return self.outcome, self._run_measured()

    # -- untraced: every end-to-end metric --------------------------------
    def _run_measured(self):
        facts = []
        rows: List[list] = []
        server = None
        try:
            for i in range(SETUPS):
                server, f = self._setup(f"s{i}", traced=False)
                facts.append(f)
                with self._generating():
                    warm = self._warm(server, rows)
                if i < SETUPS - 1:
                    server.stop()
                    server = None
            with self._generating():
                self._ref_chunk(server)
                sustained = self._sustained(server)
                while len(self.ref) < REF_CHUNKS:
                    self._ref_chunk(server)
            rss = server.rss_mb()
        finally:
            if server is not None:
                server.stop()
        check_repeats(rows, [f["stored_bytes"] for f in facts])
        sims = [s.payload.get("sim_time_ms", 0.0) for s in warm
                if s.status == 200]
        ref = [s for samples, _ in self.ref for s in samples]
        lat = [(s.done - s.due) * 1e3 for s in ref if s.status == 200]
        value, q, n = tail(lat, 90.0)
        note(f"latency_tail_ms is p{q:g} of {n} requests at "
             f"{REF_RATE:g}/s")
        note(f"set-up as measured "
             f"{median([f['raw_setup_s'] for f in facts]):.4f} s; probe "
             f"median {median(self.speed.samples) * 1e3:.4f} ms")
        lags = [s.lag * 1e3 for s in ref]
        lag, lq, _ = tail(lags, 99.0)
        note(f"generator lag p{lq:g} {lag:.3f} ms")
        first = facts[0]
        return {
            "setup_s": (median([f["setup_s"] for f in facts]), "s"),
            "ops_per_s": (n / sum(span for _, span in self.ref), "1/s"),
            "latency_p50_ms": (median(lat), "ms"),
            "latency_tail_ms": (value, "ms"),
            "sim_ms_per_op": (sum(sims) / len(sims), "sim-ms"),
            "sustained_qps": (sustained, "1/s"),
            "peak_rss_mb": (rss, "MB"),
            "storage_bytes_per_event": (first["storage_bytes_per_event"],
                                        "B"),
            "answered_ratio": (self.outcome.answered_ratio, "ratio"),
        }

    def _phase(self, server: Server, rate: float, seconds: float):
        """One open-loop phase at ``rate``; every answer is checked."""
        samples = open_loop(server.port,
                            self.inputs.draw(int(rate * seconds)), rate)
        self._record(samples)
        return samples

    def _ref_chunk(self, server: Server) -> None:
        samples = self._phase(server, REF_RATE,
                              self.seconds * REF_SHARE / REF_CHUNKS)
        span = max(s.done for s in samples) - min(s.due for s in samples)
        self.ref.append((samples, span))

    def _step(self, server: Server, rung: int) -> bool:
        samples = self._phase(server, LADDER[rung], LADDER_STEP_S)
        met, why = _step_meets(samples)
        note(f"ladder {LADDER[rung]:g}/s: {why}")
        self.steps += 1
        if self.steps % REF_EVERY == 0 and len(self.ref) < REF_CHUNKS:
            self._ref_chunk(server)
        return met

    def _sustained(self, server: Server) -> float:
        """Climb the ladder ``STRIDE`` rungs at a time to the first rate
        that misses and bisect the rungs in between; then walk a
        staircase from there (one rung up after a rate that met the
        limit, one down after a miss).  The answer is the median of the
        rates that met the limit near the boundary, so one unlucky step
        cannot move it far.  The search always runs to the end, so its
        answer never depends on ``--seconds``."""
        lo, hi = -1, len(LADDER)
        i = 0
        while i < len(LADDER):
            if not self._step(server, i):
                hi = i
                break
            lo = i
            i += STRIDE
        else:
            hi = min(hi, lo + STRIDE)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._step(server, mid):
                lo = mid
            else:
                hi = mid
        if lo < 0:
            return 0.0
        met = [lo]
        rung = min(lo + 1, len(LADDER) - 1)
        for _ in range(STAIRCASE):
            if self._step(server, rung):
                met.append(rung)
                rung = min(rung + 1, len(LADDER) - 1)
            else:
                rung = max(rung - 1, 0)
        if max(met) == len(LADDER) - 1:
            note("sustained_qps reached the top of the ladder")
        return LADDER[sorted(met)[len(met) // 2]]

    # -- traced: per-layer metrics -----------------------------------------
    def _run_traced(self):
        half = self.seconds / 2.0
        phases = {}
        summary = None
        rows: List[list] = []
        stored = []
        rates = []
        for tag, traced in (("plain", False), ("traced", True)):
            server, facts = self._setup(tag, traced)
            stored.append(facts["stored_bytes"])
            rates.append(facts["events_per_s"])
            try:
                with self._generating():
                    self._warm(server, rows)
                    if traced:
                        server.mark()
                        time.sleep(0.2)
                    samples = self._phase(server, REF_RATE, half)
                metrics = server.metrics()
            finally:
                server.stop()
            phases[tag] = (samples, metrics)
            if traced:
                with open(server.summary_path, encoding="utf-8") as fh:
                    summary = json.load(fh)
        check_repeats(rows, stored)
        out = served_layer_metrics(phases, summary, stored[0])
        out["build.events_per_s"] = (median(rates), "1/s")
        return out


def warm_row(s: Sample) -> Tuple:
    """The counts of one warm-up answer that must repeat exactly on
    every server of one seed: store requests and rounds, coalesced,
    cache and checkpoint hits, and cost-model time."""
    if s.status != 200 or not isinstance(s.payload, dict):
        return ("failed", s.status)
    p = s.payload
    return (p.get("deltas_fetched"), p.get("rounds"),
            (p.get("coalesce") or {}).get("hits", 0),
            (p.get("cache") or {}).get("hits", 0),
            (p.get("checkpoints") or {}).get("hits", 0),
            p.get("sim_time_ms"))


def check_repeats(rows: List[list], stored: List[int]) -> None:
    """Flag a server whose warm-up counts or stored bytes differ from
    the first server's; every server is a fresh set-up of one seed."""
    same = all(r == rows[0] for r in rows) and len(set(stored)) == 1
    note(f"determinism {fingerprint('serve-hot warm-up', rows[0])} over "
         f"{len(rows[0])} requests x {len(rows)} fresh servers: "
         f"{'repeats exactly' if same else 'MISMATCH'}")


def _step_meets(samples: List[Sample]) -> Tuple[bool, str]:
    failed = sum(1 for s in samples if s.status != 200)
    lat = [(s.done - s.due) * 1e3 for s in samples]
    value, q, n = tail(lat, 90.0)
    last_due = max(s.due for s in samples)
    backlog = sum(1 for s in samples if s.sent > last_due + 1e-3)
    met = failed == 0 and value <= LIMIT_MS and backlog <= BACKLOG_LIMIT
    return met, (f"p{q:g}={value:.1f} ms (limit {LIMIT_MS:g}), "
                 f"backlog {backlog}, failed {failed}")


def served_layer_metrics(phases, summary, stored_bytes) -> Dict[str, Tuple[float, str]]:
    """Per-layer figures of the traced server, per served request."""
    from report import per_layer_template
    import tracing

    plain, _ = phases["plain"]
    samples, metrics = phases["traced"]
    ok = [s for s in samples if s.status == 200]
    n = max(len(ok), 1)
    out = per_layer_template()
    layer = tracing.layer_metrics(summary["summary"], n)
    for key, value in layer.items():
        out[key] = (value, out[key][1])
    rtt = [(s.done - s.sent) * 1e3 for s in ok]
    queue = [s.payload["service"]["queue_ms"] for s in ok]
    exec_ms = [s.payload["service"]["exec_ms"] for s in ok]
    out["service.queue_ms"] = (median(queue), "ms")
    out["service.exec_ms"] = (median(exec_ms), "ms")
    out["service.overhead_ms"] = (
        median([r - q - e for r, q, e in zip(rtt, queue, exec_ms)]), "ms")
    out["service.batch_size"] = (
        sum(s.payload["service"]["batch_size"] for s in ok) / n, "requests")
    rejected = sum(metrics["requests"]["rejected"].values())
    rejected += sum(1 for s in samples if s.status in (429, 503, 504))
    out["service.rejected"] = (float(rejected), "count")
    caches = summary["caches"]
    lookups = caches["hits"] + caches["misses"]
    out["exec.delta_cache_hit_rate"] = (
        caches["hits"] / lookups if lookups else 0.0, "ratio")
    out["exec.delta_cache_evictions"] = (caches["evictions"] / n, "count/op")
    ck = caches["ckpt_hits"] + caches["ckpt_misses"]
    out["exec.checkpoint_hit_rate"] = (
        caches["ckpt_hits"] / ck if ck else 0.0, "ratio")
    stats = [s.payload for s in ok]
    out["exec.coalesced_hits"] = (
        sum((p.get("coalesce") or {}).get("hits", 0) for p in stats) / n,
        "count/op")
    out["exec.merged_rounds"] = (
        sum((p.get("coalesce") or {}).get("merged_rounds", 0)
            for p in stats) / n, "count/op")
    out["exec.checkpoint_near_hits"] = (
        sum((p.get("checkpoints") or {}).get("near_hits", 0)
            for p in stats) / n, "count/op")
    algos = [p.get("algorithm") for p in stats]
    out["session.algorithm_khop"] = (algos.count("khop") / n, "count/op")
    out["session.algorithm_snapshot_first"] = (
        algos.count("snapshot-first") / n, "count/op")
    out["kvstore.stored_bytes"] = (float(stored_bytes), "B")
    out["op.served_ms"] = (median([(s.done - s.due) * 1e3 for s in ok]), "ms")
    lags = [s.lag * 1e3 for s in samples]
    out["loadgen.lag_ms"] = (tail(lags, 99.0)[0], "ms")
    wall = sum(rtt) / n
    out["trace.op_wall_ms"] = (wall, "ms")
    out["trace.unattributed_ms"] = (
        wall - sum(layer[f"{l}.self_ms"] for l in tracing.LAYERS), "ms")
    base = median([(s.done - s.due) * 1e3 for s in plain if s.status == 200])
    out["trace.overhead_pct"] = (
        (out["op.served_ms"][0] / base - 1.0) * 100.0, "%")
    note("layer self time per served request (server side):\n"
         + tracing.format_table(summary["summary"], n, wall))
    return out
