"""Shared pieces of the benchmark: paths, dataset and index shapes,
statistics, and the result line.

Every workload runs over one fixed citation history (``DATASET_SEED``),
so index size and build work never change with ``--seed``; the seed
draws the query inputs — centers, times, request mix — from
``random.Random`` streams, so the same seed always yields the same
inputs.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import pickle
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Output of a run (saved indexes, server logs, span dumps);
#: listed in the repository's .gitignore.
OUT_DIR = BENCH_DIR / "out"


def require_source_tree() -> None:
    """Make ``repro`` importable from the checkout's ``src/`` or exit.

    The benchmark measures the program built from source next to it; a
    directory holding only the benchmark has nothing to measure, so the
    run stops with a non-zero code and prints no result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"hgsbench: no program source at {SRC / 'repro'}; run the "
            "benchmark from the root of a full checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def rng_for(seed: int, stream: str) -> random.Random:
    """An independent deterministic stream per purpose, so adding draws
    to one stream never shifts the inputs drawn from another."""
    return random.Random(f"{seed}:{stream}")


#: Seed of the generated citation history every workload indexes.
DATASET_SEED = 42


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail(values: Sequence[float], preferred: float) -> Tuple[float, float, int]:
    """The tail latency: ``preferred`` percentile when at least ten
    samples lie beyond it, otherwise the highest whole percentile that
    has ten beyond it.  Returns ``(value, percentile, samples)``."""
    n = len(values)
    q = preferred
    if n * (1.0 - q / 100.0) < 10.0:
        q = max(0.0, math.floor(100.0 * (1.0 - 10.0 / n))) if n else 0.0
    return percentile(values, q), q, n


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` (default: this process)."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


# ----------------------------------------------------------------------
# machine speed
# ----------------------------------------------------------------------
#: Seconds one probe takes at the reference speed.  Timings are reported
#: at this speed: a time measured while the probe ran 1.2x slower than
#: this is divided by 1.2.
PROBE_REF_S = 0.0135
_PROBE_RECORDS = 6000
_PROBE_NODES = 40000
_PROBE_EDGES = [
    (i % _PROBE_NODES, (i * 7919 + 13) % _PROBE_NODES) for i in range(10000)
]


class _ProbeRecord:
    __slots__ = ("key", "bucket", "pair")

    def __init__(self, key: int, bucket: int, pair: Tuple[int, int]) -> None:
        self.key, self.bucket, self.pair = key, bucket, pair


def _probe_once() -> int:
    """Fixed interpreter work of the kinds the program does: many small
    objects keyed into a dict, sorted and pickled (as a build creates and
    encodes deltas), then a sparse dict-of-sets graph over a heap larger
    than the caches (as replay and k-hop expansion touch one).  Written
    here so no change to the program moves it.  Between the machine's
    fast and slow episodes this mix slows down 1.5x where an index build
    and a k-hop batch slow down 1.6-1.7x; set algebra over a small heap
    alone slows down 1.9x, which over-corrects them."""
    records = {}
    for i in range(_PROBE_RECORDS):
        r = _ProbeRecord(i, (i * 31) % 977, (i, i + 1))
        records[(r.bucket, i)] = r
    ordered = sorted(records.values(), key=lambda r: (r.bucket, r.key))
    total = len(pickle.dumps([(r.key, r.bucket, r.pair)
                              for r in ordered[::3]]))
    adj: Dict[int, set] = {}
    for u, v in _PROBE_EDGES:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return total + len(adj)


class Speed:
    """The machine's speed, from a fixed probe run between timed steps.

    The shared 2-vCPU machine this benchmark was defined on drifts by
    tens of percent over seconds to minutes, so the same code measured up
    to 1.5x apart in runs made minutes apart.  The closed-loop workloads
    therefore scale each timed step, set-up steps included, by the
    probes taken just before and just after it (outside the timed region)
    to what it would read at the probe's reference speed, and print the
    figures as measured next to them.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def probe(self) -> float:
        """Best of three probe runs, in seconds, with the cyclic garbage
        collector paused so the probe never pays for the heap around it
        (best-of filters out a single preemption inside one run)."""
        best = float("inf")
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(3):
                start = time.perf_counter()
                _probe_once()
                best = min(best, time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.samples.append(best)
        return best

    @property
    def last(self) -> float:
        return self.samples[-1] if self.samples else self.probe()

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Multiply a time measured between probes ``before`` and
        ``after`` by this to express it at the reference speed (divide a
        rate by it)."""
        return PROBE_REF_S * 2.0 / (before + after)


class StepTimer:
    """Times one operation as a sequence of steps.

    ``split()`` closes the current step: its time is added as measured
    (``raw``) and scaled by the speed probes around it (``scaled``), the
    probe running after the clock stops and before the next step's clock
    starts.  With ``probing=False`` (traced passes, whose figures stay as
    measured) no probe runs.
    """

    def __init__(self, speed: Speed, probing: bool = True) -> None:
        self.speed = speed
        self.probing = probing
        self.raw = 0.0
        self.scaled = 0.0
        self.steps: List[Tuple[float, float]] = []
        self._before = speed.last if probing else 0.0
        self._start = time.perf_counter()

    def split(self) -> None:
        took = time.perf_counter() - self._start
        scaled = took
        if self.probing:
            after = self.speed.probe()
            scaled = took * Speed.factor(self._before, after)
            self._before = after
        self.raw += took
        self.scaled += scaled
        self.steps.append((took, scaled))
        self._start = time.perf_counter()


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
class Outcome:
    """Attempted / failed / wrong operation counts of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.first_error: Optional[str] = None

    def record(self, ok: bool, wrong: bool = False, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if wrong:
                self.wrong += 1
            if self.first_error is None:
                self.first_error = why

    @property
    def answered_ratio(self) -> float:
        return (self.attempted - self.failed) / self.attempted


def note(message: str) -> None:
    """A human-readable line on stdout ahead of the result line."""
    print(f"hgsbench: {message}", flush=True)


def emit(outcome: Outcome, metrics: Dict[str, Tuple[float, str]]) -> int:
    """Print the result line and return the exit code: non-zero when an
    answer disagreed with the replay oracle."""
    if outcome.first_error:
        print(f"hgsbench: first failure: {outcome.first_error}",
              file=sys.stderr)
    line = {
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(line), flush=True)
    return 0 if outcome.wrong == 0 else 1


def fingerprint(label: str, rows: Iterable) -> str:
    """Stable digest of per-operation deterministic counts, printed so
    two runs of one seed can be compared line for line."""
    digest = hashlib.sha256(repr(list(rows)).encode()).hexdigest()[:16]
    return f"{label}:{digest}"


def out_dir() -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUT_DIR


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env
