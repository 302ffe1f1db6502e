"""Per-run bookkeeping shared by the workloads: timed calls, samples,
output checks and the end-to-end metric table.

Medians and rates are taken over a run's *fast windows*.  On the
2-core virtual machines this benchmark was defined on, per-core speed
swings between two levels about 1.4-1.8x apart, in phases of a few
seconds, whatever runs.  A median pooled over a whole run therefore
mostly measures how much of the run fell into slow phases.  Instead, the
measured loop is cut into :data:`WINDOWS` equal time windows, the
windows are ranked by the workload's *pace* (the median latency of its
most frequent call in that window), and medians and rates are computed
from what completed inside the :data:`FAST_WINDOWS` fastest windows.
Tail percentiles are set by rare events (flushes, checkpoints), so for
them sample count matters more: they use every sample of the loop.
"""

from __future__ import annotations

import contextlib
import hashlib
import resource
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

#: name -> unit of every end-to-end metric, in report order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "flush_p50_ms": "ms",
    "flush_p90_ms": "ms",
    "push_p50_ms": "ms",
    "push_p90_ms": "ms",
    "read_p50_ms": "ms",
    "read_p90_ms": "ms",
    "deltas_per_s": "1/s",
    "save_p50_ms": "ms",
    "recover_s": "s",
    "cut_total": "edges",
    "imbalance_max": "ratio",
    "migrated_frac": "ratio",
    "peak_rss_mb": "MB",
}

#: How many times each workload sets up its session; ``setup_s`` is
#: the median.
SETUP_REPEATS = 3
#: Time windows per measured phase, and how many of the fastest count.
WINDOWS = 8
FAST_WINDOWS = 3


@dataclass
class Run:
    """One workload run: what was attempted, what it measured, what it
    checked."""

    workload: str
    seed: int
    tracer: object
    #: key -> [(completion time, value)], values in seconds.
    samples: dict[str, list[tuple[float, float]]] = field(
        default_factory=lambda: defaultdict(list)
    )
    values: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    checks: list[tuple[str, bool]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    notes: list[str] = field(default_factory=list)
    #: Per-layer values measured outside the spans (see spans.per_layer).
    layer_extra: dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics of a traced run.
    layer: dict[str, float] = field(default_factory=dict)
    #: gateway-churn only: the GatewayProc of every spawned gateway.
    gateways: list = field(default_factory=list)
    #: The fast windows chosen so far: (start, end, phase).
    fast: list[tuple[float, float, str]] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    @contextlib.contextmanager
    def call(self, span: str, *sample_keys: str):
        """Time one call into the program under a benchmark span named
        ``span``; its duration is added to each sample list in
        ``sample_keys``.  Raising calls count as failed."""
        with self._lock:
            self.attempted += 1
        try:
            with self.tracer.span(span) as sp:
                yield sp
        except BaseException:
            with self._lock:
                self.failed += 1
            raise
        for key in sample_keys:
            self.add(key, sp.duration_s)

    def add(self, key: str, value: float) -> None:
        self.samples[key].append((time.perf_counter(), value))

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _, ok in self.checks)

    # -- fast windows --------------------------------------------------
    def choose_fast_windows(self, phase: str, pace_key: str, t0: float, t1: float) -> None:
        """Rank :data:`WINDOWS` equal windows of ``[t0, t1]`` by the
        median of ``pace_key`` samples and keep the fastest ones."""
        edges = np.linspace(t0, t1, WINDOWS + 1)
        paced = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            pace = [v for t, v in self.samples[pace_key] if lo < t <= hi]
            if pace:
                paced.append((float(np.median(pace)), float(lo), float(hi)))
        for _, lo, hi in sorted(paced)[:FAST_WINDOWS]:
            self.fast.append((lo, hi, phase))

    def _fast_values(self, key: str) -> np.ndarray:
        """Values of ``samples[key]`` completed in a fast window (all of
        them when the windows hold too few)."""
        every = [v for _, v in self.samples[key]]
        kept = [v for t, v in self.samples[key]
                if any(lo < t <= hi for lo, hi, _ in self.fast)]
        return np.asarray(kept if len(kept) >= 5 else every, dtype=np.float64)

    # -- metric helpers ------------------------------------------------
    def put(self, name: str, value: float, n: int = 1) -> None:
        self.values[name] = float(value)
        self.counts[name] = int(n)

    def put_pct(self, name: str, key: str, q: float, scale: float = 1e3) -> None:
        """The ``q``-th percentile of ``samples[key]`` (seconds, shown in
        ms by default): the median over the fast windows, a tail over
        every sample."""
        data = (self._fast_values(key) if q == 50
                else np.asarray([v for _, v in self.samples[key]], dtype=np.float64))
        self.put(name, float(np.percentile(data, q)) * scale if len(data) else 0.0, len(data))

    def put_median(self, name: str, key: str, scale: float = 1.0) -> None:
        """The median of every ``samples[key]`` value (repeated set-up
        or recovery outside the measured loop)."""
        data = [v for _, v in self.samples[key]]
        self.put(name, float(np.median(data)) * scale if data else 0.0, len(data))

    def put_rate(self, name: str, key: str, phase: str) -> None:
        """Events per second: ``samples[key]`` completions inside the
        fast windows of ``phase`` over those windows' length."""
        windows = [(lo, hi) for lo, hi, p in self.fast if p == phase]
        done = [t for t, _ in self.samples[key]]
        count = sum(any(lo < t <= hi for lo, hi in windows) for t in done)
        length = sum(hi - lo for lo, hi in windows)
        self.put(name, count / length if length else 0.0, count)

    def put_peak_rss_self(self) -> None:
        self.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    def finish_digest(self, labels: np.ndarray, total_pivots: int) -> None:
        h = hashlib.sha256(np.asarray(labels, dtype=np.int64).tobytes())
        h.update(str(int(total_pivots)).encode())
        self.digest = h.hexdigest()[:16]


def labels_ok(labels: np.ndarray, k: int, n: int) -> bool:
    """Every vertex has a label in ``[0, k)``."""
    labels = np.asarray(labels)
    return len(labels) == n and bool(((labels >= 0) & (labels < k)).all())


class StableIds:
    """Follows vertex identity across deltas.  The program renumbers on
    every deletion (survivors keep their order, new vertices are
    appended), so position ``i`` of a label vector maps to
    ``ids[i]``, an id that never changes."""

    def __init__(self, n: int):
        self.ids = np.arange(n, dtype=np.int64)
        self._next = n

    def advance(self, delta) -> None:
        keep = np.ones(len(self.ids), dtype=bool)
        keep[np.asarray(delta.deleted_vertices, dtype=np.int64)] = False
        fresh = np.arange(self._next, self._next + delta.num_added_vertices, dtype=np.int64)
        self._next += delta.num_added_vertices
        self.ids = np.concatenate([self.ids[keep], fresh])


def migrated_fraction(ids_a, part_a, ids_b, part_b) -> float:
    """Share of vertices present in both label vectors whose label
    changed (both id arrays are sorted: renumbering keeps order)."""
    common = np.intersect1d(ids_a, ids_b, assume_unique=True)
    if not len(common):
        return 0.0
    a = np.asarray(part_a)[np.searchsorted(ids_a, common)]
    b = np.asarray(part_b)[np.searchsorted(ids_b, common)]
    return float(np.mean(a != b))
