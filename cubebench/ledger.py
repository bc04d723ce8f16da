"""Layer accounting from outside the program.

Every call the benchmark makes into a layer goes through
:meth:`Ledger.call`, which times it and, when tracing is on, opens a
span named ``bench.<layer>.<function>`` around it.  The spans the
program already emits (``mapper.store``, ``nosqldb.flush``,
``ingest.merge``, ...) then nest under the benchmark's span, and
:func:`self_seconds` folds the span forest into per-layer self time.

Span labels are passed as variables, never literals: they are the
benchmark's own names, not entries of ``repro.telemetry.catalog``.
"""

from __future__ import annotations

import gc
import math
import sys
import threading
import traceback
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.telemetry import get_registry, get_tracer, wall_clock

#: Prefix of the benchmark's own spans.
BENCH = "bench"

#: Layer of each span family the program emits, by name prefix.  Spans
#: named ``ingest.*`` are emitted by several modules.
PROGRAM_SPAN_LAYERS: Dict[str, str] = {
    "etl.": "etl",
    "ingest.poll": "etl",
    "dwarf.": "dwarf",
    "ingest.delta_build": "dwarf",
    "ingest.merge": "dwarf",
    "mapper.": "mapping",
    "stored.": "mapping",
    "ingest.store_delta": "mapping",
    "ingest.compact": "mapping",
    "nosqldb.": "nosqldb",
    "query.": "query",
}


def layer_of(span_name: str) -> str:
    if span_name.startswith(BENCH + "."):
        return span_name.split(".")[1]
    for prefix, layer in PROGRAM_SPAN_LAYERS.items():
        if span_name.startswith(prefix):
            return layer
    return span_name.split(".")[0]


class Ledger:
    """Times calls into the program's layers, one span per call."""

    def __init__(self) -> None:
        self._tracer = get_tracer()
        self.seconds: Dict[str, float] = defaultdict(float)

    def call(self, label: str, fn: Callable, *args, **kwargs) -> Tuple[object, float]:
        """Run ``fn(*args, **kwargs)`` as layer call ``label``
        (``"<layer>.<function>"``); returns ``(result, seconds)``."""
        span_name = f"{BENCH}.{label}"
        with self._tracer.span(span_name):
            started = wall_clock()
            result = fn(*args, **kwargs)
            elapsed = wall_clock() - started
        self.seconds[label] += elapsed
        return result, elapsed


class Tally:
    """Operations attempted and failed.  A wrong answer or an exception
    is a failed operation; the benchmark keeps going."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._reported = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self._report(f"wrong answer: {what}")

    def error(self, what: str) -> None:
        """Count the operation in flight as failed by an exception."""
        self.attempted += 1
        self.failed += 1
        self._report(f"error: {what}\n{traceback.format_exc()}")

    def _report(self, message: str) -> None:
        if self._reported < 20:
            print(f"cubebench: {message}", file=sys.stderr)
            self._reported += 1


class gc_paused:
    """Collect, then keep the collector off for a timed region: its
    pauses land on whichever call happens to allocate, not on the work
    that made the garbage."""

    def __enter__(self) -> "gc_paused":
        gc.collect()
        self._was_enabled = gc.isenabled()
        gc.disable()
        return self

    def __exit__(self, *exc) -> None:
        if self._was_enabled:
            gc.enable()


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: Seconds :func:`calibration_seconds` takes at the reference speed:
#: about its median on a 2-CPU Intel Xeon at 2.0 GHz under Python 3.11
#: in a quiet phase (per-run medians ranged 3.8-8.8 ms over a busy
#: hour).  Scaled seconds are measured seconds times this over the
#: reading at the time.
CALIBRATION_NOMINAL_S = 0.005


def calibration_seconds() -> float:
    """The median of three runs of :func:`_calibration_loop`: a reading
    of how fast the host runs Python right now."""
    return median(_calibration_loop() for _ in range(3))


def _calibration_loop() -> float:
    """Seconds of a fixed loop of dict, sort, tuple and list work, pure
    interpreter code that touches nothing of the program."""
    started = wall_clock()
    for _ in range(2):
        table: Dict[Tuple[str, int], int] = {}
        for i in range(3000):
            key = ("k%d" % (i * 7919 % 3001), i & 15)
            table[key] = table.get(key, 0) + i
        items = sorted(table.items(), key=lambda item: item[1])
        rows = [(name, bucket, value) for (name, bucket), value in items[:1500]]
        [row[2] // 3 for row in rows if row[1] & 1]
    return wall_clock() - started


#: Shortest segment :meth:`Timings.maybe_cut` closes: a calibration
#: costs about 15 ms.
SEGMENT_S = 0.25


class Timings:
    """Timing samples of one run, as measured and scaled to the
    reference host speed.

    A shared host's speed drifts by 20-30% within a minute, alike for
    every interpreter-bound loop, so each sample is also reported
    scaled by ``CALIBRATION_NOMINAL_S / c``, where ``c`` is the mean of
    the calibration readings just before and just after the *segment*
    that took it.  :meth:`cut` ends one segment and starts the next;
    call it only where no timed work and no other thread is running.
    """

    def __init__(self) -> None:
        self.raw: Dict[str, List[float]] = defaultdict(list)
        self.scaled: Dict[str, List[float]] = defaultdict(list)
        self.calibrations: List[float] = []
        self.cuts_beside_threads = 0
        self._pending: List[Tuple[str, float]] = []
        self._before: Optional[float] = None
        self._started = 0.0

    def add(self, series: str, seconds: float) -> None:
        """A sample of the current segment."""
        self._pending.append((series, seconds))

    def cut(self) -> None:
        """End the current segment (if any) and start the next."""
        if threading.active_count() > 1:
            self.cuts_beside_threads += 1
        now = calibration_seconds()
        self.calibrations.append(now)
        if self._before is not None:
            factor = CALIBRATION_NOMINAL_S / ((self._before + now) / 2.0)
            for series, seconds in self._pending:
                self.raw[series].append(seconds)
                self.scaled[series].append(seconds * factor)
        self._pending.clear()
        self._before = now
        self._started = wall_clock()

    def maybe_cut(self) -> None:
        """:meth:`cut` once the segment has run SEGMENT_S."""
        if self._before is not None and wall_clock() - self._started >= SEGMENT_S:
            self.cut()

    def context(self) -> dict:
        values = self.calibrations or [0.0]
        return {
            "nominal_s": CALIBRATION_NOMINAL_S,
            "loops": len(self.calibrations),
            "median_s": median(values),
            "min_s": min(values),
            "max_s": max(values),
            "cuts_beside_threads": self.cuts_beside_threads,
        }


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``samples``."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


# ----------------------------------------------------------------------
# attribution from the span forest
# ----------------------------------------------------------------------
def self_seconds(roots) -> Dict[str, float]:
    """Self time per layer: each span's wall time minus its children's.

    Roots opened on the merge thread are counted too; their time runs
    beside the main thread's, so the layers can sum to more than wall.
    """
    totals: Dict[str, float] = defaultdict(float)
    stack = list(roots)
    while stack:
        span = stack.pop()
        children = span.children
        layer = layer_of(span.name)
        totals[layer] += max(
            0.0, span.wall_s - sum(child.wall_s for child in children)
        )
        stack.extend(children)
    return totals


def covered_seconds(roots) -> float:
    """Main-thread wall time under the benchmark's own layer spans."""
    return sum(span.wall_s for span in roots if span.name.startswith(BENCH + "."))


# ----------------------------------------------------------------------
# counters the layers expose
# ----------------------------------------------------------------------
def registry_total(name: str) -> float:
    """Sum of every child of one metric family (0 when never touched)."""
    family = get_registry().get(name)
    if family is None:
        return 0.0
    children = family.children()
    if children:
        return float(sum(child.value for child in children))
    return float(family.value)


def column_families(mappers) -> List:
    """Every column family of the NoSQL mappers among ``mappers``."""
    families = []
    for mapper in mappers:
        keyspace_name = getattr(mapper, "keyspace_name", None)
        if keyspace_name is not None:
            families.extend(mapper.engine.keyspace(keyspace_name).tables)
    return families


class CacheCounters:
    """Row/block cache and plan-cache counters of a set of
    mappers, read through ``ColumnFamily.stats()`` and
    ``PlanCache.stats()``.  Subtract two snapshots to frame a phase."""

    FIELDS = (
        "row_hits", "row_misses", "row_evictions",
        "block_hits", "block_misses", "blocks_skipped",
        "plan_hits", "plan_misses",
    )

    def __init__(self, values: Dict[str, int]) -> None:
        self.values = values

    @classmethod
    def read(cls, mappers) -> "CacheCounters":
        values = dict.fromkeys(cls.FIELDS, 0)
        for family in column_families(mappers):
            stats = family.stats()
            values["row_hits"] += stats.row_cache.hits
            values["row_misses"] += stats.row_cache.misses
            values["row_evictions"] += stats.row_cache.evictions
            values["block_hits"] += stats.block_cache.hits
            values["block_misses"] += stats.block_cache.misses
            values["blocks_skipped"] += stats.blocks_skipped
        for mapper in mappers:
            plan_stats = mapper.session.plan_cache.stats()
            values["plan_hits"] += plan_stats.hits
            values["plan_misses"] += plan_stats.misses
        return cls(values)

    def __sub__(self, other: "CacheCounters") -> "CacheCounters":
        return CacheCounters(
            {name: self.values[name] - other.values[name] for name in self.FIELDS}
        )

    def __add__(self, other: "CacheCounters") -> "CacheCounters":
        return CacheCounters(
            {name: self.values[name] + other.values[name] for name in self.FIELDS}
        )

    @staticmethod
    def ratio(hits: int, misses: int) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    def row_hit_ratio(self) -> float:
        return self.ratio(self.values["row_hits"], self.values["row_misses"])

    def block_hit_ratio(self) -> float:
        return self.ratio(self.values["block_hits"], self.values["block_misses"])

    def plan_hit_ratio(self) -> float:
        return self.ratio(self.values["plan_hits"], self.values["plan_misses"])


def reset_telemetry() -> None:
    """Empty the span forest and zero the registry before a traced phase."""
    get_tracer().reset()
    get_registry().reset()
