"""The workloads, paper_load and dashboard_reads, and the two probes
that traced runs add: the ingest loop and MySQL-DWARF maintenance.

Each is a closed loop with one client in one process.  Every call into
the program goes through :class:`ledger.Ledger`, so a traced pass
attributes its time layer by layer; every answer is checked against
the in-memory cube, and a wrong answer or an exception is a failed
operation in the :class:`ledger.Tally`.

Each workload runs in *rounds* and takes one sample of every timing per
round, so the median of a timing spans the whole run, not one moment of
it: the speed of a shared 2-CPU box drifts by 20-30% over a few seconds.

Every workload reports every end-to-end metric.  dashboard_reads does
not itself load a feed under all four schemas, so its ``build_s``,
``load_s.*``, ``bytes_per_fact.*`` and ``ingest_facts_per_s`` come from
the *load probe*: the seed's Day feed extracted, built and loaded under
every schema (Table 5's Day column), once per round.

A third workload, live_ingest (``repro ingest`` over the Week
feed with reads beside its merges), is not here: its point p99 and
ingest rate spread by 0.22-0.35 (quartile distance over median) across
seeds, past the largest bound the benchmark may set, because reads
stalled behind the merge thread come and go by the dozen.  Its loop
runs as the *ingest probe* of traced runs instead, for the per-layer
ingest metrics.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, NamedTuple, Optional

import inputs
from ledger import (
    CacheCounters,
    Ledger,
    Tally,
    Timings,
    column_families,
    gc_paused,
    median,
    percentile,
)
from repro.analysis.dwarf_check import structural_signature
from repro.core.tuples import TupleSet
from repro.dwarf.builder import DwarfBuilder
from repro.etl.stream import FeedTailer
from repro.mapping.base import transform_cube
from repro.mapping.incremental import CubeMaintainer
from repro.mapping.registry import MAPPER_FACTORIES, make_mapper
from repro.mapping.stored_query import stored_point_query
from repro.smartcity.bikes import bikes_pipeline
from repro.telemetry import wall_clock

SCHEMAS = tuple(MAPPER_FACTORIES)
NOSQL_DWARF = "NoSQL-DWARF"
MYSQL_DWARF = "MySQL-DWARF"
READ_SCHEMAS = (NOSQL_DWARF, MYSQL_DWARF)

#: The load probe's feed, and paper_load's: Day, not Month.  A Month
#: pass takes about 40 s here and gives one sample per schema, so
#: paper_load loads the Day feed once per round instead.  The ingest
#: and maintenance probes use it too.
LOAD_FEED = "Day"

#: Rounds per workload.  paper_load: feed generation, extract + build +
#: four loads, and a read-back of that round's copies.  dashboard_reads:
#: a load-probe pass and a chunk of the read mix.
PAPER_ROUNDS = 10
DASHBOARD_ROUNDS = 8

#: Extract + build repeats per load pass.  A Day build takes about 20 ms,
#: 1% of a pass, so build_s gets three samples per round for little.
BUILD_REPEATS = 3

#: dashboard_reads' cube: the smallest of the paper's periods whose
#: ``dwarf_cell`` family (19.7 MiB decoded) outgrows the 4 MiB row cache
#: under this read mix.
DASHBOARD_FEED = "TMonth"

#: Ad-hoc statements per run.  Each tail percentile needs at least ten
#: samples beyond it: p90 needs 100; 150 put 15 beyond it.
#: With one operation in ADHOC_EVERY ad hoc, the point queries number
#: about 4,400, 44 beyond their p99.
ADHOC_SAMPLES = 150

#: Read-mix schedule.  No measured dashboard traffic exists for this
#: cube store, so these shares are the benchmark's own choice, not a
#: model of real traffic:
#:
#: - ADHOC_EVERY: one operation in 30 is ad hoc, the ratio of the two
#:   sample floors (1,000 point queries for p99, 100 ad-hoc statements
#:   for p90), so one schedule meets both at once.
#: - MYSQL_POINT_EVERY: one point query in 4 goes to MySQL-DWARF, the
#:   rest to NoSQL-DWARF, the paper's proposal and the schema
#:   ``repro ingest`` maintains.
#: - SQL_EVERY: one ad-hoc statement in 6 is SQL (a full scan of
#:   ``CELL``, about 8x a CQL count on TMonth), on the predicate of the
#:   CQL statement before it.  p50 then falls among CQL counts and p90
#:   among SQL statements (25 of 150), each several samples from the
#:   boundary between the two.
ADHOC_EVERY = 30
MYSQL_POINT_EVERY = 4
SQL_EVERY = 6

#: dashboard_reads warms its caches with this many point queries first.
#: The NoSQL-DWARF row cache fills during the first rounds after it and
#: evicts from then on.
WARMUP_POINTS = 1000

#: The ingest probe of traced runs: ``repro ingest`` on NoSQL-DWARF over
#: the Day feed, one document per micro-batch (a base and four deltas),
#: a background merge every MERGE_EVERY deltas (``repro ingest``'s
#: default), READS_AFTER_APPEND point reads after the base and each
#: append, and point reads back to back while the merge runs, cycling
#: through MERGE_READ_VECTORS vectors.
INGEST_BATCH = 1
MERGE_EVERY = 4
READS_AFTER_APPEND = 50
MERGE_READ_VECTORS = 400

#: Documents of the Day feed in the MySQL-DWARF maintenance probe: a
#: base of one and one delta.  Its compaction cost grows with the square
#: of the cube (about 14 s at two documents, 35 s at three).
MAINTENANCE_PROBE_DOCUMENTS = 2

#: Recorded in every run's context.
PARAMETERS = {
    "load_feed": LOAD_FEED,
    "rounds": {"paper_load": PAPER_ROUNDS, "dashboard_reads": DASHBOARD_ROUNDS},
    "build_repeats_per_pass": BUILD_REPEATS,
    "read_mix": {
        "adhoc_samples": ADHOC_SAMPLES,
        "adhoc_every": ADHOC_EVERY,
        "mysql_point_every": MYSQL_POINT_EVERY,
        "sql_every": SQL_EVERY,
        "warmup_points": WARMUP_POINTS,
        "station_zipf": inputs.STATION_ZIPF,
        "recency_decay": inputs.RECENCY_DECAY,
        "adhoc_pool_per_shape": inputs.ADHOC_POOL,
        "adhoc_shapes": inputs.ADHOC_SHAPES,
    },
    "dashboard_reads": {"feed": DASHBOARD_FEED},
    "ingest_probe": {
        "feed": LOAD_FEED,
        "schema": NOSQL_DWARF,
        "batch_documents": INGEST_BATCH,
        "merge_every_deltas": MERGE_EVERY,
        "reads_after_append": READS_AFTER_APPEND,
        "reads_during_merge": "back to back until the merge ends",
        "merge_read_vectors": MERGE_READ_VECTORS,
    },
    "overhead": "traced vs untraced, order untraced-traced-traced-untraced, same unit of work",
    "maintenance_probe": {"schema": MYSQL_DWARF, "feed": LOAD_FEED,
                          "documents": MAINTENANCE_PROBE_DOCUMENTS},
}


class Pass:
    """One run of a workload: its ledger, tally, seed and results."""

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.ledger = Ledger()
        self.tally = Tally()
        self.timings = Timings()
        self.metrics: Dict[str, float] = {}
        #: The end-to-end metrics again, from unscaled samples.
        self.unscaled: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        #: Counts recorded in the run context, not metrics.
        self.notes: Dict[str, object] = {}
        self.nosql_facts_stored = 0
        self.nosql_writes = 0
        self.reads: Optional[CacheCounters] = None
        #: CQL counts by statement text, for the SQL twin that follows.
        self.cql_counts: Dict[str, Optional[int]] = {}
        #: A fixed unit of the workload's work, repeated traced and
        #: untraced to measure telemetry.overhead_pct.
        self.overhead_unit: Optional[Callable[[], None]] = None

    def rng(self, stream: str) -> random.Random:
        return random.Random(f"{self.seed}:{stream}")


class Loaded(NamedTuple):
    mapper: object
    schema_id: int
    store_s: float
    flush_s: float
    size_bytes: int


# ----------------------------------------------------------------------
# shared steps
# ----------------------------------------------------------------------
def generate(run: Pass, dataset: str):
    """The seeded feed, and the seconds it took to generate."""
    return run.ledger.call("smartcity.generate", inputs.feed, dataset, run.seed)


def build(run: Pass, documents):
    """Extract facts and build the cube; returns ``(facts, cube,
    extract + build seconds)``."""
    facts, extract_s = run.ledger.call("etl.extract", bikes_pipeline().extract, documents)
    cube, build_s = run.ledger.call("dwarf.build", DwarfBuilder(facts.schema).build, facts)
    return facts, cube, extract_s + build_s


def load(run: Pass, cube, n_facts: int, schema_name: str) -> Loaded:
    """``store()``, an explicit flush of every column family, and
    ``size_bytes()`` on a fresh mapper."""
    mapper = make_mapper(schema_name)
    schema_id, store_s = run.ledger.call(
        f"mapping.store.{schema_name}", mapper.store, cube, probe_size=False
    )
    flush_s = 0.0
    families = column_families([mapper])
    for family in families:
        _, elapsed = run.ledger.call("nosqldb.flush", family.flush)
        flush_s += elapsed
    size_bytes, _ = run.ledger.call("mapping.size_bytes", mapper.size_bytes)
    info = mapper.info(schema_id)
    run.tally.check(
        (info.node_count, info.cell_count) == (cube.stats.node_count, cube.stats.cell_count),
        f"{schema_name} stored {info.node_count} nodes / {info.cell_count} cells, "
        f"cube has {cube.stats.node_count} / {cube.stats.cell_count}",
    )
    if families:
        run.nosql_facts_stored += n_facts
        run.nosql_writes += sum(family.stats().n_writes for family in families)
    return Loaded(mapper, schema_id, store_s, flush_s, size_bytes)


class LoadSeries:
    """Passes of extract, build and the four loads of one feed.

    Each :meth:`load_pass` starts from the documents and adds
    BUILD_REPEATS ``build`` samples and one ``load.<schema>`` sample to
    the run's timings;
    :meth:`report` checks that the cube's shape and every size repeated
    exactly.
    """

    def __init__(self, run: Pass, documents) -> None:
        self.run = run
        self.documents = documents
        self.sizes: Dict[str, set] = {name: set() for name in SCHEMAS}
        self.shapes = set()
        self.facts = self.cube = None
        self.loaded: Dict[str, Loaded] = {}

    def load_pass(self, record: bool = True) -> None:
        run, timings = self.run, self.run.timings
        self.loaded = {}
        with gc_paused():
            for _ in range(BUILD_REPEATS):
                facts, cube, build_s = build(run, self.documents)
                self.shapes.add((len(facts), cube.stats.node_count, cube.stats.cell_count))
                if record:
                    timings.add("build", build_s)
            if record:
                timings.maybe_cut()
            for name in SCHEMAS:
                item = self.loaded[name] = load(run, cube, len(facts), name)
                if record:
                    timings.add(f"load.{name}", item.store_s + item.flush_s)
                    timings.maybe_cut()
        self.facts, self.cube = facts, cube
        for name, item in self.loaded.items():
            self.sizes[name].add(item.size_bytes)

    def report(self) -> None:
        """``bytes_per_fact.*``, and the checks that repeats agree."""
        run = self.run
        run.tally.check(len(self.shapes) == 1, f"cube shape varies: {sorted(self.shapes)}")
        for name in SCHEMAS:
            run.tally.check(len(self.sizes[name]) == 1,
                            f"{name} size varies: {sorted(self.sizes[name])}")
            run.metrics[f"bytes_per_fact.{name}"] = min(self.sizes[name]) / len(self.facts)


def load_probe(run: Pass) -> LoadSeries:
    """The Day feed's four loads, the source of the load-side metrics
    on workloads that do not load all four schemas."""
    documents, _ = generate(run, LOAD_FEED)
    return LoadSeries(run, documents)


# ----------------------------------------------------------------------
# the read mix
# ----------------------------------------------------------------------
class ReadOp(NamedTuple):
    kind: str                  # "point", "cql" or "sql"
    schema: str                # target schema
    argument: object           # coordinate vector or statement text
    expected: object
    grouped: bool = False
    pair: Optional[str] = None  # an SQL statement's CQL twin on the same predicate


class ReadPlanner:
    """Draws the read mix over one cube, chunk by chunk, with expected
    answers.  Every chunk draws fresh vectors and predicates, and the
    schedule runs on across chunks, so the shares hold over a run."""

    def __init__(self, run: Pass, stream: str, facts, cube, cells) -> None:
        rng = run.rng(stream)
        self._cube = cube
        self._cells = cells
        self._points = inputs.PointMix(facts, cube.schema, rng)
        self._adhoc = inputs.AdhocMix(cells, rng)
        self._expected: Dict[inputs.Predicate, inputs.AdhocExpectation] = {}
        self._index = self._n_points = self._n_adhoc = self._n_sql = 0
        self._last: Optional[inputs.Predicate] = None

    def _expect(self, predicate: inputs.Predicate) -> inputs.AdhocExpectation:
        if predicate not in self._expected:
            self._expected[predicate] = inputs.expect(predicate, self._cells)
        return self._expected[predicate]

    def plan(self, n_operations: int, schema_ids: Dict[str, int],
             classes: str = "mixed") -> List[ReadOp]:
        """The next ``n_operations`` of the schedule.

        Point queries go to the DWARF schemas in ``schema_ids``; SQL
        statements need a MySQL-DWARF copy there.  ``classes`` is
        ``"mixed"``, ``"points"`` or ``"adhoc"``: the latter two keep
        one operation class of the schedule.
        """
        ops: List[ReadOp] = []
        for _ in range(n_operations):
            self._index += 1
            adhoc = self._index % ADHOC_EVERY == 0
            if classes == "adhoc" or (adhoc and classes == "mixed"):
                self._n_adhoc += 1
                if (MYSQL_DWARF in schema_ids and self._n_adhoc % SQL_EVERY == 0
                        and self._last is not None):
                    self._n_sql += 1
                    grouped = self._n_sql % 2 == 0
                    text = self._last.sql(schema_ids[MYSQL_DWARF], grouped)
                    ops.append(ReadOp("sql", MYSQL_DWARF, text, self._expect(self._last),
                                      grouped, self._last.cql(schema_ids[NOSQL_DWARF])))
                else:
                    self._last = self._adhoc.draw()
                    text = self._last.cql(schema_ids[NOSQL_DWARF])
                    ops.append(ReadOp("cql", NOSQL_DWARF, text, self._expect(self._last)))
            else:
                self._n_points += 1
                schema = NOSQL_DWARF
                if MYSQL_DWARF in schema_ids and self._n_points % MYSQL_POINT_EVERY == 0:
                    schema = MYSQL_DWARF
                vector = self._points.draw()
                ops.append(ReadOp("point", schema, vector, self._cube.value(vector)))
        return ops


def _adhoc_answer(op: ReadOp, rows) -> bool:
    expected = op.expected
    if op.kind == "cql":
        return [row["count"] for row in rows] == [expected.count]
    if op.grouped:
        got = tuple(sorted((row["leaf"], row["count"], row["max(measure)"]) for row in rows))
        return got == expected.by_leaf
    return [(row["count"], row["sum(measure)"], row["max(measure)"]) for row in rows] == [
        (expected.count, expected.total, expected.maximum)
    ]


def run_reads(run: Pass, ops: List[ReadOp], targets: Dict[str, Loaded],
              record: bool = True) -> None:
    """Issue ``ops`` in order; with ``record``, add each latency to the
    run's timings (``point`` and ``point.<schema>``, ``cql``, ``sql``)."""
    ledger, tally, timings = run.ledger, run.tally, run.timings
    for op in ops:
        target = targets[op.schema]
        try:
            if op.kind == "point":
                answer, elapsed = ledger.call(
                    "mapping.stored_point_query", stored_point_query,
                    target.mapper, target.schema_id, op.argument,
                )
                tally.check(answer == op.expected, f"point {op.schema} {op.argument}: "
                            f"{answer!r} != {op.expected!r}")
                if record:
                    timings.add("point", elapsed)
                    timings.add(f"point.{op.schema}", elapsed)
                    timings.maybe_cut()
                continue
            label = "nosqldb.execute" if op.kind == "cql" else "sqldb.execute"
            result, elapsed = ledger.call(label, target.mapper.session.execute, op.argument)
            rows = list(result)
            ok = _adhoc_answer(op, rows)
            if op.kind == "cql":
                run.cql_counts[op.argument] = rows[0]["count"] if rows else None
            else:
                ok = ok and sum(row["count"] for row in rows) == run.cql_counts.get(op.pair)
            tally.check(ok, f"{op.argument}: {rows!r} != {op.expected!r}")
            if record:
                timings.add(op.kind, elapsed)
                timings.maybe_cut()
        except Exception:  # a failed operation, not a failed benchmark
            tally.error(f"{op.kind} {op.argument!r}")


def read_chunk(run: Pass, ops: List[ReadOp], targets: Dict[str, Loaded],
               record: bool = True) -> float:
    """Issue ``ops`` with the collector paused; add the cache counters
    they moved to ``run.reads``; returns their wall seconds."""
    mappers = [item.mapper for item in targets.values()]
    with gc_paused():
        before = CacheCounters.read(mappers)
        started = wall_clock()
        run_reads(run, ops, targets, record)
        elapsed = wall_clock() - started
        moved = CacheCounters.read(mappers) - before
    run.reads = moved if run.reads is None else run.reads + moved
    return elapsed


def report(run: Pass, setup: str, n_facts: int) -> None:
    """The timed end-to-end metrics, from scaled samples into
    ``run.metrics`` and from unscaled ones into ``run.unscaled``, and
    the read latencies per layer (unscaled).

    ``setup`` is ``"median"`` (one sample per round) or ``"sum"`` (one
    sample per setup step).  ``ingest_facts_per_s`` is the load feed's
    facts over ``build_s`` plus ``load_s.NoSQL-DWARF``.
    """
    ms = 1000.0
    for series, metrics in ((run.timings.scaled, run.metrics),
                            (run.timings.raw, run.unscaled)):
        metrics["setup_s"] = sum(series["setup"]) if setup == "sum" else median(series["setup"])
        metrics["build_s"] = median(series["build"])
        for name in SCHEMAS:
            metrics[f"load_s.{name}"] = median(series[f"load.{name}"])
        metrics["point_p50_ms"] = percentile(series["point"], 50) * ms
        metrics["point_p99_ms"] = percentile(series["point"], 99) * ms
        adhoc = series["cql"] + series["sql"]
        metrics["adhoc_p50_ms"] = percentile(adhoc, 50) * ms
        metrics["adhoc_p90_ms"] = percentile(adhoc, 90) * ms
        metrics["ingest_facts_per_s"] = n_facts / (
            metrics["build_s"] + metrics[f"load_s.{NOSQL_DWARF}"]
        )
    raw = run.timings.raw
    for layer, series in (
        (f"mapping.point_p50_ms.{NOSQL_DWARF}", f"point.{NOSQL_DWARF}"),
        (f"mapping.point_p50_ms.{MYSQL_DWARF}", f"point.{MYSQL_DWARF}"),
        ("nosqldb.adhoc_p50_ms", "cql"),
        ("sqldb.adhoc_p50_ms", "sql"),
    ):
        run.layers[layer] = percentile(raw[series], 50) * ms if raw[series] else 0.0
    run.notes["samples"] = {name: len(values) for name, values in sorted(raw.items())}
    run.notes["calibration"] = run.timings.context()


def _per_round(total: int, rounds: int) -> int:
    return -(-total // rounds)


def _schema_ids(targets: Dict[str, Loaded]) -> Dict[str, int]:
    return {name: item.schema_id for name, item in targets.items()}


# ----------------------------------------------------------------------
# paper_load
# ----------------------------------------------------------------------
def paper_load(run: Pass) -> None:
    """The paper's Table 4/5 path: per round, the Day feed generated,
    extracted, built and loaded under all four schemas, then the
    round's DWARF copies read back with a slice of the read mix."""
    ops_per_round = ADHOC_EVERY * _per_round(ADHOC_SAMPLES, PAPER_ROUNDS)
    bulk = planner = None
    run.timings.cut()
    for _ in range(PAPER_ROUNDS):
        documents, elapsed = generate(run, LOAD_FEED)
        run.timings.add("setup", elapsed)
        if bulk is None:
            bulk = LoadSeries(run, documents)
        bulk.load_pass()
        if planner is None:
            cells, _ = run.ledger.call("oracle.transform", transform_cube, bulk.cube)
            planner = ReadPlanner(run, "reads", bulk.facts, bulk.cube, cells.cells)
        targets = {name: bulk.loaded[name] for name in READ_SCHEMAS}
        ops, _ = run.ledger.call("oracle.plan", planner.plan, ops_per_round, _schema_ids(targets))
        read_chunk(run, ops, targets)
        run.timings.cut()
    bulk.report()
    report(run, "median", len(bulk.facts))
    run.layers["dwarf.nodes"] = bulk.cube.stats.node_count
    run.layers["dwarf.cells"] = bulk.cube.stats.cell_count
    run.overhead_unit = lambda: bulk.load_pass(record=False)


# ----------------------------------------------------------------------
# dashboard_reads
# ----------------------------------------------------------------------
def dashboard_reads(run: Pass) -> None:
    """Point and ad-hoc reads on a TMonth cube stored under both DWARF
    schemas, timed after warm-up, each chunk after a load-probe pass."""
    timings = run.timings
    probe = load_probe(run)
    timings.cut()
    documents, gen_s = generate(run, DASHBOARD_FEED)
    facts, cube, build_s = build(run, documents)
    timings.add("setup", gen_s + build_s)
    targets = {}
    for name in READ_SCHEMAS:
        timings.cut()
        with gc_paused():
            targets[name] = load(run, cube, len(facts), name)
        timings.add("setup", targets[name].store_s + targets[name].flush_s)
    run.layers["dwarf.nodes"] = cube.stats.node_count
    run.layers["dwarf.cells"] = cube.stats.cell_count

    cells, _ = run.ledger.call("oracle.transform", transform_cube, cube)
    planner = ReadPlanner(run, "reads", facts, cube, cells.cells)
    schema_ids = _schema_ids(targets)
    warm_ops, _ = run.ledger.call("oracle.plan", planner.plan, WARMUP_POINTS, schema_ids,
                                  "points")
    timings.cut()
    timings.add("setup", read_chunk(run, warm_ops, targets, record=False))
    timings.cut()

    ops_per_round = ADHOC_EVERY * _per_round(ADHOC_SAMPLES, DASHBOARD_ROUNDS)
    read_s = 0.0
    rounds = 0
    while rounds < DASHBOARD_ROUNDS or read_s < run.seconds:
        if rounds < DASHBOARD_ROUNDS:
            probe.load_pass()
            timings.cut()
        ops, _ = run.ledger.call("oracle.plan", planner.plan, ops_per_round, schema_ids)
        read_s += read_chunk(run, ops, targets)
        timings.cut()
        rounds += 1
    probe.report()
    report(run, "sum", len(probe.facts))
    unit = ops[:ops_per_round // 2]
    run.overhead_unit = lambda: run_reads(run, unit, targets, record=False)


# ----------------------------------------------------------------------
# the ingest probe (traced runs only)
# ----------------------------------------------------------------------
class IngestPlan(NamedTuple):
    """A feed cut into micro-batches, with the reads issued after each
    batch and their expected answers on the cube of the batches so far."""

    documents: object
    vectors: List[List]         # per batch: reads after it, then the merge pool
    expected: List[List]
    cold: object                # cold rebuild of the whole feed


def plan_ingest(run: Pass, documents) -> IngestPlan:
    """Reference cubes after each micro-batch, and the reads to check
    against them."""
    pipeline = bikes_pipeline()
    tailer = FeedTailer(documents, batch_size=INGEST_BATCH)
    seen: List = []
    schema = None
    prefixes = []
    while True:
        batch = tailer.poll()
        if batch is None:
            break
        facts = pipeline.extract(batch.documents)
        schema = facts.schema
        seen.extend(facts)
        prefixes.append(DwarfBuilder(schema).build(TupleSet(schema, seen)))
    cold = DwarfBuilder(schema).build(pipeline.extract(documents))
    run.tally.check(
        structural_signature(prefixes[-1]) == structural_signature(cold),
        "batch-by-batch reference cube differs from the cold rebuild",
    )
    points = inputs.PointMix(TupleSet(schema, seen), schema, run.rng("ingest"))
    vectors = [
        [points.draw() for _ in range(READS_AFTER_APPEND + MERGE_READ_VECTORS)]
        for _ in prefixes
    ]
    expected = [
        [prefix.value(vector) for vector in batch_vectors]
        for prefix, batch_vectors in zip(prefixes, vectors)
    ]
    return IngestPlan(documents, vectors, expected, cold)


def ingest(run: Pass, plan: IngestPlan) -> Dict[str, float]:
    """``repro ingest`` on a fresh NoSQL-DWARF mapper: micro-batches
    through ``append``, ``merge_async`` every MERGE_EVERY deltas with
    reads beside it, the final merge and ``compact()``; returns the
    per-layer ingest metrics."""
    ledger, tally = run.ledger, run.tally
    mapper = make_mapper(NOSQL_DWARF)
    pipeline = bikes_pipeline()
    tailer = FeedTailer(plan.documents, batch_size=INGEST_BATCH)
    idle: List[float] = []
    during: List[float] = []

    def read(maintainer, step: int, index: int, latencies: List[float]) -> None:
        vector = plan.vectors[step][index]
        try:
            answer, elapsed = ledger.call(
                "mapping.stored_point_query", stored_point_query,
                mapper, maintainer.logical_id, vector,
            )
            tally.check(answer == plan.expected[step][index],
                        f"ingest point {vector} after batch {step}: {answer!r} "
                        f"!= {plan.expected[step][index]!r}")
        except Exception:  # a failed operation, not a failed benchmark
            tally.error(f"ingest point {vector!r}")
            return
        latencies.append(elapsed)

    with gc_paused():
        batch, _ = ledger.call("etl.poll", tailer.poll)
        rows, _ = ledger.call("etl.extract", pipeline.extract, batch.documents)
        base, _ = ledger.call("dwarf.build", DwarfBuilder(rows.schema).build, rows)
        maintainer, _ = ledger.call("mapping.open", CubeMaintainer.open, mapper, base)
        step = 0
        for index in range(READS_AFTER_APPEND):
            read(maintainer, step, index, idle)
        append_s = merge_s = 0.0
        while True:
            batch, _ = ledger.call("etl.poll", tailer.poll)
            if batch is None:
                break
            step += 1
            rows, _ = ledger.call("etl.extract", pipeline.extract, batch.documents)
            _, elapsed = ledger.call("mapping.append", maintainer.append, rows)
            append_s += elapsed
            for index in range(READS_AFTER_APPEND):
                read(maintainer, step, index, idle)
            if maintainer.pending_deltas >= MERGE_EVERY:
                merge_started = wall_clock()
                thread, _ = ledger.call("mapping.merge_async", maintainer.merge_async)
                issued = 0
                while thread.is_alive():
                    index = READS_AFTER_APPEND + issued % MERGE_READ_VECTORS
                    read(maintainer, step, index, during)
                    issued += 1
                ledger.call("mapping.wait", maintainer.wait)
                merge_s += wall_clock() - merge_started
        if maintainer.pending_deltas:
            _, elapsed = ledger.call("mapping.merge", maintainer.merge)
            merge_s += elapsed
        reclaimed, compact_s = ledger.call("mapping.compact", maintainer.compact)
    merged, _ = ledger.call("mapping.load", mapper.load, maintainer.view().base_id)
    tally.check(
        structural_signature(merged) == structural_signature(plan.cold),
        "maintained base differs from a cold rebuild",
    )
    ms = 1000.0
    return {
        "mapping.append_s": append_s,
        "mapping.merge_s": merge_s,
        "mapping.compact_s": compact_s,
        "mapping.rows_compacted": reclaimed,
        "mapping.point_p50_ms.during_merge": percentile(during, 50) * ms if during else 0.0,
        "mapping.point_p50_ms.idle": percentile(idle, 50) * ms if idle else 0.0,
    }


def ingest_probe(run: Pass) -> Dict[str, float]:
    """The ingest loop over the seed's Day feed, with its own ledger so
    that it leaves the workload's accounting alone."""
    documents = inputs.feed(LOAD_FEED, run.seed)
    probe = Pass(run.seed, run.seconds)
    probe.tally = run.tally
    return ingest(probe, plan_ingest(probe, documents))


# ----------------------------------------------------------------------
# the MySQL-DWARF maintenance probe (traced runs only)
# ----------------------------------------------------------------------
def maintenance_probe(run: Pass) -> float:
    """One ``CubeMaintainer`` loop on MySQL-DWARF over the first Day
    documents; returns ``compact()`` seconds.

    Kept on record for the defect it shows: ``delete_cube_rows`` issues
    one prepared DELETE per node and cell id, and each one scans the
    whole clustered B-tree.
    """
    documents = list(inputs.feed(LOAD_FEED, run.seed))[:MAINTENANCE_PROBE_DOCUMENTS]
    pipeline = bikes_pipeline()
    ledger = Ledger()
    mapper = make_mapper(MYSQL_DWARF)
    base_facts = pipeline.extract(documents[:1])
    base = DwarfBuilder(base_facts.schema).build(base_facts)
    maintainer = CubeMaintainer.open(mapper, base)  # repro: noqa[REPRO009]
    ledger.call("mapping.append", maintainer.append, pipeline.extract(documents[1:]))
    ledger.call("mapping.merge_async", maintainer.merge_async)
    ledger.call("mapping.wait", maintainer.wait)
    _, compact_s = ledger.call(f"mapping.compact.{MYSQL_DWARF}", maintainer.compact)
    all_facts = pipeline.extract(documents)
    cold = DwarfBuilder(all_facts.schema).build(all_facts)
    merged = mapper.load(maintainer.view().base_id)
    run.tally.check(
        structural_signature(merged) == structural_signature(cold),
        "MySQL-DWARF maintained base differs from a cold rebuild",
    )
    return compact_s


WORKLOADS = {
    "paper_load": paper_load,
    "dashboard_reads": dashboard_reads,
}
