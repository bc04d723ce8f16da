"""Ingest benchmark: parallel build + bulk prepared store.

Measures the two halves of the bulk-ingest pipeline: the
``ParallelDwarfBuilder`` and the sessions' bulk prepared-insert path:

* **Build** — serial ``DwarfBuilder`` vs ``ParallelDwarfBuilder`` over the
  same sorted tuple set.  Reports the wall-clock times plus a
  *critical-path* speedup: partitions are timed individually and assigned
  to workers with the pool's greedy schedule, so the speedup reflects what
  the partitioning achieves when every worker has its own core.  On
  single-core containers (``cpu_count == 1``, recorded in the JSON) the
  wall-clock numbers cannot show parallelism; the critical path is the
  honest hardware-independent measure.  Structural identity with the
  serial cube is asserted on every run.

* **Store** — one cube persisted through the two statement paths of the
  NoSQL-DWARF mapper: raw statement text (a parse per row) and what
  ``store()`` runs, prepared statements through ``execute_many`` (parse
  once, bind the column template once, rows stream straight into the
  memtable).  A secondary sweep times ``store()`` for all four mappers.

Run standalone (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_parallel_ingest.py
    PYTHONPATH=src python benchmarks/bench_parallel_ingest.py --quick

Emits machine-readable JSON (``--out``, default
``BENCH_parallel_ingest.json``) so later PRs can track the trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from typing import Dict, List

from repro.bench.datasets import current_scale, load_dataset
from repro.core.tuples import TupleSet
from repro.dwarf.builder import DwarfBuilder
from repro.dwarf.parallel import ParallelDwarfBuilder, _build_partition, resolve_workers
from repro.mapping.base import transform_cube
from repro.mapping.nosql_dwarf import NoSQLDwarfMapper
from repro.mapping.registry import MAPPER_FACTORIES, make_mapper
from repro.nosqldb.engine import NoSQLEngine

try:
    from benchmarks._timing import best_of, gc_paused, telemetry_snapshot, timed
except ImportError:  # standalone `python benchmarks/bench_*.py`: script dir on path
    from _timing import best_of, gc_paused, telemetry_snapshot, timed


def bench_build(bundle, workers: int, repeats: int) -> Dict:
    schema = bundle.cube.schema
    facts = TupleSet(
        schema, (keys + (value,) for keys, value in bundle.cube.leaves())
    )
    ordered = facts.sorted()  # presort once so both paths time construction

    serial_cube = DwarfBuilder(schema).build(ordered)
    serial_s = best_of(
        lambda: DwarfBuilder(schema).build(ordered), repeats, label="bench.build.serial"
    )

    # min_parallel_tuples=2 keeps the partitioned machinery engaged even at
    # --quick scale, where the auto heuristic would fall back to serial.
    builder = ParallelDwarfBuilder(
        schema, workers=workers, mode="thread", min_parallel_tuples=2
    )
    parallel_cube = builder.build(ordered)
    parallel_wall_s = best_of(
        lambda: builder.build(ordered), repeats, label="bench.build.parallel"
    )

    serial_records = transform_cube(serial_cube)
    parallel_records = transform_cube(parallel_cube)
    identical = (
        serial_records.nodes == parallel_records.nodes
        and serial_records.cells == parallel_records.cells
    )
    assert identical, "parallel cube diverged from the serial build"

    # Critical path: time each partition build in isolation, assign the
    # partitions to workers with the pool's greedy least-loaded schedule,
    # and add the stitch (the only serial tail).  This is the build time on
    # a machine with `workers` real cores, measured rather than
    # extrapolated; best-of over `repeats` full cycles.
    partitions = builder._partition(ordered)
    best = None
    for _ in range(repeats):
        partition_times: List[float] = []
        parts = []
        with gc_paused():
            for chunk in partitions:
                part, elapsed = timed(
                    lambda: _build_partition(schema, chunk, True),
                    label="bench.build.partition",
                )
                parts.append(part)
                partition_times.append(elapsed)
            stitched, stitch_s = timed(
                lambda: builder._stitch(
                    parts, n_source_tuples=len(ordered), pickled=False
                ),
                label="bench.build.stitch",
            )
        assert stitched.stats.cell_count == serial_cube.stats.cell_count
        loads = [0.0] * max(1, min(workers, len(partitions)))
        for cost in partition_times:
            loads[loads.index(min(loads))] += cost
        critical_path_s = max(loads) + stitch_s
        if best is None or critical_path_s < best["time_s"]:
            best = {
                "partitions": len(partitions),
                "max_partition_s": max(partition_times),
                "max_worker_load_s": max(loads),
                "stitch_s": stitch_s,
                "time_s": critical_path_s,
            }
    best["speedup"] = serial_s / best["time_s"]

    return {
        "n_facts": len(ordered),
        "serial_s": serial_s,
        "parallel_wall_s": parallel_wall_s,
        "parallel_mode": "thread",
        "wallclock_speedup": serial_s / parallel_wall_s,
        "critical_path": best,
        "identical": identical,
        "n_merges_serial": serial_cube.n_merges,
        "n_merges_parallel": parallel_cube.n_merges,
    }


def _fresh_nosql_dwarf() -> NoSQLDwarfMapper:
    mapper = NoSQLDwarfMapper(NoSQLEngine())
    mapper.install()
    return mapper


def bench_store(bundle, repeats: int, all_mappers: bool) -> Dict:
    cube = bundle.cube

    def text_store():
        mapper = _fresh_nosql_dwarf()
        session = mapper.engine.connect(mapper.keyspace_name)
        for statement in mapper.statements(cube, schema_id=1):
            session.execute(statement)

    def prepared_store():
        _fresh_nosql_dwarf().store(cube, probe_size=False)

    text_s = best_of(text_store, repeats, label="bench.store.text")
    prepared_s = best_of(prepared_store, repeats, label="bench.store.prepared")

    result = {
        "mapper": "NoSQL-DWARF",
        "text_s": text_s,
        "prepared_s": prepared_s,
        "text_vs_prepared_speedup": text_s / prepared_s,
    }
    if all_mappers:
        per_mapper = {}
        for name in MAPPER_FACTORIES:
            mapper = make_mapper(name)
            _, mapper_prepared_s = timed(
                lambda: mapper.store(cube, probe_size=False),
                label="bench.store.prepared",
            )
            per_mapper[name] = {"prepared_s": mapper_prepared_s}
        result["per_mapper"] = per_mapper
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--dataset", default="Month", help="dataset name (default Month)")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker count (default: REPRO_WORKERS or cpu count, floor 2)",
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    parser.add_argument("--out", default="BENCH_parallel_ingest.json", help="JSON output path")
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: Day dataset, single repeat, NoSQL-DWARF only",
    )
    args = parser.parse_args(argv)

    dataset = "Day" if args.quick else args.dataset
    repeats = 1 if args.quick else args.repeats
    # The partitioned build needs at least two workers to mean anything,
    # even on single-core containers where only the critical path can show it.
    workers = args.workers if args.workers is not None else max(4, resolve_workers())

    bundle = load_dataset(dataset)
    build = bench_build(bundle, workers=workers, repeats=repeats)
    store = bench_store(bundle, repeats=repeats, all_mappers=not args.quick)

    report = {
        "bench": "parallel_ingest",
        "dataset": dataset,
        "n_tuples": bundle.n_tuples,
        "repro_scale": current_scale(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
        "workers": workers,
        "repeats": repeats,
        "build": build,
        "store": store,
        "telemetry": telemetry_snapshot(),
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    cp = build["critical_path"]
    print(f"dataset={dataset} facts={build['n_facts']} workers={workers} "
          f"cpus={report['cpu_count']}")
    print(f"build   serial {build['serial_s'] * 1000:8.1f} ms   "
          f"parallel(wall) {build['parallel_wall_s'] * 1000:8.1f} ms   "
          f"wall speedup {build['wallclock_speedup']:.2f}x")
    print(f"        critical path {cp['time_s'] * 1000:8.1f} ms "
          f"({cp['partitions']} partitions, stitch {cp['stitch_s'] * 1000:.1f} ms)   "
          f"speedup {cp['speedup']:.2f}x")
    print(f"store   text {store['text_s'] * 1000:8.1f} ms   "
          f"prepared {store['prepared_s'] * 1000:8.1f} ms   "
          f"text/prepared {store['text_vs_prepared_speedup']:.2f}x")
    for name, cell in store.get("per_mapper", {}).items():
        print(f"        {name:12s} prepared {cell['prepared_s'] * 1000:8.1f} ms")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
