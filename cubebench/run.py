"""Cube-store benchmark: three workloads through repro's public API.

Run from the root of a checkout::

    python3 cubebench/run.py --workload paper_load --seed 7 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload with ``REPRO_TRACE=1 REPRO_METRICS=1`` and prints the
per-layer metrics of that pass, telemetry's overhead on a fixed unit of
the workload, and the ingest and MySQL-DWARF maintenance probes.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value": ..., "unit": ...}``).
The line before it is the run context.  See ``cubebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: End-to-end metrics, printed by every untraced run.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("build_s", "s"),
    ("load_s.MySQL-DWARF", "s"),
    ("load_s.MySQL-Min", "s"),
    ("load_s.NoSQL-DWARF", "s"),
    ("load_s.NoSQL-Min", "s"),
    ("bytes_per_fact.MySQL-DWARF", "B"),
    ("bytes_per_fact.MySQL-Min", "B"),
    ("bytes_per_fact.NoSQL-DWARF", "B"),
    ("bytes_per_fact.NoSQL-Min", "B"),
    ("point_p50_ms", "ms"),
    ("point_p99_ms", "ms"),
    ("adhoc_p50_ms", "ms"),
    ("adhoc_p90_ms", "ms"),
    ("ingest_facts_per_s", "facts/s"),
)

#: Layers whose span self time the traced run reports.
SELF_TIME_LAYERS = ("smartcity", "etl", "dwarf", "mapping", "nosqldb", "sqldb", "query")

#: Per-layer metrics, printed by every traced run, with the end-to-end
#: metric each should move.
PER_LAYER = (
    ("etl.extract_s", "s", "build_s, ingest_facts_per_s"),
    ("dwarf.build_s", "s", "build_s"),
    ("dwarf.nodes", "count", "bytes_per_fact.*, load_s.*"),
    ("dwarf.cells", "count", "bytes_per_fact.*, load_s.*"),
    ("mapping.store_s.MySQL-DWARF", "s", "load_s.MySQL-DWARF"),
    ("mapping.store_s.MySQL-Min", "s", "load_s.MySQL-Min"),
    ("mapping.store_s.NoSQL-DWARF", "s", "load_s.NoSQL-DWARF"),
    ("mapping.store_s.NoSQL-Min", "s", "load_s.NoSQL-Min"),
    ("nosqldb.flush_s", "s", "load_s.NoSQL-*, ingest_facts_per_s"),
    ("nosqldb.writes_per_fact", "writes/fact", "load_s.NoSQL-*, ingest_facts_per_s"),
    ("storage.btree_page_splits", "count", "load_s.MySQL-*, load_s.NoSQL-Min"),
    ("mapping.append_s", "s", "none gated: ingest probe"),
    ("mapping.merge_s", "s", "none gated: ingest probe"),
    ("mapping.compact_s", "s", "none gated: ingest probe"),
    ("mapping.rows_compacted", "count", "none gated: ingest probe"),
    ("mapping.point_p50_ms.during_merge", "ms", "none gated: ingest probe"),
    ("mapping.point_p50_ms.idle", "ms", "none gated: ingest probe"),
    ("mapping.point_p50_ms.NoSQL-DWARF", "ms", "point_p50_ms"),
    ("mapping.point_p50_ms.MySQL-DWARF", "ms", "point_p50_ms"),
    ("nosqldb.row_cache_hit_ratio", "ratio", "point_p50_ms, point_p99_ms"),
    ("nosqldb.row_cache_evictions", "count", "point_p50_ms, point_p99_ms"),
    ("nosqldb.block_cache_hit_ratio", "ratio", "point_p50_ms, point_p99_ms, adhoc_p50_ms"),
    ("query.plan_cache_hit_ratio", "ratio", "point_p50_ms, adhoc_p50_ms"),
    ("nosqldb.adhoc_p50_ms", "ms", "adhoc_p50_ms, adhoc_p90_ms"),
    ("sqldb.adhoc_p50_ms", "ms", "adhoc_p50_ms, adhoc_p90_ms"),
    ("nosqldb.blocks_skipped", "count", "adhoc_p50_ms, adhoc_p90_ms"),
    ("query.rows_pruned", "count", "adhoc_p50_ms, adhoc_p90_ms"),
) + tuple(
    (f"{layer}.self_s", "s", "the workload's end-to-end times") for layer in SELF_TIME_LAYERS
) + (
    ("telemetry.overhead_pct", "%", "every time metric, when telemetry is on"),
    ("telemetry.unattributed_pct", "%", "none: time no layer span covers"),
    ("mapping.compact_s.MySQL-DWARF", "s", "none yet: MySQL-DWARF maintenance"),
)


def _pin_environment(trace: bool) -> dict:
    """Run on the program's defaults, one worker, with telemetry gated
    by ``--trace`` alone; returns the ``REPRO_*`` values set here."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    pinned = {"REPRO_WORKERS": "1"}
    if trace:
        pinned.update(REPRO_TRACE="1", REPRO_METRICS="1")
    os.environ.update(pinned)
    return pinned


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path, or stop: the
    benchmark measures the program in its own checkout, nothing else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"cubebench: no program sources at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"cubebench: imported repro from {repro.__file__}, not {SRC}")


def _git_revision():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def run_context(pinned: dict) -> dict:
    from repro.bench.datasets import current_scale
    from repro.core.workers import resolve_workers
    from repro.nosqldb.cache import block_cache_budget, row_cache_budget
    from repro.nosqldb.columnar import default_block_format
    from repro.nosqldb.columnfamily import FLUSH_THRESHOLD
    from repro.nosqldb.sharding import resolve_shards
    from workloads import PARAMETERS

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": _git_revision(),
        "repro_env_set": pinned,
        "repro_in_effect": {
            "REPRO_SCALE": current_scale(),
            "REPRO_SHARDS": resolve_shards(),
            "REPRO_WORKERS": resolve_workers(),
            "REPRO_BLOCK_FORMAT": default_block_format(),
            "REPRO_BLOCK_CACHE_BYTES": block_cache_budget(),
            "REPRO_ROW_CACHE_BYTES": row_cache_budget(),
        },
        "workload_parameters": PARAMETERS,
        "flush_policy": {
            "memtable_threshold_bytes": FLUSH_THRESHOLD,
            "deferred": True,
            "explicit_flush_counted_in": "load_s.*",
        },
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(run, roots, pass_wall_s: float) -> dict:
    from ledger import covered_seconds, registry_total, self_seconds

    ledger, reads = run.ledger, run.reads
    values = {
        "etl.extract_s": ledger.seconds["etl.extract"],
        "dwarf.build_s": ledger.seconds["dwarf.build"],
        "nosqldb.flush_s": _span_seconds(roots, "nosqldb.flush"),
        "nosqldb.writes_per_fact": (
            run.nosql_writes / run.nosql_facts_stored if run.nosql_facts_stored else 0.0
        ),
        "storage.btree_page_splits": registry_total("btree_page_splits_total"),
        "nosqldb.row_cache_hit_ratio": reads.row_hit_ratio(),
        "nosqldb.row_cache_evictions": reads.values["row_evictions"],
        "nosqldb.block_cache_hit_ratio": reads.block_hit_ratio(),
        "query.plan_cache_hit_ratio": reads.plan_hit_ratio(),
        "nosqldb.blocks_skipped": reads.values["blocks_skipped"],
        "query.rows_pruned": registry_total("query_pushdown_rows_pruned_total"),
        "telemetry.unattributed_pct": 100.0 * (1.0 - covered_seconds(roots) / pass_wall_s),
    }
    for name in ("MySQL-DWARF", "MySQL-Min", "NoSQL-DWARF", "NoSQL-Min"):
        values[f"mapping.store_s.{name}"] = ledger.seconds[f"mapping.store.{name}"]
    self_s = self_seconds(roots)
    for layer in SELF_TIME_LAYERS:
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for name, _, _ in PER_LAYER:
        values.setdefault(name, run.layers.get(name, 0.0))
    return values


def overhead_pct(unit) -> float:
    """Telemetry's cost on one fixed unit of the workload's work: the
    unit runs untraced, traced, traced, untraced, so a linear drift in
    host speed or a warm-up over the four runs cancels, and each side
    times the same operations.  Each run's seconds are divided by the
    host-speed readings around it, as the end-to-end timings are."""
    from ledger import calibration_seconds, gc_paused
    from repro.telemetry import enable_metrics, enable_tracing, wall_clock

    seconds = {False: 0.0, True: 0.0}
    before = calibration_seconds()
    for traced in (False, True, True, False):
        enable_tracing(traced)
        enable_metrics(traced)
        with gc_paused():
            started = wall_clock()
            unit()
            elapsed = wall_clock() - started
        after = calibration_seconds()
        seconds[traced] += elapsed / (before + after)
        before = after
    enable_tracing(True)
    enable_metrics(True)
    return 100.0 * (seconds[True] / seconds[False] - 1.0)


def _span_seconds(roots, name: str) -> float:
    total, stack = 0.0, list(roots)
    while stack:
        span = stack.pop()
        if span.name == name:
            total += span.wall_s
        stack.extend(span.children)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cube-store benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("paper_load", "dashboard_reads"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="minimum measured time of the read mix")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pinned = _pin_environment(bool(args.trace))
    _import_program()
    from repro.telemetry import enable_metrics, enable_tracing, get_tracer, wall_clock
    from ledger import reset_telemetry
    from workloads import WORKLOADS, Pass, ingest_probe, maintenance_probe

    workload = WORKLOADS[args.workload]
    context = run_context(pinned)
    context.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace)

    if not args.trace:
        run = Pass(args.seed, args.seconds)
        workload(run)
        run.metrics["peak_rss_mb"] = peak_rss_mb()
        metrics = {name: {"value": run.metrics[name], "unit": unit} for name, unit in END_TO_END}
    else:
        enable_tracing(True)
        enable_metrics(True)
        reset_telemetry()
        run = Pass(args.seed, args.seconds)
        started = wall_clock()
        workload(run)
        pass_wall_s = wall_clock() - started
        values = per_layer(run, list(get_tracer().roots), pass_wall_s)
        reset_telemetry()
        values["telemetry.overhead_pct"] = overhead_pct(run.overhead_unit)
        reset_telemetry()
        values.update(ingest_probe(run))
        reset_telemetry()
        values["mapping.compact_s.MySQL-DWARF"] = maintenance_probe(run)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
        context["moves"] = {name: moves for name, _, moves in PER_LAYER}

    context["notes"] = run.notes
    context["unscaled"] = run.unscaled
    attempted, failed = run.tally.attempted, run.tally.failed
    for name, entry in metrics.items():
        print(f"{name:40s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
