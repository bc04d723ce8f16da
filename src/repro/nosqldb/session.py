"""CQL sessions: the client surface of the NoSQL engine.

Mirrors the Python Cassandra driver: ``execute`` for one-off statements,
``prepare`` + bound parameters for the hot insert path, and
``execute_many`` / ``execute_batch`` for the bulk loads the paper uses
("the DWARF cubes were inserted in bulk", §5).  Everything but the CQL
hooks lives in the dialect-neutral :class:`repro.query.Session`.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Iterable, Sequence, Tuple

from repro.analysis.flags import checks_enabled
from repro.nosqldb.cql import ast
from repro.nosqldb.cql.executor import (
    ResultSet,
    build_select_plan,
    execute,
    resolve_point_select,
    resolve_write,
)
from repro.nosqldb.cql.parser import parse
from repro.nosqldb.errors import InvalidRequest
from repro.query import PreparedStatement, Session as _Session, record_query
from repro.telemetry import get_query_log, wall_clock

_QUERY_LOG = get_query_log()


class Session(_Session):
    """A connection to the engine with an optional current keyspace."""

    dialect = "cql"
    error = InvalidRequest
    result_class = ResultSet
    select_statement = ast.Select
    parse = staticmethod(parse)
    run_statement = staticmethod(execute)
    build_select_plan = staticmethod(build_select_plan)
    resolve_point_select = staticmethod(resolve_point_select)
    resolve_write = staticmethod(resolve_write)
    keyspace = _Session.namespace

    def check_written(self, tables: Iterable) -> None:
        if checks_enabled():
            # REPRO_CHECK=1 sanitizer mode: after a bulk write each column
            # family written (SSTables, commit-log agreement, indexes) must
            # be sound.
            from repro.analysis.runner import runtime_check

            for table in tables:
                runtime_check(table, label=f"bulk write[{table.name}]")

    def execute_batch(
        self, operations: Iterable[Tuple[PreparedStatement, Sequence]]
    ) -> int:
        """Run prepared mutations back-to-back, in order; returns the count.

        This models a CQL ``BEGIN BATCH ... APPLY BATCH`` bulk load of
        mixed statements: each run of consecutive rows for one statement
        goes through the :meth:`execute_many` write path, so a plain
        INSERT binds its column template once per run.
        """
        t0 = wall_clock() if _QUERY_LOG.enabled else 0.0
        count = 0
        written: dict = {}
        per_text: dict = {}
        for prepared, run in groupby(operations, key=itemgetter(0)):
            rows, table = self._write(prepared, (params for _, params in run))
            count += rows
            if table is not None:
                written[id(table)] = table
            per_text[prepared.text] = per_text.get(prepared.text, 0) + rows
        self.check_written(written.values())
        if _QUERY_LOG.enabled:
            # One record per statement shape in the batch.
            elapsed = wall_clock() - t0
            for text, rows in per_text.items():
                record_query(_QUERY_LOG, text, "cql",
                             elapsed * rows / max(1, count), rows)
        return count

    def __repr__(self) -> str:
        return f"Session(keyspace={self.keyspace!r})"
