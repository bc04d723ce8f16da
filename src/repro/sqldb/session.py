"""SQL sessions: the client surface of the relational engine.

Mirrors a DB-API-ish driver: ``execute`` for one-off statements and
``prepare`` + ``execute_many`` for bulk loads ("the DWARF cubes were
inserted in bulk", paper §5).  Everything but the SQL hooks lives in
the dialect-neutral :class:`repro.query.Session`.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.flags import checks_enabled
from repro.query import PreparedStatement, Session
from repro.sqldb.errors import ProgrammingError
from repro.sqldb.sql import ast
from repro.sqldb.sql.executor import (
    SQLResult,
    build_select_plan,
    execute,
    resolve_point_select,
    resolve_write,
)
from repro.sqldb.sql.parser import parse

#: The DB-API name of a prepared statement in this engine.
SQLPreparedStatement = PreparedStatement


class SQLSession(Session):
    """A connection to the engine with an optional current database."""

    dialect = "sql"
    error = ProgrammingError
    result_class = SQLResult
    select_statement = ast.Select
    parse = staticmethod(parse)
    run_statement = staticmethod(execute)
    build_select_plan = staticmethod(build_select_plan)
    resolve_point_select = staticmethod(resolve_point_select)
    resolve_write = staticmethod(resolve_write)
    database = Session.namespace

    def check_written(self, tables: Iterable) -> None:
        if checks_enabled():
            # REPRO_CHECK=1 sanitizer mode: after a bulk write each table
            # written (clustered tree, row codec, secondary indexes) must
            # be sound.
            from repro.analysis.runner import runtime_check

            for table in tables:
                runtime_check(table, label=f"bulk write[{table.name}]")

    def __repr__(self) -> str:
        return f"SQLSession(database={self.database!r})"
