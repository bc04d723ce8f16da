"""Bulk prepared SQL inserts must match per-row inserts byte-wise.

Twin databases receive the same rows through per-row
``execute_prepared`` (the generic executor) and through
``SQLSession.execute_many``, which compiles the INSERT's column template
once and streams the bound rows into the table's bulk write loop; the
redo log, binlog, clustered B-tree and secondary indexes must end up
identical.
"""

import pytest

from repro.sqldb.engine import SQLEngine
from repro.sqldb.errors import IntegrityError

_DDL = """
CREATE TABLE IF NOT EXISTS readings (
  id INT PRIMARY KEY,
  station VARCHAR(32),
  level INT
)
"""

_INSERT = "INSERT INTO readings (id, station, level) VALUES (?, ?, ?)"

_ROWS = [(1, "north", 10), (2, "south", -3), (3, "north", 7), (4, "east", 99)]


def _fresh(with_index=False):
    engine = SQLEngine()
    session = engine.connect()
    session.execute("CREATE DATABASE IF NOT EXISTS db")
    session.execute("USE db")
    session.execute(_DDL)
    if with_index:
        session.execute("CREATE INDEX idx_station ON readings (station)")
    return engine, session


def _state(engine):
    database = engine.database("db")
    table = database.table("readings")
    return {
        "redo": bytes(database._redo_log),
        "binlog": bytes(database._binlog),
        "clustered": list(table._clustered.items()),
        "secondary": {
            name: list(tree.items()) for name, tree in table._secondary.items()
        },
        "n_rows": table._n_rows,
    }


def _execute_many(session, text, rows):
    return session.execute_many(session.prepare(text), rows)


@pytest.mark.parametrize("with_index", [False, True])
def test_compiled_batch_matches_per_row_bytes(with_index):
    classic_engine, classic = _fresh(with_index)
    prepared = classic.prepare(_INSERT)
    for row in _ROWS:
        classic.execute_prepared(prepared, row)

    compiled_engine, compiled_session = _fresh(with_index)
    assert _execute_many(compiled_session, _INSERT, _ROWS) == len(_ROWS)

    assert _state(compiled_engine) == _state(classic_engine)


def test_compiled_single_execute_matches_literal_insert():
    classic_engine, classic = _fresh()
    classic.execute("INSERT INTO readings (id, station, level) VALUES (7, 'w', 5)")
    compiled_engine, compiled_session = _fresh()
    _execute_many(compiled_session, _INSERT, [(7, "w", 5)])
    assert _state(compiled_engine) == _state(classic_engine)


def test_compiled_insert_with_constants():
    classic_engine, classic = _fresh()
    classic.execute("INSERT INTO readings (id, station, level) VALUES (1, 'fix', 3)")
    compiled_engine, compiled_session = _fresh()
    _execute_many(
        compiled_session,
        "INSERT INTO readings (id, station, level) VALUES (?, 'fix', 3)",
        [(1,)],
    )
    assert _state(compiled_engine) == _state(classic_engine)


def test_rows_visible_through_sql_after_compiled_batch():
    engine, session = _fresh()
    _execute_many(session, _INSERT, _ROWS)
    rows = sorted(
        (r["id"], r["station"], r["level"])
        for r in session.execute("SELECT * FROM readings")
    )
    assert rows == sorted(_ROWS)


def test_duplicate_primary_key_raises():
    engine, session = _fresh()
    with pytest.raises(IntegrityError):
        _execute_many(session, _INSERT, [(1, "a", 1), (1, "b", 2)])
    # The first row landed before the duplicate was detected, exactly as
    # two sequential single-row inserts would have behaved.
    rows = list(session.execute("SELECT * FROM readings"))
    assert len(rows) == 1 and rows[0]["station"] == "a"


def test_compile_rejects_non_insert():
    # Only a single-row INSERT binds through a template; an UPDATE runs
    # row by row through the generic executor and writes what per-row
    # execute_prepared writes.
    update = "UPDATE readings SET level = ? WHERE id = ?"
    classic_engine, classic = _fresh()
    _execute_many(classic, _INSERT, _ROWS)
    prepared = classic.prepare(update)
    for row in [(11, 1), (12, 2)]:
        classic.execute_prepared(prepared, row)
    compiled_engine, compiled_session = _fresh()
    _execute_many(compiled_session, _INSERT, _ROWS)
    assert _execute_many(compiled_session, update, [(11, 1), (12, 2)]) == 2
    assert _state(compiled_engine) == _state(classic_engine)
