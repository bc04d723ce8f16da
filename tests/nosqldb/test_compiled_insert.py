"""Bulk prepared inserts must be byte-identical to per-row inserts.

``Session.execute_many`` and ``execute_batch`` compile a prepared
INSERT's column template once and stream the bound rows into the
column family's bulk write loop.  These tests drive the same rows
through per-row ``execute_prepared`` (the generic executor) and through
each bulk entry point on twin engines and compare the raw storage
state: encoded memtable rows, write clock, commit log records, and
secondary index answers.
"""

import pytest

from repro.nosqldb.engine import NoSQLEngine
from repro.nosqldb.errors import InvalidRequest

_DDL = """
CREATE TABLE IF NOT EXISTS readings (
  id int PRIMARY KEY,
  station text,
  level int,
  ok boolean
)
"""

_INSERT = "INSERT INTO readings (id, station, level, ok) VALUES (?, ?, ?, ?)"

_ROWS = [
    (1, "north", 10, True),
    (2, "south", -3, False),
    (3, "north", 7, True),
    (4, None, 0, False),  # null value is skipped, not stored
    (5, "east", 99, True),
]


def _fresh_session(with_index=False):
    engine = NoSQLEngine()
    session = engine.connect()
    session.execute("CREATE KEYSPACE IF NOT EXISTS ks")
    session.execute("USE ks")
    session.execute(_DDL)
    if with_index:
        session.execute("CREATE INDEX IF NOT EXISTS ON readings (station)")
    return engine, session


def _table(engine):
    return engine.keyspace("ks").table("readings")


def _storage_state(engine):
    table = _table(engine)
    return dict(table._memtable._rows), table._write_clock


def _execute_many(session, text, rows):
    return session.execute_many(session.prepare(text), rows)


def _execute_batch(session, text, rows):
    prepared = session.prepare(text)
    return session.execute_batch((prepared, row) for row in rows)


def _assert_bulk_matches_per_row(with_index, bulk):
    classic_engine, classic = _fresh_session(with_index)
    prepared = classic.prepare(_INSERT)
    for row in _ROWS:
        classic.execute_prepared(prepared, row)

    compiled_engine, compiled_session = _fresh_session(with_index)
    assert bulk(compiled_session, _INSERT, _ROWS) == len(_ROWS)

    classic_rows, classic_clock = _storage_state(classic_engine)
    compiled_rows, compiled_clock = _storage_state(compiled_engine)
    assert compiled_rows == classic_rows  # byte-for-byte encoded rows
    assert compiled_clock == classic_clock  # same timestamp sequence

    classic_log = list(classic_engine.keyspace("ks")._commit_log.records())
    compiled_log = list(compiled_engine.keyspace("ks")._commit_log.records())
    assert compiled_log == classic_log

    if with_index:
        for station in ("north", "south", "east"):
            assert sorted(_table(compiled_engine)._indexes["station"].lookup(station)) == \
                sorted(_table(classic_engine)._indexes["station"].lookup(station))


@pytest.mark.parametrize("with_index", [False, True])
def test_compiled_batch_matches_per_row_bytes(with_index):
    _assert_bulk_matches_per_row(with_index, _execute_many)


@pytest.mark.parametrize("with_index", [False, True])
def test_execute_batch_matches_per_row_bytes(with_index):
    _assert_bulk_matches_per_row(with_index, _execute_batch)


def test_compiled_single_execute_matches_insert():
    classic_engine, classic = _fresh_session()
    classic.execute(
        "INSERT INTO readings (id, station, level, ok) VALUES (9, 'w', 5, true)"
    )
    compiled_engine, compiled_session = _fresh_session()
    _execute_many(compiled_session, _INSERT, [(9, "w", 5, True)])
    assert _storage_state(compiled_engine) == _storage_state(classic_engine)


def test_compiled_insert_constant_values():
    # Mixed constants and binds in the compiled template.
    classic_engine, classic = _fresh_session()
    classic.execute("INSERT INTO readings (id, station, level) VALUES (1, 'fix', 3)")
    compiled_engine, compiled_session = _fresh_session()
    _execute_many(
        compiled_session,
        "INSERT INTO readings (id, station, level) VALUES (?, 'fix', 3)",
        [(1,)],
    )
    assert _storage_state(compiled_engine) == _storage_state(classic_engine)


def test_rows_visible_through_cql_after_compiled_batch():
    engine, session = _fresh_session()
    _execute_batch(session, _INSERT, _ROWS)
    rows = sorted(
        (r["id"], r["station"]) for r in session.execute("SELECT * FROM readings")
    )
    assert rows == [(1, "north"), (2, "south"), (3, "north"), (4, None), (5, "east")]


def test_compile_rejects_non_insert():
    # Only a plain INSERT binds through a template; an UPDATE runs row by
    # row through the generic executor and writes what per-row
    # execute_prepared writes.
    update = "UPDATE readings SET level = ? WHERE id = ?"
    classic_engine, classic = _fresh_session()
    _execute_many(classic, _INSERT, _ROWS)
    prepared = classic.prepare(update)
    for row in [(11, 1), (12, 2)]:
        classic.execute_prepared(prepared, row)
    compiled_engine, compiled_session = _fresh_session()
    _execute_many(compiled_session, _INSERT, _ROWS)
    assert _execute_many(compiled_session, update, [(11, 1), (12, 2)]) == 2
    assert _storage_state(compiled_engine) == _storage_state(classic_engine)


def test_compiled_null_key_rejected():
    _, session = _fresh_session()
    for bulk in (_execute_many, _execute_batch):
        with pytest.raises(InvalidRequest, match="misses primary key"):
            bulk(session, _INSERT, [(None, "x", 1, True)])
