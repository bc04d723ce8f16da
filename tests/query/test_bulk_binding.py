"""The shared bulk paths bind parameters like per-row execution does.

Every bulk entry point of both dialects binds each parameter row
against the statement's bind markers; a row too short for them raises
the dialect's request error with the same message ``execute_prepared``
gives, never a raw ``IndexError``.
"""

import pytest

from repro.nosqldb.engine import NoSQLEngine
from repro.nosqldb.errors import InvalidRequest
from repro.sqldb.engine import SQLEngine
from repro.sqldb.errors import ProgrammingError

_INSERT = "INSERT INTO t (id, v) VALUES (?, ?)"
_SELECT = "SELECT v FROM t WHERE id = ?"


def _cql():
    session = NoSQLEngine().connect()
    session.execute("CREATE KEYSPACE ks")
    session.execute("USE ks")
    session.execute("CREATE TABLE t (id int PRIMARY KEY, v int)")
    return session


def _sql():
    session = SQLEngine().connect()
    session.execute("CREATE DATABASE db")
    session.execute("USE db")
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    return session


def _execute_many(session, rows):
    return session.execute_many(session.prepare(_INSERT), rows)


def _execute_batch(session, rows):
    prepared = session.prepare(_INSERT)
    return session.execute_batch((prepared, row) for row in rows)


def _select_many(session, rows):
    return session.select_many(session.prepare(_SELECT), rows)


# (connect, request error, bulk entry point, its statement, rows whose
# second one is one parameter short)
ENTRY_POINTS = {
    "cql-execute_many": (_cql, InvalidRequest, _execute_many, _INSERT, [(1, 2), (3,)]),
    "cql-execute_batch": (_cql, InvalidRequest, _execute_batch, _INSERT, [(1, 2), (3,)]),
    "cql-select_many": (_cql, InvalidRequest, _select_many, _SELECT, [(1,), ()]),
    "sql-execute_many": (_sql, ProgrammingError, _execute_many, _INSERT, [(1, 2), (3,)]),
    "sql-select_many": (_sql, ProgrammingError, _select_many, _SELECT, [(1,), ()]),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_short_parameter_row_raises_request_error(entry):
    connect, error, bulk, text, rows = ENTRY_POINTS[entry]
    session = connect()
    short = rows[1]
    with pytest.raises(error) as per_row:
        session.execute_prepared(session.prepare(text), short)
    assert "bind marker" in str(per_row.value)
    with pytest.raises(error) as batched:
        bulk(session, rows)
    assert str(batched.value) == str(per_row.value)
