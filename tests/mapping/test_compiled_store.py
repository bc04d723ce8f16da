"""Bulk-path stores must be indistinguishable from per-row stores.

For every one of the paper's four mappers: store the same cube into
twin fresh engines, once through the session's bulk ``execute_many``
(what ``store()`` runs) and once with every bulk write replayed row by
row through ``execute_prepared`` (the generic executor), then compare
the visible database state row-for-row, the probed sizes, and the
reloaded cube's transformation records (which encode the complete DAG,
so equality here means a byte-identical round trip).
"""

import math

import pytest

from repro.core.schema import CubeSchema
from repro.dwarf.builder import build_cube
from repro.mapping.base import transform_cube
from repro.mapping.mysql_dwarf import MySQLDwarfMapper
from repro.mapping.mysql_min import MySQLMinMapper
from repro.mapping.nosql_dwarf import NoSQLDwarfMapper
from repro.mapping.nosql_min import NoSQLMinMapper
from repro.nosqldb.engine import NoSQLEngine
from repro.sqldb.engine import SQLEngine

MAPPERS = {
    "MySQL-DWARF": (MySQLDwarfMapper, SQLEngine),
    "MySQL-Min": (MySQLMinMapper, SQLEngine),
    "NoSQL-DWARF": (NoSQLDwarfMapper, NoSQLEngine),
    "NoSQL-Min": (NoSQLMinMapper, NoSQLEngine),
}


def _cube():
    schema = CubeSchema("compiled", ["region", "kind", "hour"])
    rows = []
    for i in range(60):
        rows.append((f"r{i % 4}", f"k{i % 3}", i % 6, i - 30))
    return build_cube(rows, schema)


def _fresh(name):
    mapper_cls, engine_cls = MAPPERS[name]
    mapper = mapper_cls(engine_cls())
    mapper.install()
    return mapper


def _per_row(mapper):
    """Make ``mapper``'s bulk writes run one execute_prepared per row."""
    session = mapper.session

    def execute_many(prepared, rows):
        count = 0
        for row in rows:
            session.execute_prepared(prepared, row)
            count += 1
        return count

    session.execute_many = execute_many
    return mapper


def _visible_rows(mapper):
    """Every stored row of every mapper table, in a canonical order."""
    if isinstance(mapper, (NoSQLDwarfMapper, NoSQLMinMapper)):
        container = mapper.engine.keyspace(mapper.keyspace_name)
    else:
        container = mapper.engine.database(mapper.database_name)
    tables = container.tables
    if callable(tables):
        tables = tables()
    state = {}
    for table in tables:
        rows = mapper.session.execute(f"SELECT * FROM {table.name}")
        state[table.name] = sorted(
            (tuple(sorted(r.items(), key=lambda kv: kv[0])) for r in rows),
            key=repr,
        )
    return state


@pytest.mark.parametrize("name", sorted(MAPPERS))
def test_compiled_store_matches_legacy_store(name):
    cube = _cube()
    compiled_mapper = _fresh(name)
    legacy_mapper = _per_row(_fresh(name))

    compiled_id = compiled_mapper.store(cube)
    legacy_id = legacy_mapper.store(cube)
    assert compiled_id == legacy_id

    assert _visible_rows(compiled_mapper) == _visible_rows(legacy_mapper)

    compiled_info = compiled_mapper.info(compiled_id)
    legacy_info = legacy_mapper.info(legacy_id)
    assert compiled_info == legacy_info
    assert compiled_info.size_as_bytes is not None
    assert compiled_info.size_as_bytes > 0
    assert compiled_info.size_as_mb == math.floor(
        compiled_info.size_as_bytes / (1024 * 1024)
    )


@pytest.mark.parametrize("name", sorted(MAPPERS))
def test_compiled_store_roundtrip_is_byte_identical(name):
    cube = _cube()
    reference = transform_cube(cube)
    mapper = _fresh(name)
    schema_id = mapper.store(cube)
    reloaded = mapper.load(schema_id)
    records = transform_cube(reloaded)
    assert records.nodes == reference.nodes
    assert records.cells == reference.cells
    assert reloaded.total() == cube.total()


@pytest.mark.parametrize("name", sorted(MAPPERS))
def test_second_store_gets_fresh_ids(name):
    cube = _cube()
    mapper = _fresh(name)
    first = mapper.store(cube)
    second = mapper.store(cube)
    assert second == first + 1
    first_records = transform_cube(mapper.load(first))
    second_records = transform_cube(mapper.load(second))
    assert len(first_records.cells) == len(second_records.cells)
