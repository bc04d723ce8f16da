"""The dialect-neutral client session both engines expose.

:class:`Session` owns everything a CQL or SQL connection does that is
not grammar: the plan cache, one-off and prepared execution, EXPLAIN
ANALYZE, the fused multi-get behind :meth:`Session.select_many` and the
bulk write path behind :meth:`Session.execute_many`.  A dialect
subclass supplies hooks only — its parser, generic executor, SELECT
planner, point-select and write-target resolvers, result class, query
log label, namespace name and ``REPRO_CHECK`` hook.

The module also holds the binding helpers both executors compile their
ASTs with (:func:`compile_value`, :func:`table_guard`) and the one
parameter binder every prepared bulk INSERT runs through
(:func:`bind_rows`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence

from repro.query.analyze import AnalyzedStatement, analyze_plan, counter_totals, record_query
from repro.query.parser import Explain, Placeholder
from repro.query.plan import MultiGet, Plan
from repro.query.planner import UNPLANNABLE, PlanCache
from repro.query.result import ResultSet
from repro.telemetry import get_query_log, wall_clock

_QUERY_LOG = get_query_log()


def missing_parameter(error: type, index: int, params: Sequence) -> Exception:
    """The error for a bind marker with no parameter to bind."""
    return error(
        f"statement has bind marker ?{index} but only "
        f"{len(params)} parameters were supplied"
    )


def compile_value(value, error: type) -> Callable[[Sequence], object]:
    """A ``resolve(params)`` callable for one literal or placeholder;
    a short parameter row raises ``error``."""
    if isinstance(value, Placeholder):
        index = value.index

        def resolve(params: Sequence):
            if index >= len(params):
                raise missing_parameter(error, index, params)
            return params[index]

        return resolve
    return lambda params: value


def table_guard(lookup: Callable, namespace: str, table_name: str, table) -> Callable[[], bool]:
    """A plan-cache guard: same table object, same index signature.

    ``lookup`` maps a namespace name to its keyspace or database.
    DROP/recreate swaps the object; CREATE INDEX changes the signature —
    either way the cached plan is stale and must be rebuilt.
    """
    indexed = frozenset(table.indexed_columns)

    def check() -> bool:
        return (
            lookup(namespace).table(table_name) is table
            and frozenset(table.indexed_columns) == indexed
        )

    return check


def bind_slot(value):
    """``(is_bind, index_or_constant)`` for one literal or placeholder."""
    if isinstance(value, Placeholder):
        return True, value.index
    return False, value


def bind_rows(slots: Sequence, rows: Iterable[Sequence], error: type) -> Iterator[Dict]:
    """Bind a column template against parameter rows.

    ``slots`` are ``(target, is_bind, index_or_constant)`` in statement
    column order; each parameter row yields one ``{target: value}`` dict
    with None values left out.  A short row raises ``error`` exactly as
    per-row execution does.
    """
    params: Sequence = ()
    try:
        for params in rows:
            row = {}
            for target, is_bind, value in slots:
                resolved = params[value] if is_bind else value
                if resolved is not None:
                    row[target] = resolved
            yield row
    except IndexError:
        short = [value for _, is_bind, value in slots if is_bind and value >= len(params)]
        if not short:
            raise
        raise missing_parameter(error, short[0], params) from None


class WriteTarget(NamedTuple):
    """Where a prepared DML statement writes.

    For a plain INSERT, ``slots`` is its column template (see
    :func:`bind_rows`) and ``write`` the table's bulk loop, fed one
    bound dict per row; both are None for statements the generic
    executor must run row by row.
    """

    table: object
    slots: Optional[tuple] = None
    write: Optional[Callable[[Iterable[Dict]], int]] = None


class FusedPointSelect:
    """select_many's server-side shape: one :class:`MultiGet` resolves
    every bound key, key-aligned so each parameter row maps to its own
    result.  Cached in the session plan cache under the statement text;
    ``guards`` revalidate the resolved table on every hit."""

    __slots__ = ("node", "key_slot", "columns", "limit", "guards")

    def __init__(self, table, table_name: str, key_desc: str, key_value,
                 columns: tuple, limit: Optional[int], guard: Callable[[], bool],
                 cache_probe: Optional[Callable[[], int]] = None) -> None:
        self.node = MultiGet(
            table,
            keys=lambda keys: keys,
            table_name=table_name,
            key_desc=key_desc,
            cache_probe=cache_probe,
            keep_missing=True,
        )
        self.key_slot = bind_slot(key_value)
        self.columns = columns
        self.limit = limit
        self.guards = (guard,)

    def fetch(self, keys: Sequence) -> List[Optional[Dict[str, object]]]:
        """Key-aligned rows (None per missing key) for ``keys``."""
        return self.node.run(keys)


class PreparedStatement:
    """A parsed statement with ``?`` bind markers, reusable across executions."""

    __slots__ = ("statement", "text")

    def __init__(self, text: str, statement) -> None:
        self.text = text
        self.statement = statement

    def __repr__(self) -> str:
        return f"PreparedStatement({self.text!r})"


class Session:
    """A connection to an engine with an optional current namespace.

    SELECTs are compiled into :mod:`repro.query` plans and memoised in
    the session's :class:`~repro.query.PlanCache`, keyed on
    ``(current namespace, statement text)`` — a warm statement skips the
    parser and the planner entirely and goes straight to the compiled
    operator tree.  Cached plans carry guards that revalidate the
    resolved tables (identity + index signature) on every hit, so DDL
    invalidates them instead of silently replaying stale access paths.
    """

    # ``namespace`` is a slot so a dialect can alias it under its own
    # name (``keyspace = Session.namespace``) at no cost per access.
    __slots__ = ("engine", "namespace", "plan_cache", "__dict__")

    # -- dialect hooks ----------------------------------------------------
    dialect = ""                  # query-log label
    error: type = Exception       # raised for a bad request
    result_class = ResultSet
    select_statement = None       # the AST class that plans and caches
    # Static hooks: parse(text) -> AST; run_statement(engine, statement,
    # params, namespace) -> (result, new namespace or None), the generic
    # executor; build_select_plan(engine, select, namespace) -> Plan;
    # resolve_point_select(engine, statement, namespace) ->
    # FusedPointSelect or None; resolve_write(engine, statement,
    # namespace) -> WriteTarget or None.
    parse = run_statement = build_select_plan = None
    resolve_point_select = resolve_write = None

    def check_written(self, tables: Iterable) -> None:
        """The ``REPRO_CHECK=1`` hook run on the tables a bulk write touched."""

    # ----------------------------------------------------------------------
    def __init__(self, engine, namespace: Optional[str] = None) -> None:
        self.engine = engine
        self.namespace = namespace
        self.plan_cache = PlanCache()

    def prepare(self, text: str) -> PreparedStatement:
        return PreparedStatement(text, self.parse(text))

    def execute(self, text: str, params: Sequence = ()):
        """Parse and run one statement."""
        if _QUERY_LOG.enabled:
            return self._execute_logged(text, params)
        plan = self.plan_cache.get((self.namespace, text))
        if isinstance(plan, Plan):
            return self.result_class(plan.run(params))
        if isinstance(plan, AnalyzedStatement):
            return self._run_analyzed(plan, params)
        return self._dispatch(self.parse(text), text, params)

    def execute_prepared(self, prepared: PreparedStatement, params: Sequence = ()):
        if _QUERY_LOG.enabled:
            return self._execute_logged(prepared.text, params)
        plan = self.plan_cache.get((self.namespace, prepared.text))
        if isinstance(plan, Plan):
            return self.result_class(plan.run(params))
        if isinstance(plan, AnalyzedStatement):
            return self._run_analyzed(plan, params)
        return self._dispatch(prepared.statement, prepared.text, params)

    def _execute_logged(self, text: str, params: Sequence):
        """The execute body with query-history recording.

        A separate method so the REPRO_QUERY_LOG=0 hot path pays exactly
        one attribute check and allocates nothing extra."""
        t0 = wall_clock()
        key = (self.namespace, text)
        plan = self.plan_cache.get(key)
        if isinstance(plan, Plan):
            before = counter_totals(plan)
            result = self.result_class(plan.run(params))
            record_query(_QUERY_LOG, text, self.dialect, wall_clock() - t0,
                         len(result), plan=plan, before=before)
            return result
        if isinstance(plan, AnalyzedStatement):
            result = self._run_analyzed(plan, params)
            record_query(_QUERY_LOG, text, self.dialect, wall_clock() - t0,
                         len(result), analyzed=result.analyzed)
            return result
        result = self._dispatch(self.parse(text), text, params)
        # A cold SELECT (or EXPLAIN ANALYZE) was just compiled and cached;
        # its fresh counters are exactly this execution's actuals.  peek()
        # keeps the read out of the plan-cache hit/miss metrics.
        record_query(_QUERY_LOG, text, self.dialect, wall_clock() - t0,
                     len(result) if result is not None else 0,
                     plan=self.plan_cache.peek(key),
                     analyzed=getattr(result, "analyzed", None))
        return result

    def _run_analyzed(self, entry: AnalyzedStatement, params: Sequence):
        analyzed = analyze_plan(entry.plan, params)
        result = self.result_class(analyzed.report)
        result.analyzed = analyzed
        return result

    def _dispatch(self, statement, text: str, params: Sequence):
        """Plan-and-cache SELECTs (and analyzed EXPLAINs); everything
        else runs the generic executor."""
        if type(statement) is self.select_statement:
            plan = self.build_select_plan(self.engine, statement, self.namespace)
            self.plan_cache.put((self.namespace, text), plan)
            return self.result_class(plan.run(params))
        if type(statement) is Explain and statement.analyze:
            plan = self.build_select_plan(self.engine, statement.select, self.namespace)
            entry = AnalyzedStatement(plan)
            self.plan_cache.put((self.namespace, text), entry)
            return self._run_analyzed(entry, params)
        result, namespace = self.run_statement(self.engine, statement, params, self.namespace)
        if namespace is not None:
            self.namespace = namespace
        return result

    # -- bulk paths -------------------------------------------------------
    def execute_many(self, prepared: PreparedStatement, rows: Iterable[Sequence]) -> int:
        """Run one prepared DML statement per parameter row; returns the count.

        A plain INSERT binds its column template once and streams the
        rows through the table's bulk write loop (see :meth:`_write`).
        """
        t0 = wall_clock() if _QUERY_LOG.enabled else 0.0
        count, table = self._write(prepared, rows)
        self.check_written(() if table is None else (table,))
        if _QUERY_LOG.enabled:
            # One record per batch: rows = parameter rows executed.
            record_query(_QUERY_LOG, prepared.text, self.dialect,
                         wall_clock() - t0, count)
        return count

    def _write(self, prepared: PreparedStatement, rows: Iterable[Sequence]):
        """Run ``prepared`` over every parameter row in ``rows``.

        Returns ``(count, table written or None)``.  Statements other
        than a plain INSERT run through the generic executor per row.
        """
        target = self.resolve_write(self.engine, prepared.statement, self.namespace)
        if target is None or target.slots is None:
            count = 0
            for params in rows:
                self.run_statement(self.engine, prepared.statement, params, self.namespace)
                count += 1
            return count, None if target is None else target.table
        return target.write(bind_rows(target.slots, rows, self.error)), target.table

    def select_many(self, statement, rows: Iterable[Sequence]) -> list:
        """Run one SELECT shape over many parameter rows at once.

        ``statement`` is a :class:`PreparedStatement` or statement text
        (parsed once).  The point-select shape
        ``SELECT ... WHERE <pk> = ?`` binds all keys up front and
        resolves them with one batched ``get_many`` call, so each
        storage block is decoded at most once; every other shape falls
        back to per-row execution.
        """
        if isinstance(statement, str):
            statement = self.prepare(statement)
        rows_list = list(rows)
        fused = self._fused_plan_for(statement)
        if fused is UNPLANNABLE:
            # Per-row fallback logs per statement through execute_prepared.
            return [self.execute_prepared(statement, params) for params in rows_list]
        t0 = wall_clock() if _QUERY_LOG.enabled else 0.0
        is_bind, value = fused.key_slot
        columns, limit = fused.columns, fused.limit
        try:
            keys = [params[value] if is_bind else value for params in rows_list]
        except IndexError:
            short = next(params for params in rows_list if len(params) <= value)
            raise missing_parameter(self.error, value, short) from None
        results = []
        for row in fused.fetch(keys):
            found = [row] if row is not None else []
            if limit is not None:
                found = found[:limit]
            if columns:
                found = [{name: r[name] for name in columns} for r in found]
            results.append(self.result_class(found))
        if _QUERY_LOG.enabled:
            # One record for the fused multi-get batch.
            record_query(_QUERY_LOG, statement.text, self.dialect, wall_clock() - t0,
                         sum(len(r) for r in results))
        return results

    def _fused_plan_for(self, prepared: PreparedStatement):
        """Cached fused multi-get plan (UNPLANNABLE = not a point select)."""
        key = (self.namespace, "select_many", prepared.text)
        fused = self.plan_cache.get(key)
        if fused is None:
            fused = self.resolve_point_select(self.engine, prepared.statement, self.namespace)
            if fused is None:
                fused = UNPLANNABLE
            self.plan_cache.put(key, fused)
        return fused
