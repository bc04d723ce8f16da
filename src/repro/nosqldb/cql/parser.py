"""Recursive-descent parser for the CQL subset.

The CQL productions on the shared :class:`repro.query.Parser` core.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.nosqldb.cql import ast
from repro.nosqldb.cql.lexer import tokenize, unquote_string
from repro.nosqldb.errors import CQLSyntaxError
from repro.query import Parser


def parse(text: str) -> ast.Statement:
    """Parse one CQL statement (a trailing ``;`` is allowed)."""
    return _Parser(text).parse_statement()


class _Parser(Parser):
    error = CQLSyntaxError
    tokenize = staticmethod(tokenize)
    unquote = staticmethod(unquote_string)

    def _statement(self) -> ast.Statement:
        if self._accept_keyword("BEGIN"):
            return self._batch()
        if self._accept_keyword("CREATE"):
            return self._create()
        if self._accept_keyword("INSERT"):
            return self._insert()
        if self._accept_keyword("SELECT"):
            return self._select()
        if self._accept_keyword("UPDATE"):
            return self._update()
        if self._accept_keyword("DELETE"):
            return self._delete()
        if self._accept_keyword("TRUNCATE"):
            return ast.Truncate(self._table_ref())
        if self._accept_keyword("DROP"):
            return self._drop()
        if self._accept_keyword("USE"):
            return ast.Use(self._identifier())
        raise self._error("unknown statement")

    def _batch(self) -> ast.Batch:
        """``BEGIN BATCH`` followed by ;-separated mutations, ``APPLY BATCH``."""
        self._expect_keyword("BATCH")
        statements: List[ast.Statement] = []
        while True:
            if self._accept_keyword("APPLY"):
                self._expect_keyword("BATCH")
                break
            if self._accept_keyword("INSERT"):
                statements.append(self._insert())
            elif self._accept_keyword("UPDATE"):
                statements.append(self._update())
            elif self._accept_keyword("DELETE"):
                statements.append(self._delete())
            else:
                raise self._error("batches may contain INSERT, UPDATE or DELETE")
            self._accept_op(";")
        if not statements:
            raise self._error("empty batch")
        return ast.Batch(statements)

    # -- DDL -----------------------------------------------------------------
    def _create(self) -> ast.Statement:
        if self._accept_keyword("KEYSPACE"):
            if_not_exists = self._if_not_exists()
            name = self._identifier()
            durable = True
            if self._accept_keyword("WITH"):
                self._expect_keyword("DURABLE_WRITES")
                self._expect_op("=")
                durable = self._boolean()
            return ast.CreateKeyspace(name, if_not_exists, durable)
        if self._accept_keyword("TABLE") or self._accept_keyword("COLUMNFAMILY"):
            return self._create_table()
        if self._accept_keyword("INDEX"):
            return self._create_index()
        raise self._error("expected KEYSPACE, TABLE or INDEX")

    def _create_table(self) -> ast.CreateTable:
        if_not_exists = self._if_not_exists()
        ref = self._table_ref()
        self._expect_op("(")
        columns: List[Tuple[str, str]] = []
        primary_key: Optional[str] = None
        while True:
            if self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                self._expect_op("(")
                primary_key = self._identifier()
                self._expect_op(")")
            else:
                column = self._identifier()
                type_text = self._type_text()
                if self._accept_keyword("PRIMARY"):
                    self._expect_keyword("KEY")
                    primary_key = column
                columns.append((column, type_text))
            if self._accept_op(","):
                continue
            break
        self._expect_op(")")
        compression = True
        if self._accept_keyword("WITH"):
            self._expect_keyword("COMPRESSION")
            self._expect_op("=")
            compression = self._boolean()
        if primary_key is None:
            raise self._error("CREATE TABLE needs a PRIMARY KEY")
        return ast.CreateTable(ref, columns, primary_key, if_not_exists, compression)

    def _type_text(self) -> str:
        base = self._identifier()
        if self._accept_op("<"):
            inner = self._identifier()
            self._expect_op(">")
            return f"{base}<{inner}>"
        return base

    def _create_index(self) -> ast.CreateIndex:
        if_not_exists = self._if_not_exists()
        name: Optional[str] = None
        if not self._accept_keyword("ON"):
            name = self._identifier()
            self._expect_keyword("ON")
        ref = self._table_ref()
        self._expect_op("(")
        column = self._identifier()
        self._expect_op(")")
        return ast.CreateIndex(name, ref, column, if_not_exists)

    def _drop(self) -> ast.Statement:
        if self._accept_keyword("TABLE"):
            return ast.DropTable(self._table_ref())
        if self._accept_keyword("KEYSPACE"):
            return ast.DropKeyspace(self._identifier())
        raise self._error("expected TABLE or KEYSPACE")

    # -- DML -----------------------------------------------------------------
    def _table_ref(self) -> ast.TableRef:
        first = self._identifier()
        if self._accept_op("."):
            return ast.TableRef(first, self._identifier())
        return ast.TableRef(None, first)

    def _insert(self) -> ast.Insert:
        self._expect_keyword("INTO")
        ref = self._table_ref()
        self._expect_op("(")
        columns = [self._identifier()]
        while self._accept_op(","):
            columns.append(self._identifier())
        self._expect_op(")")
        self._expect_keyword("VALUES")
        values = self._value_list()
        if len(columns) != len(values):
            raise self._error(f"{len(columns)} columns but {len(values)} values")
        return ast.Insert(ref, columns, values)

    def _select(self) -> ast.Select:
        count = False
        columns: List[str] = []
        if self._accept_op("*"):
            pass
        elif self._accept_keyword("COUNT"):
            self._expect_op("(")
            self._expect_op("*")
            self._expect_op(")")
            count = True
        else:
            columns.append(self._identifier())
            while self._accept_op(","):
                columns.append(self._identifier())
        self._expect_keyword("FROM")
        ref = self._table_ref()
        where = self._where_clause()
        order_by: Optional[str] = None
        descending = False
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by = self._identifier()
            if self._accept_keyword("DESC"):
                descending = True
            else:
                self._accept_keyword("ASC")
        limit = self._limit()
        allow_filtering = False
        if self._accept_keyword("ALLOW"):
            self._expect_keyword("FILTERING")
            allow_filtering = True
        return ast.Select(
            ref, columns, where, limit, allow_filtering, count,
            order_by=order_by, descending=descending,
        )

    def _update(self) -> ast.Update:
        ref = self._table_ref()
        self._expect_keyword("SET")
        assignments = [self._assignment()]
        while self._accept_op(","):
            assignments.append(self._assignment())
        where = self._where_clause()
        if not where:
            raise self._error("UPDATE requires a WHERE clause")
        return ast.Update(ref, assignments, where)

    def _delete(self) -> ast.Delete:
        self._expect_keyword("FROM")
        ref = self._table_ref()
        where = self._where_clause()
        if not where:
            raise self._error("DELETE requires a WHERE clause")
        return ast.Delete(ref, where)

    def _condition(self) -> ast.Condition:
        column = self._identifier()
        if self._accept_keyword("IN"):
            return ast.Condition(column, "IN", self._value_list())
        for op in ("<=", ">=", "=", "<", ">"):
            if self._accept_op(op):
                return ast.Condition(column, op, self._value())
        raise self._error("expected a comparison operator")

    # -- literals --------------------------------------------------------------
    def _boolean(self) -> bool:
        if self._accept_keyword("TRUE"):
            return True
        if self._accept_keyword("FALSE"):
            return False
        raise self._error("expected TRUE or FALSE")

    def _value(self):
        """A literal, a ``?`` marker, or a ``{...}`` set literal."""
        if self._accept_op("{"):
            items = []
            if not self._accept_op("}"):
                items.append(self._value())
                while self._accept_op(","):
                    items.append(self._value())
                self._expect_op("}")
            return ast.SetLiteral(items)
        return super()._value()
