"""Recursive-descent parser for the SQL subset.

The SQL productions on the shared :class:`repro.query.Parser` core.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.query import Parser
from repro.sqldb.errors import SQLSyntaxError
from repro.sqldb.sql import ast
from repro.sqldb.sql.lexer import tokenize, unquote_string

_RESERVED = {
    "SELECT", "FROM", "WHERE", "INSERT", "INTO", "VALUES", "UPDATE", "SET",
    "DELETE", "CREATE", "DROP", "TABLE", "DATABASE", "INDEX", "PRIMARY",
    "KEY", "NOT", "NULL", "AND", "JOIN", "INNER", "ON", "AS", "ORDER",
    "BY", "LIMIT", "USE", "TRUNCATE", "IN", "IS", "COUNT", "ASC", "DESC",
    "GROUP", "SUM", "MIN", "MAX", "AVG",
}


def parse(text: str) -> ast.Statement:
    """Parse one SQL statement (a trailing ``;`` is allowed)."""
    return _Parser(text).parse_statement()


class _Parser(Parser):
    error = SQLSyntaxError
    tokenize = staticmethod(tokenize)
    unquote = staticmethod(unquote_string)

    def _statement(self) -> ast.Statement:
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
            self._accept_keyword("TABLE")
            return ast.Truncate(self._table_source())
        if self._accept_keyword("DROP"):
            return self._drop()
        if self._accept_keyword("USE"):
            return ast.Use(self._identifier())
        raise self._error("unknown statement")

    # -- DDL ----------------------------------------------------------------------
    def _create(self) -> ast.Statement:
        if self._accept_keyword("DATABASE") or self._accept_keyword("SCHEMA"):
            if_not_exists = self._if_not_exists()
            return ast.CreateDatabase(self._identifier(), if_not_exists)
        if self._accept_keyword("TABLE"):
            return self._create_table()
        if self._accept_keyword("INDEX"):
            name = self._identifier()
            self._expect_keyword("ON")
            source = self._table_source(allow_alias=False)
            self._expect_op("(")
            column = self._identifier()
            self._expect_op(")")
            return ast.CreateIndex(name, source, column)
        raise self._error("expected DATABASE, TABLE or INDEX")

    def _create_table(self) -> ast.CreateTable:
        if_not_exists = self._if_not_exists()
        source = self._table_source(allow_alias=False)
        self._expect_op("(")
        columns: List[Tuple[str, str, bool]] = []
        primary_key: List[str] = []
        while True:
            if self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                self._expect_op("(")
                primary_key.append(self._identifier())
                while self._accept_op(","):
                    primary_key.append(self._identifier())
                self._expect_op(")")
            else:
                name = self._identifier()
                type_text = self._type_text()
                not_null = False
                while True:
                    if self._accept_keyword("NOT"):
                        self._expect_keyword("NULL")
                        not_null = True
                        continue
                    if self._accept_keyword("PRIMARY"):
                        self._expect_keyword("KEY")
                        primary_key.append(name)
                        continue
                    break
                columns.append((name, type_text, not_null))
            if self._accept_op(","):
                continue
            break
        self._expect_op(")")
        # tolerate MySQL table options: ENGINE=INNODB etc.
        while self._peek().kind == "IDENT":
            self._identifier()
            if self._accept_op("="):
                self._advance()
        if not primary_key:
            raise self._error("CREATE TABLE needs a PRIMARY KEY")
        return ast.CreateTable(source, columns, primary_key, if_not_exists)

    def _type_text(self) -> str:
        base = self._identifier()
        if self._accept_op("("):
            token = self._peek()
            if token.kind != "NUMBER":
                raise self._error("expected a type width")
            self._advance()
            self._expect_op(")")
            return f"{base}({token.text})"
        return base

    def _drop(self) -> ast.Statement:
        if self._accept_keyword("TABLE"):
            return ast.DropTable(self._table_source(allow_alias=False))
        if self._accept_keyword("DATABASE"):
            return ast.DropDatabase(self._identifier())
        raise self._error("expected TABLE or DATABASE")

    # -- sources ---------------------------------------------------------------------
    def _table_source(self, allow_alias: bool = True) -> ast.TableSource:
        first = self._identifier()
        database: Optional[str] = None
        table = first
        if self._accept_op("."):
            database = first
            table = self._identifier()
        alias: Optional[str] = None
        if allow_alias:
            if self._accept_keyword("AS"):
                alias = self._identifier()
            else:
                token = self._peek()
                if token.kind == "IDENT" and token.text.upper() not in _RESERVED:
                    alias = self._identifier()
        return ast.TableSource(database, table, alias)

    def _column_ref(self) -> ast.ColumnRef:
        first = self._identifier()
        if self._accept_op("."):
            return ast.ColumnRef(first, self._identifier())
        return ast.ColumnRef(None, first)

    # -- DML --------------------------------------------------------------------------
    def _insert(self) -> ast.Insert:
        self._expect_keyword("INTO")
        source = self._table_source(allow_alias=False)
        self._expect_op("(")
        columns = [self._identifier()]
        while self._accept_op(","):
            columns.append(self._identifier())
        self._expect_op(")")
        self._expect_keyword("VALUES")
        rows: List[List] = [self._value_tuple(len(columns))]
        while self._accept_op(","):
            rows.append(self._value_tuple(len(columns)))
        return ast.Insert(source, columns, rows)

    def _value_tuple(self, expected: int) -> List:
        values = self._value_list()
        if len(values) != expected:
            raise self._error(f"expected {expected} values, got {len(values)}")
        return values

    def _select(self) -> ast.Select:
        count = False
        columns: List[ast.ColumnRef] = []
        aggregates: List[ast.Aggregate] = []
        if self._accept_op("*"):
            pass
        else:
            self._select_item(columns, aggregates)
            while self._accept_op(","):
                self._select_item(columns, aggregates)
            if (
                len(aggregates) == 1
                and not columns
                and aggregates[0].func == "count"
                and aggregates[0].column is None
            ):
                # plain SELECT COUNT(*) keeps its dedicated fast path
                count = True
                aggregates = []
        self._expect_keyword("FROM")
        source = self._table_source()
        joins: List[ast.Join] = []
        while True:
            if self._accept_keyword("INNER"):
                self._expect_keyword("JOIN")
            elif not self._accept_keyword("JOIN"):
                break
            join_source = self._table_source()
            self._expect_keyword("ON")
            left = self._column_ref()
            self._expect_op("=")
            right = self._column_ref()
            joins.append(ast.Join(join_source, left, right))
        where = self._where_clause()
        group_by: List[ast.ColumnRef] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._column_ref())
            while self._accept_op(","):
                group_by.append(self._column_ref())
        order_by: Optional[ast.ColumnRef] = None
        descending = False
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by = self._column_ref()
            if self._accept_keyword("DESC"):
                descending = True
            else:
                self._accept_keyword("ASC")
        limit = self._limit()
        if group_by and not aggregates:
            raise self._error("GROUP BY requires at least one aggregate select item")
        return ast.Select(
            source, joins, columns, where, order_by, descending, limit, count,
            aggregates=aggregates, group_by=group_by,
        )

    _AGGREGATE_FUNCS = ("COUNT", "SUM", "MIN", "MAX", "AVG")

    def _select_item(self, columns: List[ast.ColumnRef], aggregates: List["ast.Aggregate"]) -> None:
        token = self._peek()
        if token.kind == "IDENT" and token.text.upper() in self._AGGREGATE_FUNCS:
            after = self.tokens[self.position + 1]
            if after.kind == "OP" and after.text == "(":
                func = token.text.lower()
                self._advance()
                self._expect_op("(")
                if self._accept_op("*"):
                    if func != "count":
                        raise self._error(f"{func.upper()}(*) is not valid")
                    column = None
                else:
                    column = self._column_ref()
                self._expect_op(")")
                aggregates.append(ast.Aggregate(func, column))
                return
        columns.append(self._column_ref())

    def _update(self) -> ast.Update:
        source = self._table_source(allow_alias=False)
        self._expect_keyword("SET")
        assignments = [self._assignment()]
        while self._accept_op(","):
            assignments.append(self._assignment())
        where = self._where_clause()
        return ast.Update(source, assignments, where)

    def _delete(self) -> ast.Delete:
        self._expect_keyword("FROM")
        source = self._table_source(allow_alias=False)
        return ast.Delete(source, self._where_clause())

    def _condition(self) -> ast.Condition:
        column = self._column_ref()
        if self._accept_keyword("IS"):
            if self._accept_keyword("NOT"):
                self._expect_keyword("NULL")
                return ast.Condition(column, "NOTNULL", None)
            self._expect_keyword("NULL")
            return ast.Condition(column, "ISNULL", None)
        if self._accept_keyword("IN"):
            return ast.Condition(column, "IN", self._value_list())
        for op in ("<=", ">=", "<>", "!=", "=", "<", ">"):
            if self._accept_op(op):
                normalised = "!=" if op == "<>" else op
                return ast.Condition(column, normalised, self._value())
        raise self._error("expected a comparison operator")
