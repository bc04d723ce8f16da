"""The recursive-descent core both query dialects parse with.

One token model and tokenizer driver, the ``?`` bind-marker and
``EXPLAIN`` nodes, and a parser base holding everything the SQL and CQL
grammars share: token plumbing, the statement entry point (including
``EXPLAIN [ANALYZE] SELECT``), ``IF NOT EXISTS``, ``SET`` assignments,
the ``WHERE`` conjunction and literal values.  A dialect supplies its
token regex, its string-quoting rule, its syntax-error class and its
productions (``_statement``, ``_select``, ``_condition``).
"""

from __future__ import annotations

from typing import List, NamedTuple, Pattern, Tuple

from repro.query.errors import syntax_error_message


class Token(NamedTuple):
    kind: str      # IDENT | NUMBER | STRING | OP | END
    text: str
    position: int


def scan(text: str, token_re: Pattern, error: type, dialect: str) -> List[Token]:
    """Scan ``text`` with a dialect's ``token_re`` into tokens ending in END.

    ``WS`` and ``COMMENT`` matches are dropped; a ``QUOTED_IDENT`` match
    becomes an IDENT token without its quote characters.  Input the
    regex cannot match raises ``error`` naming the ``dialect``.
    """
    tokens: List[Token] = []
    position = 0
    length = len(text)
    while position < length:
        match = token_re.match(text, position)
        if match is None:
            snippet = text[position:position + 20]
            raise error(
                syntax_error_message(f"cannot tokenise {dialect}", text, position, snippet)
            )
        kind = match.lastgroup
        value = match.group()
        position = match.end()
        if kind in ("WS", "COMMENT"):
            continue
        if kind == "QUOTED_IDENT":
            tokens.append(Token("IDENT", value[1:-1], match.start()))
        else:
            tokens.append(Token(kind, value, match.start()))
    tokens.append(Token("END", "", length))
    return tokens


class Placeholder:
    """A positional ``?`` bind marker (0-based)."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __repr__(self) -> str:
        return f"?{self.index}"


class Explain:
    """``EXPLAIN [ANALYZE] SELECT ...``: report the chosen plan, one row
    per operator.

    With ``analyze`` set the statement is also *executed* and every
    operator row carries actual counters (see
    :mod:`repro.query.analyze`)."""

    __slots__ = ("select", "analyze")

    def __init__(self, select, analyze: bool = False) -> None:
        self.select = select
        self.analyze = analyze


class Parser:
    """Recursive-descent base: one instance parses one statement.

    Subclasses set :attr:`error` (their syntax-error class), the
    ``tokenize`` and ``unquote`` static hooks, and implement
    ``_statement``, ``_select`` and ``_condition``.
    """

    error: type = SyntaxError

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = self.tokenize(text)
        self.position = 0
        self._n_placeholders = 0

    # -- token plumbing ---------------------------------------------------
    def _peek(self) -> Token:
        return self.tokens[self.position]

    def _advance(self) -> Token:
        token = self.tokens[self.position]
        if token.kind != "END":
            self.position += 1
        return token

    def _error(self, message: str):
        token = self._peek()
        return self.error(
            syntax_error_message(message, self.text, token.position, token.text)
        )

    def _accept_keyword(self, word: str) -> bool:
        token = self._peek()
        if token.kind == "IDENT" and token.text.upper() == word:
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            raise self._error(f"expected {word}")

    def _accept_op(self, op: str) -> bool:
        token = self._peek()
        if token.kind == "OP" and token.text == op:
            self._advance()
            return True
        return False

    def _expect_op(self, op: str) -> None:
        if not self._accept_op(op):
            raise self._error(f"expected {op!r}")

    def _identifier(self) -> str:
        token = self._peek()
        if token.kind != "IDENT":
            raise self._error("expected an identifier")
        self._advance()
        return token.text

    # -- entry point --------------------------------------------------------
    def parse_statement(self):
        if self._accept_keyword("EXPLAIN"):
            analyze = self._accept_keyword("ANALYZE")
            self._expect_keyword("SELECT")
            statement = Explain(self._select(), analyze=analyze)
        else:
            statement = self._statement()
        self._accept_op(";")
        if self._peek().kind != "END":
            raise self._error("trailing input after statement")
        return statement

    # -- shared productions -------------------------------------------------
    def _if_not_exists(self) -> bool:
        if self._accept_keyword("IF"):
            self._expect_keyword("NOT")
            self._expect_keyword("EXISTS")
            return True
        return False

    def _assignment(self) -> Tuple[str, object]:
        column = self._identifier()
        self._expect_op("=")
        return column, self._value()

    def _where_clause(self) -> list:
        conditions = []
        if not self._accept_keyword("WHERE"):
            return conditions
        conditions.append(self._condition())
        while self._accept_keyword("AND"):
            conditions.append(self._condition())
        return conditions

    def _value_list(self) -> list:
        """``( value, ... )``"""
        self._expect_op("(")
        values = [self._value()]
        while self._accept_op(","):
            values.append(self._value())
        self._expect_op(")")
        return values

    def _limit(self):
        """``LIMIT n`` when present, else None."""
        if not self._accept_keyword("LIMIT"):
            return None
        token = self._peek()
        if token.kind != "NUMBER":
            raise self._error("expected a LIMIT count")
        self._advance()
        return int(token.text)

    def _value(self):
        token = self._peek()
        if token.kind == "OP" and token.text == "?":
            self._advance()
            placeholder = Placeholder(self._n_placeholders)
            self._n_placeholders += 1
            return placeholder
        if token.kind == "NUMBER":
            self._advance()
            text = token.text
            if "." in text or "e" in text or "E" in text:
                return float(text)
            return int(text)
        if token.kind == "STRING":
            self._advance()
            return self.unquote(token.text)
        if token.kind == "IDENT":
            upper = token.text.upper()
            if upper == "TRUE":
                self._advance()
                return True
            if upper == "FALSE":
                self._advance()
                return False
            if upper == "NULL":
                self._advance()
                return None
        raise self._error("expected a literal value")
