"""SQL tokeniser (MySQL-flavoured: backtick identifiers, # comments).

The SQL token regex and string-quoting rule; the scanning loop is the
shared :func:`repro.query.scan`.
"""

from __future__ import annotations

import re
from typing import List

from repro.query import Token, scan
from repro.sqldb.errors import SQLSyntaxError

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<COMMENT>--[^\n]*|\#[^\n]*|/\*.*?\*/)
  | (?P<STRING>'(?:[^'\\]|\\.|'')*'|"(?:[^"\\]|\\.)*")
  | (?P<NUMBER>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<QUOTED_IDENT>`[^`]+`)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP><=|>=|<>|!=|[(),.=<>*?;])
    """,
    re.VERBOSE | re.DOTALL,
)


def tokenize(text: str) -> List[Token]:
    return scan(text, _TOKEN_RE, SQLSyntaxError, "SQL")


def unquote_string(text: str) -> str:
    quote = text[0]
    body = text[1:-1]
    if quote == "'":
        body = body.replace("''", "'")
    return body.replace("\\'", "'").replace('\\"', '"').replace("\\\\", "\\")
