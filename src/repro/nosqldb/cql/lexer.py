"""CQL tokeniser.

The CQL token regex and string-quoting rule; the scanning loop is the
shared :func:`repro.query.scan`.  Keywords are recognised
case-insensitively at the parser level; the lexer only distinguishes
identifiers, literals and punctuation.
"""

from __future__ import annotations

import re
from typing import List

from repro.nosqldb.errors import CQLSyntaxError
from repro.query import Token, scan

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<COMMENT>--[^\n]*|//[^\n]*)
  | (?P<STRING>'(?:[^']|'')*')
  | (?P<NUMBER>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP><=|>=|!=|[(),.=<>*?{};\[\]:])
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> List[Token]:
    """Scan ``text`` into tokens, ending with a single END token."""
    return scan(text, _TOKEN_RE, CQLSyntaxError, "CQL")


def unquote_string(text: str) -> str:
    """Strip quotes and collapse doubled single quotes."""
    return text[1:-1].replace("''", "'")
