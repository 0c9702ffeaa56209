"""SQL lexer.

Produces a flat list of :class:`Token`. Identifiers and keywords are folded
to lower case (SQL case-insensitivity); double-quoted identifiers preserve
case. String literals use single quotes with ``''`` escaping. Line comments
(``--``) and block comments (``/* */``) are skipped.

:func:`skeleton` is the pre-parse pass the plan cache keys on: one regular
expression over the text, no tokens.
"""

from __future__ import annotations

import enum
import re
from typing import List, NamedTuple, Optional, Tuple

from ..errors import LexError

KEYWORDS = {
    "select", "from", "where", "group", "by", "having", "order", "limit",
    "offset", "as", "and", "or", "not", "in", "is", "null", "like", "between",
    "case", "when", "then", "else", "end", "cast", "distinct", "all",
    "union", "join", "inner", "left", "right", "full", "outer", "semi",
    "anti", "on", "with", "grouping", "sets", "rollup", "cube", "over",
    "partition", "rows", "range", "unbounded", "preceding", "following",
    "current", "row", "within", "true", "false", "asc", "desc", "nulls",
    "first", "last", "exists", "date", "filter", "explain", "analyze",
}


class TokenType(enum.Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    SYMBOL = "symbol"
    EOF = "eof"


class Token(NamedTuple):
    type: TokenType
    value: str
    line: int
    column: int

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in names

    def is_symbol(self, *symbols: str) -> bool:
        return self.type is TokenType.SYMBOL and self.value in symbols


_TWO_CHAR_SYMBOLS = {"<=", ">=", "<>", "!=", "||"}
_ONE_CHAR_SYMBOLS = set("()+-*/%,.<>=")


def tokenize(text: str) -> List[Token]:
    """Lex ``text`` into tokens, terminated by an EOF token."""
    tokens: List[Token] = []
    i = 0
    line = 1
    line_start = 0
    n = len(text)

    def column(pos: int) -> int:
        return pos - line_start + 1

    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == "-":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            end = text.find("*/", i + 2)
            if end < 0:
                raise LexError("unterminated block comment", line, column(i))
            for j in range(i, end):
                if text[j] == "\n":
                    line += 1
                    line_start = j + 1
            i = end + 2
            continue
        if ch == "'":
            start = i
            i += 1
            parts: List[str] = []
            while True:
                if i >= n:
                    raise LexError("unterminated string literal", line, column(start))
                if text[i] == "'":
                    if i + 1 < n and text[i + 1] == "'":
                        parts.append("'")
                        i += 2
                        continue
                    i += 1
                    break
                parts.append(text[i])
                i += 1
            tokens.append(Token(TokenType.STRING, "".join(parts), line, column(start)))
            continue
        if ch == '"':
            start = i
            i += 1
            begin = i
            while i < n and text[i] != '"':
                i += 1
            if i >= n:
                raise LexError("unterminated quoted identifier", line, column(start))
            tokens.append(Token(TokenType.IDENT, text[begin:i], line, column(start)))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            seen_dot = False
            seen_exp = False
            while i < n:
                c = text[i]
                if c.isdigit():
                    i += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    i += 1
                elif c in "eE" and not seen_exp and i + 1 < n and (
                    text[i + 1].isdigit() or text[i + 1] in "+-"
                ):
                    seen_exp = True
                    i += 2 if text[i + 1] in "+-" else 1
                else:
                    break
            value = text[start:i]
            kind = TokenType.FLOAT if (seen_dot or seen_exp) else TokenType.INTEGER
            tokens.append(Token(kind, value, line, column(start)))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i].lower()
            kind = TokenType.KEYWORD if word in KEYWORDS else TokenType.IDENT
            tokens.append(Token(kind, word, line, column(start)))
            continue
        two = text[i : i + 2]
        if two in _TWO_CHAR_SYMBOLS:
            tokens.append(Token(TokenType.SYMBOL, "<>" if two == "!=" else two, line, column(i)))
            i += 2
            continue
        if ch in _ONE_CHAR_SYMBOLS:
            tokens.append(Token(TokenType.SYMBOL, ch, line, column(i)))
            i += 1
            continue
        raise LexError(f"unexpected character {ch!r}", line, column(i))
    tokens.append(Token(TokenType.EOF, "", line, column(i)))
    return tokens


#: What the skeleton pass rewrites: a string literal, a quoted identifier, a
#: number that does not continue an identifier (``l_2x`` keeps its digit), a
#: run of comments with the whitespace around them, and any whitespace but
#: one plain space. Everything else is copied.
_SKELETON_RE = re.compile(
    r"""'[^']*(?:''[^']*)*'|"[^"]*"|(?<![\w.])(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"""
    r"""|(?:\s*(?:--[^\n]*|/\*.*?\*/))+\s*|\s{2,}|[^\S ]""",
    re.S | re.A,
)


def skeleton(text: str) -> Optional[Tuple[str, Tuple[str, ...]]]:
    """``(skeleton, slots)``: the statement with whitespace collapsed,
    comments dropped and case folded outside quoted identifiers, each
    numeric or quoted-string literal replaced by a typed marker (``?i``
    integer, ``?f`` float, ``?s`` string) — and the *slot vector*, the
    literals' texts in order (strings with their quotes and ``''``
    escapes, numbers case-folded). Statements that differ only in literal
    values share a skeleton; :func:`fill` puts the texts back.

    ``None`` when the text holds a ``?`` outside a string literal: it
    could not be told from a marker (and is a lexer error unless inside a
    quoted identifier)."""
    slots: List[str] = []

    def replace(match: "re.Match[str]") -> str:
        token = match.group()
        first = token[0]
        if first == "'":
            slots.append(token)
            return "?s"
        if first == '"':
            return token
        if first.isdigit() or first == ".":
            slots.append(token.lower())
            return "?i" if token.isdigit() else "?f"
        return " "

    out = _SKELETON_RE.sub(replace, text).strip()
    if out.count("?") != len(slots):
        return None
    if '"' in out:
        parts = out.split('"')
        out = '"'.join(p if i % 2 else p.lower() for i, p in enumerate(parts))
    else:
        out = out.lower()
    return out, tuple(slots)


_MARKER_RE = re.compile(r'"[^"]*"|\?[ifs]')


def fill(skeleton_text: str, slots: Tuple[str, ...]) -> str:
    """The normalized statement: ``skeleton_text`` with its markers
    replaced by ``slots`` (inverse of :func:`skeleton` up to whitespace,
    case and comments)."""
    texts = iter(slots)
    return _MARKER_RE.sub(
        lambda m: next(texts) if m.group()[0] == "?" else m.group(), skeleton_text
    )
