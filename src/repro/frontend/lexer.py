"""Lexer for SCL (Soft-Computing Language), the repo's small C-like language.

SCL is the source language the 13 benchmark kernels are written in — the
stand-in for the C sources the paper compiles with LLVM.  The lexer produces a
flat token stream with line/column positions for error reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

KEYWORDS = frozenset(
    {
        "int", "float", "void",
        "if", "else", "while", "for", "return", "break", "continue",
        "input", "output", "const",
    }
)

#: multi-character operators, longest first so maximal munch works
MULTI_OPS = (
    "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "++", "--",
)

SINGLE_OPS = "+-*/%&|^~!<>=(){}[];,?:"


class LexError(Exception):
    """Raised on malformed input, with source position."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    """One lexical token.

    ``kind`` is one of: ``'int_lit'``, ``'float_lit'``, ``'ident'``,
    ``'keyword'``, ``'op'``, ``'eof'``.  ``text`` is the exact source
    spelling; literals also carry their parsed ``value``.
    """

    kind: str
    text: str
    line: int
    col: int
    value: object = None

    def is_op(self, text: str) -> bool:
        return self.kind == "op" and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind == "keyword" and self.text == text

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


def tokenize(source: str) -> List[Token]:
    """Tokenize SCL source; raises :class:`LexError` on bad input."""
    tokens: List[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def advance(count: int) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]

        # whitespace
        if ch in " \t\r\n":
            advance(1)
            continue

        # comments: // line and /* block */
        if ch == "/" and i + 1 < n:
            if source[i + 1] == "/":
                while i < n and source[i] != "\n":
                    advance(1)
                continue
            if source[i + 1] == "*":
                start_line, start_col = line, col
                advance(2)
                while i + 1 < n and not (source[i] == "*" and source[i + 1] == "/"):
                    advance(1)
                if i + 1 >= n:
                    raise LexError("unterminated block comment", start_line, start_col)
                advance(2)
                continue

        # numbers (ints, hex ints, floats)
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            tokens.append(_lex_number(source, i, line, col))
            advance(len(tokens[-1].text))
            continue

        # identifiers / keywords
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, col))
            advance(j - i)
            continue

        # operators
        matched: Optional[str] = None
        for op in MULTI_OPS:
            if source.startswith(op, i):
                matched = op
                break
        if matched is None and ch in SINGLE_OPS:
            matched = ch
        if matched is not None:
            tokens.append(Token("op", matched, line, col))
            advance(len(matched))
            continue

        raise LexError(f"unexpected character {ch!r}", line, col)

    tokens.append(Token("eof", "", line, col))
    return tokens


def _lex_number(source: str, i: int, line: int, col: int) -> Token:
    n = len(source)
    j = i
    # hex literal
    if source.startswith(("0x", "0X"), i):
        j = i + 2
        while j < n and (source[j].isdigit() or source[j].lower() in "abcdef"):
            j += 1
        if j == i + 2:
            raise LexError("malformed hex literal", line, col)
        text = source[i:j]
        return Token("int_lit", text, line, col, value=int(text, 16))

    while j < n and source[j].isdigit():
        j += 1
    is_float = False
    if j < n and source[j] == ".":
        is_float = True
        j += 1
        while j < n and source[j].isdigit():
            j += 1
    if j < n and source[j] in "eE":
        k = j + 1
        if k < n and source[k] in "+-":
            k += 1
        if k < n and source[k].isdigit():
            is_float = True
            j = k
            while j < n and source[j].isdigit():
                j += 1
    text = source[i:j]
    if is_float:
        return Token("float_lit", text, line, col, value=float(text))
    return Token("int_lit", text, line, col, value=int(text))
