"""Tokenizer and recursive-descent parser for a CAS-flavored input syntax.

Grammar, tightest binding first:

    power    :=  primary ('^' power)?          right-associative; the
                                               exponent slot requires a
                                               primary, so a^-2 is an error
    unary    :=  '-' unary | power
    product  :=  unary (('*' | '/') unary | juxtaposed-power)*
    sum      :=  product (('+' | '-') product)*
    primary  :=  integer | decimal | identifier | '(' sum ')'

Juxtaposition (``2 x``, ``2x``, ``c^4 (t-u)``) is implicit multiplication
and binds at the same precedence as ``*``. Identifiers are an ASCII letter
or a single Greek letter followed by ASCII letters/digits/underscores;
``\\[Beta]`` escapes lex to the same identifier as the Greek character.
Digits are ASCII ``0-9``; decimal literals are converted to exact
rationals. Square brackets (and any other punctuation) are rejected:
function application is unsupported.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import NamedTuple

from .expr import (
    Expr,
    IntegerLit,
    Power,
    Quotient,
    RationalLit,
    Span,
    SymbolRef,
    make_product,
    make_sum,
    negate,
)
from .greek import ESCAPE_TO_LETTER, LETTER_TO_NAME

INTEGER = "integer"
DECIMAL = "decimal"
IDENTIFIER = "identifier"
PLUS = "plus"
MINUS = "minus"
STAR = "star"
SLASH = "slash"
CARET = "caret"
LPAREN = "lparen"
RPAREN = "rparen"
END = "end"

# One token per match; each group is named after the token kind it lexes.
# A number followed by another '.' fails the number groups, and `bad` takes
# it and every other character no group accepts, except whitespace, which
# finditer skips because nothing matches there.
_TOKEN = re.compile(
    rf"(?P<{IDENTIFIER}>(?:[A-Za-z{''.join(LETTER_TO_NAME)}]"
    rf"|\\\[(?P<escape>{'|'.join(ESCAPE_TO_LETTER)})\])[A-Za-z0-9_]*)"
    rf"|(?P<{PLUS}>\+)|(?P<{MINUS}>-)|(?P<{STAR}>\*)|(?P<{SLASH}>/)|(?P<{CARET}>\^)"
    rf"|(?P<{LPAREN}>\()|(?P<{RPAREN}>\))"
    rf"|(?P<{INTEGER}>[0-9]+(?![.0-9]))"
    rf"|(?P<{DECIMAL}>(?:[0-9]+\.[0-9]*|\.[0-9]+)(?![.0-9]))"
    r"|(?P<bad>[0-9]*\.[0-9]*\.?|\\(?:\[[A-Za-z]*\]?)?|[^ \t\r\n])"
)

# Token kinds that can begin a primary; a completed operand followed by one
# of these is an implicit multiplication.
_PRIMARY_START = (INTEGER, DECIMAL, IDENTIFIER, LPAREN)


class Token(NamedTuple):
    kind: str
    text: str
    span: Span


class SourceError(Exception):
    """Lex or parse failure, with the character span of the offending input."""

    def __init__(self, message: str, span: Span, kind: str):
        super().__init__(message)
        self.message = message
        self.span = span
        self.kind = kind  # "lex" | "parse"


def _lex_error(message: str, span: Span) -> SourceError:
    return SourceError(message, span, "lex")


def _parse_error(message: str, span: Span) -> SourceError:
    return SourceError(message, span, "parse")


def tokenize(text: str) -> list[Token]:
    """Lex text into tokens; spans are character offsets into `text`."""
    tokens: list[Token] = []
    append = tokens.append
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise _bad_token(text, m)
        tok = m.group()
        if kind == IDENTIFIER and tok[0] == "\\":
            # Token text is the identifier the escape denotes; the span
            # still covers the escape's source slice.
            tok = ESCAPE_TO_LETTER[m["escape"]] + text[m.end("escape") + 1 : m.end()]
        append(Token(kind, tok, m.span()))
    append(Token(END, "", (len(text), len(text))))
    return tokens


def _bad_token(text: str, m: re.Match) -> SourceError:
    bad, (start, end) = m.group(), m.span()
    if bad == "\\":
        return _lex_error(
            "malformed escape: expected \\[Name]", (start, min(start + 2, len(text)))
        )
    if bad[0] == "\\":
        if bad[-1] == "]":
            return _lex_error(f"unknown escape name {bad}", (start, end))
        return _lex_error("malformed escape: missing ']'", (start, end))
    if bad in (".", ".."):
        return _lex_error("unexpected '.'", (start, start + 1))
    if "." in bad:
        return _lex_error("malformed number: more than one decimal point", (start, end))
    if bad in "[]":
        return _lex_error(
            "square brackets are reserved; function application is not supported",
            (start, end),
        )
    return _lex_error(f"unsupported character {bad!r}", (start, end))


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def sum(self) -> Expr:
        first = self.product()
        terms = [first]
        start = _start(first)
        while self.peek().kind in (PLUS, MINUS):
            op = self.advance()
            rhs = self.product()
            if op.kind == MINUS:
                rhs = negate(rhs, (op.span[0], _end(rhs)))
            terms.append(rhs)
        return make_sum(terms, (start, _end(terms[-1])))

    def product(self) -> Expr:
        factors = [self.unary()]
        start = _start(factors[0])
        while True:
            tok = self.peek()
            if tok.kind == STAR:
                self.advance()
                factors.append(self.unary())
            elif tok.kind == SLASH:
                self.advance()
                rhs = self.unary()
                lhs = make_product(factors, (start, _end(factors[-1])))
                factors = [Quotient(lhs, rhs, (start, _end(rhs)))]
            elif tok.kind in _PRIMARY_START:
                factors.append(self.power())
            else:
                break
        return make_product(factors, (start, _end(factors[-1])))

    def unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == MINUS:
            self.advance()
            operand = self.unary()
            return negate(operand, (tok.span[0], _end(operand)))
        return self.power()

    def power(self) -> Expr:
        base = self.primary()
        if self.peek().kind == CARET:
            self.advance()
            exponent = self.power()
            return Power(base, exponent, (_start(base), _end(exponent)))
        return base

    def primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == INTEGER or tok.kind == DECIMAL:
            self.advance()
            try:
                if tok.kind == INTEGER:
                    return IntegerLit(int(tok.text), tok.span)
                value = Fraction(tok.text)
            except ValueError:
                # Only Python's int/str digit limit rejects [0-9.] text.
                raise _parse_error(
                    "number is too long: Python converts at most "
                    f"{sys.get_int_max_str_digits()} digits",
                    tok.span,
                ) from None
            if value.denominator == 1:
                return IntegerLit(value.numerator, tok.span)
            return RationalLit(value.numerator, value.denominator, tok.span)
        if tok.kind == IDENTIFIER:
            self.advance()
            return SymbolRef(tok.text, tok.span)
        if tok.kind == LPAREN:
            lparen = self.advance()
            inner = self.sum()
            if self.peek().kind != RPAREN:
                raise _parse_error(
                    "missing ')' for the parenthesis opened here", lparen.span
                )
            self.advance()
            return inner
        if tok.kind == END:
            raise _parse_error("unexpected end of input", tok.span)
        raise _parse_error(
            f"expected an expression, found {tok.text!r}", tok.span
        )


def _start(e: Expr) -> int:
    return e.span[0] if e.span else 0


def _end(e: Expr) -> int:
    return e.span[1] if e.span else 0


def parse(input_text: str) -> Expr:
    """Parse text into an expression tree.

    Raises SourceError (kind "lex" or "parse") with a character span on any
    malformed input, including empty input. The parser recurses, so input
    nested deeper than Python's recursion limit (~200 parentheses) raises a
    bare RecursionError, as do `normalize`, `collect_main_var` and
    `substitute` on such a tree; only `cli.run` maps it to exit 3.
    """
    tokens = tokenize(input_text)
    parser = _Parser(tokens)
    if parser.peek().kind == END:
        raise _parse_error("empty expression", (0, 0))
    result = parser.sum()
    trailing = parser.peek()
    if trailing.kind != END:
        raise _parse_error(
            f"unexpected {trailing.text!r} after the expression", trailing.span
        )
    return result


def parse_identifier(text: str) -> str | None:
    """The identifier a string denotes, or None if it is not exactly one."""
    try:
        tokens = tokenize(text)
    except SourceError:
        return None
    if len(tokens) == 2 and tokens[0].kind == IDENTIFIER:
        return tokens[0].text
    return None


_ASCII_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


def is_ascii_identifier(text: str) -> bool:
    """True if `text` is an ASCII letter, then ASCII letters, digits or `_`."""
    return _ASCII_IDENT.match(text) is not None
