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
Decimal literals are converted to exact rationals. Square brackets (and
any other punctuation) are rejected: function application is unsupported.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

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
from .greek import ESCAPE_TO_LETTER, is_greek_letter

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

_OPERATOR_KINDS = {
    "+": PLUS,
    "-": MINUS,
    "*": STAR,
    "/": SLASH,
    "^": CARET,
    "(": LPAREN,
    ")": RPAREN,
}

# Token kinds that can begin a primary; a completed operand followed by one
# of these is an implicit multiplication.
_PRIMARY_START = (INTEGER, DECIMAL, IDENTIFIER, LPAREN)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    span: Span


class SourceError(Exception):
    """Lex or parse failure, with the byte span of the offending input."""

    def __init__(self, message: str, span: Span, kind: str):
        super().__init__(message)
        self.message = message
        self.span = span
        self.kind = kind  # "lex" | "parse"


def _lex_error(message: str, span: Span) -> SourceError:
    return SourceError(message, span, "lex")


def _parse_error(message: str, span: Span) -> SourceError:
    return SourceError(message, span, "parse")


def _is_ident_tail(ch: str) -> bool:
    return ch.isascii() and (ch.isalnum() or ch == "_")


def tokenize(text: str) -> list[Token]:
    """Lex UTF-8 text into tokens; spans are byte offsets into the input."""
    n = len(text)
    boff = [0] * (n + 1)
    b = 0
    for i, ch in enumerate(text):
        boff[i] = b
        b += len(ch.encode("utf-8"))
    boff[n] = b

    tokens: list[Token] = []
    i = 0
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        start = i
        if ch.isascii() and ch.isalpha():
            i += 1
            while i < n and _is_ident_tail(text[i]):
                i += 1
            tokens.append(Token(IDENTIFIER, text[start:i], (boff[start], boff[i])))
        elif is_greek_letter(ch):
            i += 1
            while i < n and _is_ident_tail(text[i]):
                i += 1
            tokens.append(Token(IDENTIFIER, text[start:i], (boff[start], boff[i])))
        elif ch == "\\":
            i, name = _lex_escape(text, i, boff)
            while i < n and _is_ident_tail(text[i]):
                name += text[i]
                i += 1
            # Token text is the identifier the escape denotes; the span
            # still covers the escape's source slice.
            tokens.append(Token(IDENTIFIER, name, (boff[start], boff[i])))
        elif ch.isdigit() or ch == ".":
            i, kind = _lex_number(text, i, boff)
            tokens.append(Token(kind, text[start:i], (boff[start], boff[i])))
        elif ch in _OPERATOR_KINDS:
            i += 1
            tokens.append(Token(_OPERATOR_KINDS[ch], ch, (boff[start], boff[i])))
        elif ch in "[]":
            raise _lex_error(
                "square brackets are reserved; function application is not supported",
                (boff[i], boff[i + 1]),
            )
        else:
            raise _lex_error(
                f"unsupported character {ch!r}", (boff[i], boff[i + 1])
            )
    tokens.append(Token(END, "", (boff[n], boff[n])))
    return tokens


def _lex_escape(text: str, i: int, boff: list[int]) -> tuple[int, str]:
    n = len(text)
    start = i
    if i + 1 >= n or text[i + 1] != "[":
        raise _lex_error(
            "malformed escape: expected \\[Name]",
            (boff[start], boff[min(start + 2, n)]),
        )
    j = i + 2
    while j < n and text[j].isascii() and text[j].isalpha():
        j += 1
    if j >= n or text[j] != "]":
        raise _lex_error(
            "malformed escape: missing ']'", (boff[start], boff[j])
        )
    name = text[i + 2 : j]
    letter = ESCAPE_TO_LETTER.get(name)
    if letter is None:
        raise _lex_error(
            f"unknown escape name \\[{name}]", (boff[start], boff[j + 1])
        )
    return j + 1, letter


def _lex_number(text: str, i: int, boff: list[int]) -> tuple[int, str]:
    n = len(text)
    start = i
    while i < n and text[i].isdigit():
        i += 1
    kind = INTEGER
    if i < n and text[i] == ".":
        kind = DECIMAL
        i += 1
        while i < n and text[i].isdigit():
            i += 1
    if i == start + 1 and text[start] == ".":
        raise _lex_error("unexpected '.'", (boff[start], boff[i]))
    if i < n and text[i] == ".":
        raise _lex_error(
            "malformed number: more than one decimal point",
            (boff[start], boff[i + 1]),
        )
    return i, kind


def _fraction_from_decimal(text: str) -> Fraction:
    whole, _, frac = text.partition(".")
    digits = (whole or "0") + frac
    return Fraction(int(digits), 10 ** len(frac))


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
        if tok.kind == INTEGER:
            self.advance()
            return IntegerLit(int(tok.text), tok.span)
        if tok.kind == DECIMAL:
            self.advance()
            value = _fraction_from_decimal(tok.text)
            if value.denominator == 1:
                return IntegerLit(int(value), tok.span)
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

    Raises SourceError (kind "lex" or "parse") with a byte span on any
    malformed input, including empty input.
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
