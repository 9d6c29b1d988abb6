"""Tokenizer and explicit-stack parser for a CAS-flavored input syntax.

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

`parse` reads the tokens in one loop (precedence climbing, Norvell,
"Parsing Expressions by Recursive Descent", 1999) and keeps each open
parenthesis's state on an explicit stack, so nesting depth is bounded by
memory, not by Python's recursion limit.
"""

from __future__ import annotations

import re
import sys
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


def tokenize(text: str) -> list[Token]:
    """Lex text into tokens; spans are character offsets into `text`."""
    # tuple.__new__ skips the NamedTuple's Python-level __new__.
    new = tuple.__new__
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
        append(new(Token, (kind, tok, m.span())))
    append(new(Token, (END, "", (len(text), len(text)))))
    return tokens


def _bad_token(text: str, m: re.Match) -> SourceError:
    bad, (start, end) = m.group(), m.span()
    if bad == "\\":
        return SourceError(
            "malformed escape: expected \\[Name]", (start, min(start + 2, len(text))), "lex"
        )
    if bad[0] == "\\":
        if bad[-1] == "]":
            return SourceError(f"unknown escape name {bad}", (start, end), "lex")
        return SourceError("malformed escape: missing ']'", (start, end), "lex")
    if bad in (".", ".."):
        return SourceError("unexpected '.'", (start, start + 1), "lex")
    if "." in bad:
        return SourceError("malformed number: more than one decimal point", (start, end), "lex")
    if bad in "[]":
        return SourceError(
            "square brackets are reserved; function application is not supported",
            (start, end),
            "lex",
        )
    return SourceError(f"unsupported character {bad!r}", (start, end), "lex")


def _too_long(span: Span) -> SourceError:
    # Only Python's int/str digit limit rejects [0-9.] text.
    return SourceError(
        f"number is too long: Python converts at most {sys.get_int_max_str_digits()} digits",
        span,
        "parse",
    )


def _decimal(text: str, span: Span) -> Expr:
    # Each side is converted alone, so the digit limit applies per side.
    whole, _, frac = text.partition(".")
    scale = 10 ** len(frac)
    try:
        num = int(whole or "0") * scale + int(frac or "0")
    except ValueError:
        raise _too_long(span) from None
    return RationalLit(num, scale, span) if num % scale else IntegerLit(num // scale, span)


def parse(input_text: str) -> Expr:
    """Parse text into an expression tree.

    Raises SourceError (kind "lex" or "parse") with a character span on any
    malformed input, including empty input. The parser keeps its state on
    an explicit stack, so nesting depth is bounded by memory alone.
    """
    tokens = tokenize(input_text)
    if tokens[0].kind == END:
        raise SourceError("empty expression", (0, 0), "parse")
    # One loop over the tokens. Each open parenthesis pushes the state of
    # the enclosing one: the sum's terms, the pending binary '-' of the
    # current term, the product's factors, whether a '/' is pending, the
    # unary-minus starts and the '^' bases of the current factor.
    stack: list[tuple] = []
    terms: list[Expr] = []
    neg: int | None = None
    factors: list[Expr] = []
    div = False
    minuses: list[int] = []
    bases: list[Expr] = []
    pos = 0
    while True:
        # An operand: unary minuses (not in a '^' exponent), then a primary.
        kind, text, span = tokens[pos]
        pos += 1
        if kind == IDENTIFIER:
            operand = SymbolRef(text, span)
        elif kind == INTEGER:
            try:
                operand = IntegerLit(int(text), span)
            except ValueError:
                raise _too_long(span) from None
        elif kind == DECIMAL:
            operand = _decimal(text, span)
        elif kind == LPAREN:
            stack.append((terms, neg, factors, div, minuses, bases, span))
            terms, neg, factors, div, minuses, bases = [], None, [], False, [], []
            continue
        elif kind == MINUS and not bases:
            minuses.append(span[0])
            continue
        elif kind == END:
            raise SourceError("unexpected end of input", span, "parse")
        else:
            raise SourceError(f"expected an expression, found {text!r}", span, "parse")

        # Close everything the operand completes, up to the next operand.
        while True:
            kind, text, span = tokens[pos]
            if kind == CARET:
                bases.append(operand)
                pos += 1
                break
            while bases:
                base = bases.pop()
                operand = Power(base, operand, (base.span[0], operand.span[1]))
            while minuses:
                operand = negate(operand, (minuses.pop(), operand.span[1]))
            if div:
                lhs = make_product(factors, (factors[0].span[0], factors[-1].span[1]))
                factors = [Quotient(lhs, operand, (lhs.span[0], operand.span[1]))]
                div = False
            else:
                factors.append(operand)
            if kind == STAR or kind == SLASH:
                div = kind == SLASH
                pos += 1
                break
            if kind in _PRIMARY_START:
                break  # juxtaposition: a '*' with a power operand
            term = make_product(factors, (factors[0].span[0], factors[-1].span[1]))
            factors = []
            if neg is not None:
                term = negate(term, (neg, term.span[1]))
                neg = None
            terms.append(term)
            if kind == PLUS or kind == MINUS:
                if kind == MINUS:
                    neg = span[0]
                pos += 1
                break
            operand = make_sum(terms, (terms[0].span[0], terms[-1].span[1]))
            if not stack:
                if kind != END:
                    raise SourceError(f"unexpected {text!r} after the expression", span, "parse")
                return operand
            if kind != RPAREN:
                opened = stack[-1][6]
                raise SourceError("missing ')' for the parenthesis opened here", opened, "parse")
            pos += 1
            terms, neg, factors, div, minuses, bases, _ = stack.pop()


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
