"""Immutable expression trees for symbolic arithmetic.

`Sum` and `Product` always hold at least two operands (singletons collapse
to the operand itself) and unary negation is spelled
``Product(IntegerLit(-1), operand)``; there is no dedicated negation node.
Nodes built by the text parser carry a source span (character offsets into
the input); spans never participate in equality, so structural comparison
works across differently sourced trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Iterable, Mapping, Union

Span = tuple[int, int]


def _span_field():
    return field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class IntegerLit:
    value: int
    span: Span | None = _span_field()


@dataclass(frozen=True)
class RationalLit:
    numerator: int
    denominator: int
    span: Span | None = _span_field()

    def __post_init__(self):
        # Kept in lowest terms with a positive denominator.
        if self.denominator == 0:
            raise ValueError("rational literal with zero denominator")
        g = gcd(self.numerator, self.denominator)
        num, den = self.numerator // g, self.denominator // g
        if den < 0:
            num, den = -num, -den
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)


@dataclass(frozen=True)
class SymbolRef:
    name: str
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Sum:
    terms: tuple[Expr, ...]
    span: Span | None = _span_field()

    def __post_init__(self):
        if len(self.terms) < 2:
            raise ValueError("Sum requires at least two terms")


@dataclass(frozen=True)
class Product:
    factors: tuple[Expr, ...]
    span: Span | None = _span_field()

    def __post_init__(self):
        if len(self.factors) < 2:
            raise ValueError("Product requires at least two factors")


@dataclass(frozen=True)
class Power:
    base: Expr
    exponent: Expr
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Quotient:
    numerator: Expr
    denominator: Expr
    span: Span | None = _span_field()


Expr = Union[IntegerLit, RationalLit, SymbolRef, Sum, Product, Power, Quotient]


def make_sum(terms: Iterable[Expr], span: Span | None = None) -> Expr:
    """Build a Sum, collapsing a singleton to its sole element."""
    items = tuple(terms)
    if not items:
        raise ValueError("empty sum")
    if len(items) == 1:
        return items[0]
    return Sum(items, span)


def make_product(factors: Iterable[Expr], span: Span | None = None) -> Expr:
    """Build a Product, collapsing a singleton to its sole element."""
    items = tuple(factors)
    if not items:
        raise ValueError("empty product")
    if len(items) == 1:
        return items[0]
    return Product(items, span)


def negate(e: Expr, span: Span | None = None) -> Expr:
    return Product((IntegerLit(-1), e), span)


def symbols_of(e: Expr) -> set[str]:
    """All symbol names occurring anywhere in the expression."""
    out: set[str] = set()
    stack = [e]
    # Exact-type dispatch, the most frequent node types first.
    while stack:
        node = stack.pop()
        t = type(node)
        if t is SymbolRef:
            out.add(node.name)
        elif t is Product:
            stack.extend(node.factors)
        elif t is Power:
            stack.append(node.base)
            stack.append(node.exponent)
        elif t is Sum:
            stack.extend(node.terms)
        elif t is Quotient:
            stack.append(node.numerator)
            stack.append(node.denominator)
    return out


def substitute(e: Expr, rules: Mapping[str, Expr]) -> Expr:
    """Replace symbols by mapped expressions, simultaneously, in one pass.

    Rule outputs are never re-rewritten, so ``{x: y, y: x}`` swaps the two
    symbols. Subtrees that contain no rule key are returned as-is, which
    makes substitution with an empty map the identity (same object), and
    rebuilt nodes keep their spans. An explicit stack reads any depth.
    """
    if not rules:
        return e
    # Pre-order, operands pushed left to right: read backwards, every node
    # comes after its operands' results, which end `done` in operand order.
    order = []
    stack = [e]
    while stack:
        node = stack.pop()
        order.append(node)
        t = type(node)
        if t is Product:
            stack.extend(node.factors)
        elif t is Power:
            stack.append(node.base)
            stack.append(node.exponent)
        elif t is Sum:
            stack.extend(node.terms)
        elif t is Quotient:
            stack.append(node.numerator)
            stack.append(node.denominator)
    done: list[Expr] = []
    for node in reversed(order):
        t = type(node)
        if t is SymbolRef:
            done.append(rules.get(node.name, node))
        elif t is Product or t is Sum:
            old = node.factors if t is Product else node.terms
            new = tuple(done[-len(old) :])
            del done[-len(old) :]
            same = all(a is b for a, b in zip(new, old))
            done.append(node if same else t(new, node.span))
        elif t is Power or t is Quotient:
            second, first = done.pop(), done.pop()
            old = (node.base, node.exponent) if t is Power else (node.numerator, node.denominator)
            same = first is old[0] and second is old[1]
            done.append(node if same else t(first, second, node.span))
        else:
            done.append(node)
    return done[0]
