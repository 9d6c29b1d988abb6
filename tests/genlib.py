"""Seeded random generators and independent oracles shared by the tests."""

from __future__ import annotations

import io
import sys
from fractions import Fraction
from itertools import chain
from math import gcd
from random import Random
from typing import Callable, Mapping, Union

from polybridge import normalize
from polybridge.cli import CliOptions, run
from polybridge.algebra import (
    MAX_DEGREE,
    RATFUNC_ZERO,
    AlgebraError,
    MainVarPoly,
    MultiPoly,
    NotPolynomialInVar,
    RatFunc,
    SymbolicExponent,
    ZeroDenominator,
    _canonical,
)
from polybridge.expr import (
    Expr,
    IntegerLit,
    Power,
    Product,
    Quotient,
    RationalLit,
    Span,
    Sum,
    SymbolRef,
    make_product,
    make_sum,
    negate,
    symbols_of,
)
from polybridge.parser import (
    _PRIMARY_START,
    CARET,
    DECIMAL,
    END,
    IDENTIFIER,
    INTEGER,
    LPAREN,
    MINUS,
    PLUS,
    RPAREN,
    SLASH,
    STAR,
    SourceError,
    Token,
    tokenize,
)

SYMBOL_POOL = ("a", "b", "c", "t", "u", "w")


def rand_coeff(rng: Random) -> int:
    c = 0
    while c == 0:
        c = rng.randint(-9, 9)
    return c


def rand_poly_terms(
    rng: Random, width: int, max_terms: int, max_exp: int
) -> dict[tuple[int, ...], int]:
    terms: dict[tuple[int, ...], int] = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(width))
        terms[mono] = rand_coeff(rng)
    return terms


def canonical_width(top: int) -> int:
    """The smallest of 8, 16, 32, ... bits that holds the exponent `top`."""
    bits = 8
    while top >> bits:
        bits *= 2
    return bits


def make_poly(
    symbols: tuple[str, ...], raw: Mapping[tuple[int, ...], int], bits: int | None = None
) -> MultiPoly:
    """The polynomial of `raw`'s nonzero terms, written on exponent tuples.

    Its keys hold one field of `bits` bits per exponent, the first most
    significant, by default the canonical width of its largest exponent,
    and iterate in descending order.
    """
    if bits is None:
        bits = canonical_width(max(chain.from_iterable(raw), default=0))
    packed = pack({mono: c for mono, c in raw.items() if c}, bits)
    return MultiPoly(symbols, dict(sorted(packed.items(), reverse=True)), bits)


def pack(terms: Mapping[tuple[int, ...], int], bits: int) -> dict[int, int]:
    """Packed keys of `bits`-bit fields, the first exponent most significant.

    Keys keep the order of `terms`, as packed dicts in `algebra` do.
    """
    packed = {}
    for mono, c in terms.items():
        key = 0
        for e in mono:
            key = key << bits | e
        packed[key] = c
    return packed


def unpack(p: MultiPoly) -> dict[tuple[int, ...], int]:
    """The terms of `p` on exponent tuples over `p.symbols`, in `p`'s order."""
    mask = (1 << p.bits) - 1
    shifts = [p.bits * i for i in reversed(range(len(p.symbols)))]
    return {tuple(key >> s & mask for s in shifts): c for key, c in p.terms.items()}


def make_ratfunc(num: MultiPoly, den: MultiPoly) -> RatFunc:
    """The reference canonicalizer, on exponent tuples over one symbol table.

    Column by column it subtracts the smallest exponent over both sides and
    drops the columns that are then zero in every term; it divides every
    coefficient by the content of the pair, signed so that the leading
    denominator coefficient is positive, and packs both sides at the
    canonical width of the pair. It shares no code with `algebra._canonical`,
    which must give the same value term for term and in the same order.
    """
    if not den.terms:
        raise ZeroDenominator("denominator is identically zero")
    if not num.terms:
        return RATFUNC_ZERO
    num_terms, den_terms = unpack(num), unpack(den)
    monos = [*num_terms, *den_terms]
    width = len(num.symbols)
    low = [min(m[i] for m in monos) for i in range(width)]
    used = [i for i in range(width) if any(m[i] != low[i] for m in monos)]
    content = gcd(*num_terms.values(), *den_terms.values())
    if den_terms[max(den_terms)] < 0:
        content = -content
    bits = canonical_width(max((m[i] - low[i] for m in monos for i in used), default=0))

    def side(terms: dict) -> MultiPoly:
        return make_poly(
            tuple(num.symbols[i] for i in used),
            {tuple(m[i] - low[i] for i in used): c // content for m, c in terms.items()},
            bits,
        )

    return RatFunc(side(num_terms), side(den_terms))


def ratfunc_equal(a: RatFunc, b: RatFunc) -> bool:
    """Exact equality of values by cross-multiplication: the semantic oracle.

    Canonical form does no multivariate GCD reduction, so `==` can tell equal
    values apart. The four sides are unpacked onto their merged, sorted
    symbol table and multiplied by `naive_product`, which shares no code
    with `algebra._mul`.
    """
    sides = (a.numerator, b.denominator, b.numerator, a.denominator)
    table = tuple(sorted(set().union(*(p.symbols for p in sides))))
    an, bd, bn, ad = (
        {tuple(dict(zip(p.symbols, m)).get(s, 0) for s in table): c for m, c in unpack(p).items()}
        for p in sides
    )
    return naive_product(an, bd) == naive_product(bn, ad)


def _monomial_text(symbols: tuple[str, ...], mono: tuple[int, ...]) -> list[str]:
    parts = []
    for name, e in zip(symbols, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return parts


def _term_text(symbols: tuple[str, ...], mono: tuple[int, ...], coeff: int) -> str:
    magnitude = abs(coeff)
    parts = _monomial_text(symbols, mono)
    if magnitude != 1 or not parts:
        parts.insert(0, str(magnitude))
    return "*".join(parts)


def _sum_text(symbols: tuple[str, ...], terms: dict) -> str:
    pieces = []
    for mono, coeff in terms.items():
        sign = "-" if coeff < 0 else ("+" if pieces else "")
        pieces.append(sign + _term_text(symbols, mono, coeff))
    return "".join(pieces)


def _monomial_gcd(monos) -> tuple[int, ...] | None:
    """The largest monomial dividing all of `monos`, or None if that is 1."""
    mins = None
    for mono in monos:
        mins = mono if mins is None else tuple(map(min, mins, mono))
        if not any(mins):
            return None
    return mins


def _div_monomial(terms: dict, g: tuple[int, ...]) -> dict:
    """Quotient by a monomial dividing every term; lex order is kept."""
    return {tuple([e - d for e, d in zip(m, g)]): c for m, c in terms.items()}


def _poly_text(symbols: tuple[str, ...], terms: dict) -> tuple[str, bool]:
    if not terms:
        return "0", False
    if len(terms) > 1:
        common = _monomial_gcd(reversed(terms))
        if common is not None:
            head = "*".join(_monomial_text(symbols, common))
            return f"{head}*({_sum_text(symbols, _div_monomial(terms, common))})", False
    return _sum_text(symbols, terms), len(terms) > 1


def _is_divisor_atom(terms: dict) -> bool:
    if len(terms) != 1:
        return False
    ((mono, coeff),) = terms.items()
    if not any(mono):
        return coeff > 0
    return coeff == 1 and sum(1 for e in mono if e) == 1


def reference_emit_expr(symbols: tuple[str, ...], num: dict, den: dict) -> str:
    """The exponent-tuple emitter that `emit_expr` replaced, kept as an oracle.

    `num` and `den` are a canonical value's sides as `unpack` gives them. It
    computes the common monomial on tuples, so `emit_expr`, which reads
    packed fields, must give the same text byte for byte.
    """
    num_text, num_is_sum = _poly_text(symbols, num)
    if den == {(0,) * len(symbols): 1}:
        return num_text
    if num_is_sum:
        num_text = f"({num_text})"
    den_text, _ = _poly_text(symbols, den)
    if not _is_divisor_atom(den):
        den_text = f"({den_text})"
    return f"{num_text}/{den_text}"


def rand_canonical_input(rng: Random) -> tuple[tuple[str, ...], dict, dict, int]:
    """Exponent-tuple sides for a canonicalizer, and a field width that holds them.

    0-4 symbols and a width of 1-16 bits. A column may be unused or shared by
    every term; the sides may carry an injected common monomial, non-unit
    content and a negative leading denominator coefficient; the numerator
    may be zero, and either side constant.
    """
    width = rng.randint(0, 4)
    symbols = tuple(sorted(rng.sample(SYMBOL_POOL, width)))
    bits = rng.randint(1, 16)
    top = (1 << bits) - 1
    common = tuple(rng.choice((0, 0, rng.randint(0, top))) for _ in range(width))
    spread = [rng.choice((0, top - g, rng.randint(0, top - g))) for g in common]
    scale = rng.choice((1, 1, -1, 2, 6, -15, 2**70))

    def side(max_terms: int) -> dict:
        if rng.random() < 0.2:
            return {common: rand_coeff(rng) * scale}
        return {
            tuple(g + rng.randint(0, s) for g, s in zip(common, spread)): rand_coeff(rng) * scale
            for _ in range(rng.randint(1, max_terms))
        }

    num = {} if rng.random() < 0.1 else side(6)
    return symbols, num, side(3), bits


def canonical_of(symbols: tuple[str, ...], num: dict, den: dict, bits: int) -> RatFunc:
    """`algebra._canonical` of exponent-tuple sides packed at `bits` bits.

    The keys keep the sides' order, which need not be sorted, as in the
    packed dicts that `_canonical`'s callers build.
    """
    return _canonical(symbols, pack(num, bits), pack(den, bits), bits)


def rand_ratfunc(rng: Random) -> RatFunc:
    """A random canonical rational function (possibly zero or constant)."""
    width = rng.randint(0, 3)
    symbols = tuple(sorted(rng.sample(SYMBOL_POOL, width)))
    if rng.random() < 0.08:
        num: dict = {}
    else:
        num = rand_poly_terms(rng, width, max_terms=5, max_exp=4)
    if rng.random() < 0.5:
        den = {(0,) * width: rng.randint(1, 9)}
    else:
        den = rand_poly_terms(rng, width, max_terms=3, max_exp=3)
        if not make_poly(symbols, den).terms:
            den = {(0,) * width: 1}
    return make_ratfunc(make_poly(symbols, num), make_poly(symbols, den))


def rand_expr_tree(rng: Random, depth: int, names: tuple[str, ...]) -> Expr:
    """A random expression tree with nonzero-by-construction denominators."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randint(0, 3)
        if kind == 0:
            return IntegerLit(rng.randint(-9, 9))
        if kind == 1:
            return RationalLit(rand_coeff(rng), rng.randint(1, 9))
        return SymbolRef(rng.choice(names))
    kind = rng.randint(0, 3)
    if kind == 0:
        return Sum(
            tuple(
                rand_expr_tree(rng, depth - 1, names)
                for _ in range(rng.randint(2, 3))
            )
        )
    if kind == 1:
        return Product(
            tuple(
                rand_expr_tree(rng, depth - 1, names)
                for _ in range(rng.randint(2, 3))
            )
        )
    if kind == 2:
        return Power(rand_expr_tree(rng, depth - 1, names), IntegerLit(rng.randint(0, 3)))
    # Denominators built as constant-plus-symbol can never normalize to zero.
    den: Expr = Sum((SymbolRef(rng.choice(names)), IntegerLit(rng.randint(1, 9))))
    return Quotient(rand_expr_tree(rng, depth - 1, names), den)


def fully_parenthesized(e: Expr) -> str:
    """Render a tree with explicit parentheses around every composite."""
    if isinstance(e, IntegerLit):
        return f"({e.value})" if e.value < 0 else str(e.value)
    if isinstance(e, RationalLit):
        return f"({e.numerator}/{e.denominator})"
    if isinstance(e, SymbolRef):
        return e.name
    if isinstance(e, Sum):
        return "(" + "+".join(fully_parenthesized(t) for t in e.terms) + ")"
    if isinstance(e, Product):
        return "(" + "*".join(fully_parenthesized(f) for f in e.factors) + ")"
    if isinstance(e, Power):
        return f"({fully_parenthesized(e.base)}^{fully_parenthesized(e.exponent)})"
    if isinstance(e, Quotient):
        return (
            f"({fully_parenthesized(e.numerator)}/"
            f"{fully_parenthesized(e.denominator)})"
        )
    raise TypeError(repr(e))


def rand_point(rng: Random, names) -> dict[str, Fraction]:
    return {
        name: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for name in names
    }


def rand_main_var_poly_expr(
    rng: Random, var: str = "x"
) -> tuple[Expr, tuple[str, ...]]:
    """A random polynomial-in-var expression with optional var-free denominator.

    Sums of up to 6 products of up to 6 factors each, var-degree at most 8,
    at most 4 parameters, integer constants in [-9, 9].
    """
    params = tuple(sorted(rng.sample(("a", "b", "c", "d"), rng.randint(1, 4))))

    def factor(budget: int) -> tuple[Expr, int]:
        kind = rng.randint(0, 4)
        if kind == 0:
            return IntegerLit(rand_coeff(rng)), 0
        if kind == 1:
            return SymbolRef(rng.choice(params)), 0
        if kind == 2 and budget >= 1:
            k = rng.randint(1, min(2, budget))
            base = SymbolRef(var)
            return (base if k == 1 else Power(base, IntegerLit(k))), k
        if kind == 3 and budget >= 2:
            k = rng.randint(2, min(3, budget))
            return Power(Sum((SymbolRef(var), SymbolRef(rng.choice(params)))), IntegerLit(k)), k
        atoms: list[Expr] = [SymbolRef(rng.choice(params)), IntegerLit(rand_coeff(rng))]
        if budget >= 1 and rng.random() < 0.5:
            atoms.append(SymbolRef(var))
            return Sum(tuple(atoms)), 1
        return Sum(tuple(atoms)), 0

    products = []
    for _ in range(rng.randint(1, 6)):
        budget = 8
        factors = []
        for _ in range(rng.randint(1, 6)):
            f, used = factor(budget)
            factors.append(f)
            budget -= used
        products.append(make_product(factors) if len(factors) > 1 else factors[0])
    body = make_sum(products) if len(products) > 1 else products[0]

    if rng.random() < 0.35:
        den: Expr = Sum((SymbolRef(rng.choice(params)), IntegerLit(rand_coeff(rng))))
        if rng.random() < 0.5:
            den = Product((IntegerLit(rand_coeff(rng)), SymbolRef(rng.choice(params))))
        body = Quotient(body, den)
    return body, params


class UnboundSymbol(AlgebraError):
    """Point evaluation hit a symbol missing from the assignment."""


class DivisionByZeroAtPoint(AlgebraError):
    """Point evaluation hit a zero denominator."""


def eval_at(value: Union[Expr, RatFunc], assignment: Mapping[str, Fraction | int]) -> Fraction:
    """Exact evaluation at a rational point: the random-point oracle.

    It walks the tree itself and shares no arithmetic with `normalize`.
    """
    point = {name: Fraction(v) for name, v in assignment.items()}
    if isinstance(value, RatFunc):
        den = _poly_eval(value.denominator, point)
        if den == 0:
            raise DivisionByZeroAtPoint("denominator vanishes at the given point")
        return _poly_eval(value.numerator, point) / den
    return _eval_expr(value, point)


def _poly_eval(p: MultiPoly, point: Mapping[str, Fraction]) -> Fraction:
    for name in p.symbols:
        if name not in point:
            raise UnboundSymbol(f"no value assigned to symbol '{name}'")
    values = [point[name] for name in p.symbols]
    total = Fraction(0)
    for mono, c in unpack(p).items():
        term = Fraction(c)
        for v, e in zip(values, mono):
            if e:
                term *= v**e
        total += term
    return total


def _eval_expr(e: Expr, point: Mapping[str, Fraction]) -> Fraction:
    if isinstance(e, IntegerLit):
        return Fraction(e.value)
    if isinstance(e, RationalLit):
        return Fraction(e.numerator, e.denominator)
    if isinstance(e, SymbolRef):
        if e.name not in point:
            raise UnboundSymbol(f"no value assigned to symbol '{e.name}'", e.span)
        return point[e.name]
    if isinstance(e, Sum):
        return sum((_eval_expr(t, point) for t in e.terms), Fraction(0))
    if isinstance(e, Product):
        out = Fraction(1)
        for f in e.factors:
            out *= _eval_expr(f, point)
        return out
    if isinstance(e, Quotient):
        den = _eval_expr(e.denominator, point)
        if den == 0:
            raise DivisionByZeroAtPoint(
                "denominator vanishes at the given point",
                getattr(e.denominator, "span", None) or e.span,
            )
        return _eval_expr(e.numerator, point) / den
    if isinstance(e, Power):
        exponent = _eval_expr(e.exponent, point)
        if exponent.denominator != 1:
            raise SymbolicExponent(
                "exponent does not evaluate to an integer",
                getattr(e.exponent, "span", None) or e.span,
            )
        base = _eval_expr(e.base, point)
        k = int(exponent)
        if k < 0 and base == 0:
            raise DivisionByZeroAtPoint(
                "zero base raised to a negative power",
                getattr(e.base, "span", None) or e.span,
            )
        return base**k
    raise TypeError(f"not an evaluable value: {e!r}")


def constant_value(r: RatFunc) -> Fraction:
    """The value of a canonical constant (its tables are empty)."""
    return Fraction(r.numerator.terms.get(0, 0), r.denominator.terms[0])


def eval_at_valid_point(
    rng: Random, e: Expr, names, tries: int = 100
) -> tuple[dict[str, Fraction], Fraction]:
    """A random point where every denominator of `e` is nonzero."""
    for _ in range(tries):
        point = rand_point(rng, names)
        try:
            return point, eval_at(e, point)
        except DivisionByZeroAtPoint:
            continue
    raise AssertionError("could not find a nonvanishing evaluation point")


def degree_by_finite_differences(
    f: Callable[[Fraction], Fraction], max_degree: int
) -> int:
    """Degree of a polynomial function, certified for degree <= max_degree.

    Uses exact forward differences at integer points: the d-th differences
    of a degree-d polynomial are a nonzero constant and the (d+1)-th vanish.
    """
    ys = [f(Fraction(i)) for i in range(max_degree + 2)]
    level = 0
    while any(ys):
        ys = [b - a for a, b in zip(ys, ys[1:])]
        level += 1
    return max(level - 1, 0)


def naive_product(a: dict, b: dict) -> dict:
    """Reference product: tuple addition, then descending lex order."""
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            key = tuple(x + y for x, y in zip(m1, m2))
            out[key] = out.get(key, 0) + c1 * c2
    return {m: c for m, c in sorted(out.items(), reverse=True) if c}


def naive_power(a: dict, k: int, width: int) -> dict:
    """`a**k` for k >= 0 by k reference products (so 0**0 is 1)."""
    out = {(0,) * width: 1}
    for _ in range(k):
        out = naive_product(out, a)
    return out


def reference_num_den(e: Expr) -> tuple[MultiPoly, MultiPoly]:
    """Unreduced numerator and denominator of `e`, built on exponent tuples.

    This is the tuple-keyed reduction that `normalize` ran before it moved
    to packed keys, kept as an oracle: its products and powers are
    `naive_product` and `naive_power`, which share no code with the packed
    kernel, so `make_ratfunc(*reference_num_den(e))` must equal
    `normalize(e)` term for term and in the same order.
    """
    table = tuple(sorted(symbols_of(e)))
    num, den = _reference(e, table)
    return make_poly(table, num), make_poly(table, den)


def _sorted_terms(raw: dict) -> dict:
    return dict(sorted(((m, c) for m, c in raw.items() if c), reverse=True))


def _reference(e: Expr, table: tuple[str, ...]) -> tuple[dict, dict]:
    width = len(table)
    zero = (0,) * width
    one = {zero: 1}
    if isinstance(e, IntegerLit):
        return _sorted_terms({zero: e.value}), one
    if isinstance(e, RationalLit):
        return _sorted_terms({zero: e.numerator}), _sorted_terms({zero: e.denominator})
    if isinstance(e, SymbolRef):
        return {tuple(int(s == e.name) for s in table): 1}, one
    if isinstance(e, Sum):
        acc: dict = {}
        num = den = None
        for term in e.terms:
            tn, td = _reference(term, table)
            if den is None:
                if td == one:
                    for m, c in tn.items():
                        acc[m] = acc.get(m, 0) + c
                    continue
                num, den = _sorted_terms(acc), one
            total = naive_product(num, td)
            for m, c in naive_product(tn, den).items():
                total[m] = total.get(m, 0) + c
            num, den = _sorted_terms(total), naive_product(den, td)
        if den is None:
            return _sorted_terms(acc), one
        return num, den
    if isinstance(e, Product):
        num, den = _reference(e.factors[0], table)
        for factor in e.factors[1:]:
            fn, fd = _reference(factor, table)
            num, den = naive_product(num, fn), naive_product(den, fd)
        return num, den
    if isinstance(e, Quotient):
        num, den = _reference(e.numerator, table)
        dn, dd = _reference(e.denominator, table)
        if not dn:
            raise ZeroDenominator("denominator is identically zero")
        return naive_product(num, dd), naive_product(den, dn)
    if isinstance(e, Power):
        en, ed = _reference(e.exponent, table)
        if any(any(m) for m in chain(en, ed)):
            raise SymbolicExponent("exponent does not normalize to an integer constant")
        k, rest = divmod(en.get(zero, 0), ed[zero])
        if rest:
            raise SymbolicExponent("exponent does not normalize to an integer constant")
        bn, bd = _reference(e.base, table)
        if k >= 0:
            return naive_power(bn, k, width), naive_power(bd, k, width)
        if not bn:
            raise ZeroDenominator("zero raised to a negative power")
        return naive_power(bd, -k, width), naive_power(bn, -k, width)
    raise TypeError(repr(e))


def reference_collect(e: Expr, var: str) -> MainVarPoly:
    """The split by the main variable that `collect_main_var` replaced.

    It canonicalizes the whole of `e` with `normalize`, slices `var`'s
    column out of every exponent tuple and canonicalizes each bucket again,
    so `collect_main_var`, which splits packed keys before it unpacks them,
    must give the same value term for term.
    """
    r = normalize(e)
    symbols = r.numerator.symbols
    if var not in symbols:
        return MainVarPoly(var, (r,))
    vi = symbols.index(var)
    num, den = unpack(r.numerator), unpack(r.denominator)
    if any(m[vi] for m in den):
        raise NotPolynomialInVar(f"denominator contains the main variable '{var}'")
    reduced = symbols[:vi] + symbols[vi + 1 :]
    buckets: dict[int, dict] = {}
    for mono, c in num.items():
        buckets.setdefault(mono[vi], {})[mono[:vi] + mono[vi + 1 :]] = c
    den = make_poly(reduced, {m[:vi] + m[vi + 1 :]: c for m, c in den.items()})
    degree = max(buckets)
    if degree > MAX_DEGREE:
        raise AlgebraError(f"degree {degree} in '{var}' is above the limit of {MAX_DEGREE}")
    coeffs = [
        make_ratfunc(make_poly(reduced, buckets[k]), den) if k in buckets else RATFUNC_ZERO
        for k in range(degree + 1)
    ]
    return MainVarPoly(var, tuple(coeffs))


def _parse_error(message: str, span: Span) -> SourceError:
    return SourceError(message, span, "parse")


class _ReferenceParser:
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


def reference_parse(input_text: str) -> Expr:
    """The recursive-descent parser that `parse` replaced, kept as an oracle.

    One method per grammar level; it must give the same tree, spans and
    `SourceError` as `parse` on any input shallow enough for its recursion.
    """
    tokens = tokenize(input_text)
    parser = _ReferenceParser(tokens)
    if parser.peek().kind == END:
        raise _parse_error("empty expression", (0, 0))
    result = parser.sum()
    trailing = parser.peek()
    if trailing.kind != END:
        raise _parse_error(
            f"unexpected {trailing.text!r} after the expression", trailing.span
        )
    return result


def flat_tree(e: Expr) -> list[tuple]:
    """Pre-order list of (node type, leaf value, child count, span).

    Two trees are equal with their spans exactly when their lists are; the
    walk uses an explicit stack, so any depth compares (dataclass `==` and
    `repr` recurse).
    """
    out: list[tuple] = []
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, (Sum, Product)):
            children = node.terms if isinstance(node, Sum) else node.factors
        elif isinstance(node, Power):
            children = (node.base, node.exponent)
        elif isinstance(node, Quotient):
            children = (node.numerator, node.denominator)
        else:
            children = ()
        if isinstance(node, IntegerLit):
            leaf = node.value
        elif isinstance(node, RationalLit):
            leaf = (node.numerator, node.denominator)
        elif isinstance(node, SymbolRef):
            leaf = node.name
        else:
            leaf = None
        out.append((type(node).__name__, leaf, len(children), node.span))
        stack.extend(reversed(children))
    return out


def tree_depth(e: Expr) -> int:
    """Number of nodes on the longest root-to-leaf path, found iteratively."""
    deepest = 0
    stack = [(e, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(node, Sum):
            children = node.terms
        elif isinstance(node, Product):
            children = node.factors
        elif isinstance(node, Power):
            children = (node.base, node.exponent)
        elif isinstance(node, Quotient):
            children = (node.numerator, node.denominator)
        else:
            continue
        stack.extend((child, depth + 1) for child in children)
    return deepest


def run_cli(text: str, **fields) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `cli.run` on `text` with these CliOptions fields."""
    saved = sys.stdin, sys.stdout, sys.stderr
    try:
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
        code = run(CliOptions(**fields))
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
