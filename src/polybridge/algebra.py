"""Exact multivariate rational-function arithmetic with int coefficients.

Representation. A polynomial maps monomials to nonzero int coefficients,
where a monomial is an exponent tuple aligned with the polynomial's symbol
table (symbol names sorted lexicographically by code point). Monomials
compare under pure lexicographic order on exponent vectors; term dicts are
stored in descending monomial order so iteration and emission are
deterministic. Rational literals arrive as an integer numerator and
denominator and rational content folds into the numerator/denominator
pair, so no polynomial coefficient needs to be a fraction. Products use a
packed-exponent kernel (Monagan & Pearce, CASC 2007): each monomial is
packed into one int so that multiplying monomials is one int addition.

The coefficient ring is Z everywhere: `simplify`'s univariate GCD is a
primitive remainder sequence over Z. `Fraction` remains only where a value
is rational by nature: point evaluation (`eval_at`, `MultiPoly.eval`) and
`RatFunc.constant_value`.

Canonical rational functions additionally guarantee: the symbol table is
trimmed to symbols that actually occur, any monomial dividing every term
of both numerator and denominator is cancelled, all coefficients are
ints with unit content across the pair, and the denominator's leading
coefficient is positive. Full multivariate GCD reduction is deliberately
not performed; semantic equality is decided by cross-multiplication
(`ratfunc_equal`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Iterable, Mapping, Union

from .expr import (
    Expr,
    IntegerLit,
    Power,
    Product,
    Quotient,
    RationalLit,
    Span,
    Sum,
    SymbolRef,
    symbols_of,
)

Monomial = tuple[int, ...]
SymbolTable = tuple[str, ...]


class AlgebraError(Exception):
    """Base class for exact-arithmetic failures; may carry a character span."""

    def __init__(self, message: str, span: Span | None = None):
        super().__init__(message)
        self.span = span


class SymbolicExponent(AlgebraError):
    """An exponent did not normalize to an integer constant."""


class ZeroDenominator(AlgebraError):
    """A denominator normalized to the zero polynomial."""


class NotPolynomialInVar(AlgebraError):
    """The main variable occurs in a denominator."""


class UnboundSymbol(AlgebraError):
    """Point evaluation hit a symbol missing from the assignment."""


class DivisionByZeroAtPoint(AlgebraError):
    """Point evaluation hit a zero denominator."""


@dataclass(frozen=True)
class MultiPoly:
    """Sparse multivariate polynomial with int coefficients.

    `terms` holds no zero coefficients and iterates in descending monomial
    order. All arithmetic assumes both operands share the same symbol
    table; use `merge_tables`/`remap` to align values first. Products
    multiply packed monomials (see `__mul__`). Only `eval` leaves Z: it
    returns the exact `Fraction` value at a rational point.
    """

    symbols: SymbolTable
    terms: dict[Monomial, int]

    @staticmethod
    def make(symbols: SymbolTable, raw: Mapping[Monomial, int]) -> MultiPoly:
        items = [(m, c) for m, c in raw.items() if c != 0]
        items.sort(reverse=True)
        return MultiPoly(symbols, dict(items))

    @classmethod
    def zero(cls, symbols: SymbolTable = ()) -> MultiPoly:
        return cls(symbols, {})

    @classmethod
    def const(cls, symbols: SymbolTable, value: int) -> MultiPoly:
        if value == 0:
            return cls(symbols, {})
        return cls(symbols, {(0,) * len(symbols): value})

    @classmethod
    def variable(cls, symbols: SymbolTable, name: str) -> MultiPoly:
        exps = [0] * len(symbols)
        exps[symbols.index(name)] = 1
        return cls(symbols, {tuple(exps): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in mono) for mono in self.terms)

    def constant_value(self) -> int:
        return self.terms.get((0,) * len(self.symbols), 0)

    def leading(self) -> tuple[Monomial, int]:
        return next(iter(self.terms.items()))

    def degree_in(self, name: str) -> int:
        if name not in self.symbols or not self.terms:
            return 0
        i = self.symbols.index(name)
        return max(mono[i] for mono in self.terms)

    def __add__(self, other: MultiPoly) -> MultiPoly:
        assert self.symbols == other.symbols
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, 0) + c
        return MultiPoly.make(self.symbols, out)

    def __mul__(self, other: MultiPoly) -> MultiPoly:
        """Product by the packed-exponent kernel.

        Each monomial packs into one int with the first symbol in the most
        significant field, so adding packed ints multiplies monomials and
        int order is lex order. Fields are as wide as the bit length of
        (largest exponent in `self`) + (largest exponent in `other`), which
        bounds every exponent of the product, so no field carries into its
        neighbour.
        """
        assert self.symbols == other.symbols
        big, small = (self, other) if len(self.terms) >= len(other.terms) else (other, self)
        if len(small.terms) <= 1:
            return big._times_term(small)
        bits = (max(map(max, self.terms)) + max(map(max, other.terms))).bit_length()
        # The long operand is packed once and walked by the inner loop, so
        # per-row overhead is paid len(small) times.
        packed_big = [(_pack(m, bits), c) for m, c in big.terms.items()]
        acc: dict[int, int] = {}
        get = acc.get
        for m, ca in small.terms.items():
            ka = _pack(m, bits)
            for kb, cb in packed_big:
                k = ka + kb
                acc[k] = get(k, 0) + ca * cb
        mask = (1 << bits) - 1
        shifts = range(bits * (len(self.symbols) - 1), -1, -bits)
        terms = {}
        for k in sorted(acc, reverse=True):
            c = acc[k]
            if c:
                terms[tuple([k >> s & mask for s in shifts])] = c
        return MultiPoly(self.symbols, terms)

    def _times_term(self, p: MultiPoly) -> MultiPoly:
        """Product with a polynomial of at most one term.

        Multiplying every monomial by the same monomial keeps lex order,
        so the terms need no re-sort.
        """
        if not p.terms:
            return MultiPoly(self.symbols, {})
        ((shift, factor),) = p.terms.items()
        if any(shift):
            return MultiPoly(
                self.symbols,
                {tuple([a + b for a, b in zip(m, shift)]): c * factor for m, c in self.terms.items()},
            )
        if factor == 1:
            return self
        return MultiPoly(self.symbols, {m: c * factor for m, c in self.terms.items()})

    def div_monomial(self, g: Monomial) -> MultiPoly:
        """Quotient by a monomial dividing every term; lex order is kept."""
        return MultiPoly(
            self.symbols,
            {tuple([e - d for e, d in zip(m, g)]): c for m, c in self.terms.items()},
        )

    def pow_int(self, k: int) -> MultiPoly:
        if k < 0:
            raise ValueError("negative exponent on a polynomial")
        if len(self.terms) == 1:
            ((mono, c),) = self.terms.items()
            return MultiPoly(self.symbols, {tuple([e * k for e in mono]): c**k})
        result = MultiPoly.const(self.symbols, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def eval(self, point: Mapping[str, Fraction]) -> Fraction:
        for name in self.symbols:
            if name not in point:
                raise UnboundSymbol(f"no value assigned to symbol '{name}'")
        values = [Fraction(point[name]) for name in self.symbols]
        total = Fraction(0)
        for mono, c in self.terms.items():
            term = c
            for v, e in zip(values, mono):
                if e:
                    term *= v**e
            total += term
        return total


def _pack(mono: Monomial, bits: int) -> int:
    key = 0
    for e in mono:
        key = key << bits | e
    return key


def monomial_gcd(monos: Iterable[Monomial]) -> Monomial | None:
    """The largest monomial dividing all of `monos`, or None if that is 1."""
    mins = None
    for mono in monos:
        mins = mono if mins is None else tuple(map(min, mins, mono))
        if not any(mins):
            return None
    return mins


def merge_tables(a: SymbolTable, b: SymbolTable) -> SymbolTable:
    return tuple(sorted(set(a) | set(b)))


def remap(p: MultiPoly, symbols: SymbolTable) -> MultiPoly:
    """Re-express `p` over a superset symbol table."""
    if p.symbols == symbols:
        return p
    positions = [symbols.index(name) for name in p.symbols]
    width = len(symbols)
    out: dict[Monomial, int] = {}
    for mono, c in p.terms.items():
        exps = [0] * width
        for pos, e in zip(positions, mono):
            exps[pos] = e
        out[tuple(exps)] = c
    return MultiPoly.make(symbols, out)


@dataclass(frozen=True)
class RatFunc:
    """Canonical exact rational function (see module docstring)."""

    numerator: MultiPoly
    denominator: MultiPoly

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def constant_value(self) -> Fraction:
        return Fraction(self.numerator.constant_value(), self.denominator.constant_value())


RATFUNC_ZERO = RatFunc(MultiPoly((), {}), MultiPoly((), {(): 1}))


def make_ratfunc(num: MultiPoly, den: MultiPoly, span: Span | None = None) -> RatFunc:
    """Canonicalize a numerator/denominator pair of int polynomials.

    Cancels the common monomial, trims unused symbols, divides out the
    content of the pair and makes the denominator's leading coefficient
    positive (see the module docstring).
    """
    if den.is_zero():
        raise ZeroDenominator("denominator is identically zero", span)
    if num.is_zero():
        return RATFUNC_ZERO
    num, den = _cancel_common_monomial(num, den)
    num, den = _trim_pair(num, den)

    content = 0
    for c in chain(num.terms.values(), den.terms.values()):
        content = gcd(content, c)
        if content == 1:
            break
    if den.leading()[1] < 0:
        content = -content
    if content != 1:
        num = MultiPoly(num.symbols, {m: c // content for m, c in num.terms.items()})
        den = MultiPoly(den.symbols, {m: c // content for m, c in den.terms.items()})
    return RatFunc(num, den)


def _trim_pair(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    used = [
        i
        for i in range(len(num.symbols))
        if any(m[i] for m in num.terms) or any(m[i] for m in den.terms)
    ]
    if len(used) == len(num.symbols):
        return num, den
    symbols = tuple(num.symbols[i] for i in used)

    def project(p: MultiPoly) -> MultiPoly:
        out = {tuple(m[i] for i in used): c for m, c in p.terms.items()}
        return MultiPoly.make(symbols, out)

    return project(num), project(den)


def _cancel_common_monomial(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    # The denominator goes first: it is usually short and often the
    # constant 1, which ends the scan at once.
    g = monomial_gcd(chain(den.terms, num.terms))
    if g is None:
        return num, den
    return num.div_monomial(g), den.div_monomial(g)


def normalize(e: Expr) -> RatFunc:
    """Flatten an expression into canonical rational-function form.

    Every Power exponent must normalize to an integer constant; negative
    exponents contribute to the denominator and Quotient nodes merge by
    cross-multiplication.
    """
    table = tuple(sorted(symbols_of(e)))
    num, den = _to_num_den(e, table)
    return make_ratfunc(num, den, span=getattr(e, "span", None))


def _to_num_den(e: Expr, table: SymbolTable) -> tuple[MultiPoly, MultiPoly]:
    one = MultiPoly.const(table, 1)
    if isinstance(e, IntegerLit):
        return MultiPoly.const(table, e.value), one
    if isinstance(e, RationalLit):
        return MultiPoly.const(table, e.numerator), MultiPoly.const(table, e.denominator)
    if isinstance(e, SymbolRef):
        return MultiPoly.variable(table, e.name), one
    if isinstance(e, Sum):
        # While every denominator so far is 1, numerators add in place:
        # cross-multiplying by 1 would cost a product and a re-sort per term.
        acc: dict[Monomial, int] = {}
        num = den = None
        for term in e.terms:
            tn, td = _to_num_den(term, table)
            if den is None:
                if td.terms == one.terms:
                    for m, c in tn.terms.items():
                        acc[m] = acc.get(m, 0) + c
                    continue
                num, den = MultiPoly.make(table, acc), one
            num = num * td + tn * den
            den = den * td
        if den is None:
            return MultiPoly.make(table, acc), one
        return num, den
    if isinstance(e, Product):
        num, den = _to_num_den(e.factors[0], table)
        for factor in e.factors[1:]:
            fn, fd = _to_num_den(factor, table)
            num = num * fn
            den = den * fd
        return num, den
    if isinstance(e, Quotient):
        num, den = _to_num_den(e.numerator, table)
        dn, dd = _to_num_den(e.denominator, table)
        if dn.is_zero():
            raise ZeroDenominator(
                "denominator is identically zero",
                getattr(e.denominator, "span", None) or e.span,
            )
        return num * dd, den * dn
    if isinstance(e, Power):
        en, ed = _to_num_den(e.exponent, table)
        k = _integer_constant(en, ed)
        if k is None:
            raise SymbolicExponent(
                "exponent does not normalize to an integer constant",
                getattr(e.exponent, "span", None) or e.span,
            )
        bn, bd = _to_num_den(e.base, table)
        if k >= 0:
            return bn.pow_int(k), bd.pow_int(k)
        if bn.is_zero():
            raise ZeroDenominator(
                "zero raised to a negative power",
                getattr(e.base, "span", None) or e.span,
            )
        return bd.pow_int(-k), bn.pow_int(-k)
    raise TypeError(f"not an expression node: {e!r}")


def _integer_constant(num: MultiPoly, den: MultiPoly) -> int | None:
    if not (num.is_constant() and den.is_constant()):
        return None
    k, rest = divmod(num.constant_value(), den.constant_value())
    return None if rest else k


def ratfunc_equal(a: RatFunc, b: RatFunc) -> bool:
    """Exact equality by cross-multiplication (no GCD reduction needed)."""
    table = merge_tables(a.numerator.symbols, b.numerator.symbols)
    left = remap(a.numerator, table) * remap(b.denominator, table)
    right = remap(b.numerator, table) * remap(a.denominator, table)
    return left.terms == right.terms


def _normalized_in_var(e: Expr, var: str) -> RatFunc:
    r = normalize(e)
    if r.denominator.degree_in(var) > 0:
        raise NotPolynomialInVar(
            f"denominator contains the main variable '{var}'"
        )
    return r


def degree_in(e: Expr, var: str) -> int:
    """Largest power of `var` with a nonzero coefficient (0 for constants)."""
    r = _normalized_in_var(e, var)
    return r.numerator.degree_in(var)


def _var_coefficients(r: RatFunc, var: str) -> tuple[RatFunc, ...]:
    """Split a var-free-denominator RatFunc into coefficients of var^k."""
    num, den = r.numerator, r.denominator
    if var not in num.symbols:
        return (r,)
    vi = num.symbols.index(var)
    reduced = tuple(s for s in num.symbols if s != var)

    # Dropping var's column keeps the descending order within each power of
    # var, and den has no var, so neither side needs a re-sort.
    buckets: dict[int, dict[Monomial, int]] = {}
    for mono, c in num.terms.items():
        rest = mono[:vi] + mono[vi + 1 :]
        buckets.setdefault(mono[vi], {})[rest] = c
    den_reduced = MultiPoly(
        reduced, {m[:vi] + m[vi + 1 :]: c for m, c in den.terms.items()}
    )

    degree = max(buckets) if buckets else 0
    coeffs = []
    for k in range(degree + 1):
        bucket = buckets.get(k)
        if bucket is None:
            coeffs.append(RATFUNC_ZERO)
        else:
            coeffs.append(make_ratfunc(MultiPoly(reduced, bucket), den_reduced))
    return tuple(coeffs)


def coefficient_of(e: Expr, var: str, k: int) -> RatFunc:
    """The RatFunc multiplying var^k in the canonical form of `e`."""
    if k < 0:
        raise ValueError("coefficient index must be nonnegative")
    coeffs = _var_coefficients(_normalized_in_var(e, var), var)
    return coeffs[k] if k < len(coeffs) else RATFUNC_ZERO


@dataclass(frozen=True)
class MainVarPoly:
    """A polynomial in one distinguished variable with RatFunc coefficients.

    `coeffs[i]` multiplies main_var**i; the zero polynomial is degree 0
    with a single zero coefficient, so the length is always degree + 1.
    """

    main_var: str
    coeffs: tuple[RatFunc, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def collect_main_var(e: Expr, var: str) -> MainVarPoly:
    """Collect `e` as a polynomial in `var` with var-free coefficients."""
    return MainVarPoly(var, _var_coefficients(_normalized_in_var(e, var), var))


def simplify(r: RatFunc, level: int) -> RatFunc:
    """Optionally cancel common univariate factors.

    Level 0 returns the input unchanged (canonical form already combines
    like terms). Level 1 additionally divides out the polynomial GCD when
    the canonical `r` is univariate, i.e. its trimmed symbol table holds
    one symbol, and neither side is constant (else the GCD is constant too).
    The GCD is the last primitive remainder over Z (Brown, JACM 1971); by
    Gauss's lemma it divides both sides over Z. The result is always
    cross-multiplication-equal to the input.
    """
    if level == 0:
        return r
    if level != 1:
        raise ValueError(f"unknown simplify level {level!r}")
    num, den = r.numerator, r.denominator
    if len(num.symbols) != 1 or num.is_constant() or den.is_constant():
        return r
    a, b = _dense(num), _dense(den)
    g = _primitive_gcd(a, b)
    if len(g) < 2:
        return r
    return make_ratfunc(_exact_quotient(a, g, num.symbols), _exact_quotient(b, g, num.symbols))


def _dense(p: MultiPoly) -> list[int]:
    """Coefficients of a univariate polynomial, constant term first."""
    out = [0] * (p.leading()[0][0] + 1)
    for (e,), c in p.terms.items():
        out[e] = c
    return out


def _primitive(p: list[int]) -> list[int]:
    content = gcd(*p)
    return [c // content for c in p] if content > 1 else p


def _primitive_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive GCD over Z of two nonzero dense polynomials (up to sign)."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    return a


def _exact_quotient(a: list[int], g: list[int], symbols: SymbolTable) -> MultiPoly:
    q, rem, scaled = _pseudo_divmod(a, g)
    assert not rem and not scaled, "inexact polynomial division"
    return MultiPoly.make(symbols, {(i,): c for i, c in enumerate(q)})


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int], bool]:
    """Long division of dense int polynomials: `(q, r, scaled)`.

    `s*a == q*b + r` with deg r < deg b. A step scales the running remainder
    and quotient by lc(b) only when lc(b) does not divide the leading
    coefficient, so `s` is a power of lc(b), and `scaled` says if `s != 1`.
    """
    r, q = list(a), [0] * (len(a) - len(b) + 1)
    lead, n = b[-1], len(b) - 1
    scaled = False
    for shift in range(len(q) - 1, -1, -1):
        top = r[shift + n]
        if not top:
            continue
        f, rest = divmod(top, lead)
        if rest:
            r, q, f = [c * lead for c in r], [c * lead for c in q], top
            scaled = True
        q[shift] = f
        for i, c in enumerate(b):
            r[shift + i] -= f * c
    del r[n:]
    while r and not r[-1]:
        r.pop()
    return q, r, scaled


def eval_at(
    value: Union[Expr, RatFunc], assignment: Mapping[str, Fraction | int]
) -> Fraction:
    """Exact evaluation at a rational point (the random-point oracle)."""
    point = {name: Fraction(v) for name, v in assignment.items()}
    if isinstance(value, RatFunc):
        den = value.denominator.eval(point)
        if den == 0:
            raise DivisionByZeroAtPoint("denominator vanishes at the given point")
        return value.numerator.eval(point) / den
    return _eval_expr(value, point)


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
