"""Exact multivariate rational-function arithmetic with int coefficients.

Representation. A polynomial maps monomials to nonzero int coefficients,
where a monomial is an exponent tuple aligned with the polynomial's symbol
table (symbol names sorted lexicographically by code point). Monomials
compare under pure lexicographic order on exponent vectors; term dicts are
stored in descending monomial order so iteration and emission are
deterministic. Rational literals arrive as an integer numerator and
denominator and rational content folds into the numerator/denominator
pair, so no polynomial coefficient needs to be a fraction.

Packed keys. Arithmetic runs on packed-exponent term dicts `{key: int}`
(Monagan & Pearce, CASC 2007): a monomial packs into one int with a fixed
field width per symbol, the first symbol in the most significant field, so
multiplying monomials is one int addition and int order is lex order.
`normalize` packs at the leaves (a symbol is the key `1 << shift`, a
constant the key 0), combines every node through one schoolbook product
kernel, `_mul`, and its power routine `_pow`, and unpacks and sorts each
side once. Each intermediate carries an upper bound on any single
exponent: products add bounds, a sum takes their maximum (their total
when it cross-multiplies), a power multiplies the bound by |k|. The bound
is checked before each product or power; when it would reach `2**bits`
the whole pass restarts at double the width, starting from 8 bits, so a
high-degree input pays for a cheap aborted pass, not for a carry.
`ratfunc_equal` is the kernel's only other client: it packs its four sides
at twice the width of their largest exponent and cross-multiplies.

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

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from math import gcd
from operator import itemgetter
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

# Largest main-variable degree that `collect_main_var` splits into a dense
# tuple of degree + 1 coefficients (one script line each).
MAX_DEGREE = 2**16


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
    order. It is a canonical container with no arithmetic of its own:
    products run on packed keys (`_mul`, `_pow`; see the module
    docstring), and `normalize` makes a `MultiPoly` only at its end. Only
    `eval` leaves Z: it returns the exact `Fraction` value at a rational
    point.
    """

    symbols: SymbolTable
    terms: dict[Monomial, int]

    @staticmethod
    def make(symbols: SymbolTable, raw: Mapping[Monomial, int]) -> MultiPoly:
        items = [(m, c) for m, c in raw.items() if c != 0]
        items.sort(reverse=True)
        return MultiPoly(symbols, dict(items))

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

    def div_monomial(self, g: Monomial) -> MultiPoly:
        """Quotient by a monomial dividing every term; lex order is kept."""
        return MultiPoly(
            self.symbols,
            {tuple([e - d for e, d in zip(m, g)]): c for m, c in self.terms.items()},
        )

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


Packed = dict[int, int]


def _mul(a: Packed, b: Packed) -> Packed:
    """Schoolbook product of packed term dicts; zero-free operands give a
    zero-free result.

    Keys must be packed at a width that holds every exponent of the
    product, so that adding keys multiplies monomials with no carry.
    """
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        ((kb, cb),) = b.items()
        return {ka + kb: ca * cb for ka, ca in a.items()}
    # The long operand is walked by the inner loop, so per-row overhead is
    # paid len(b) times.
    acc: Packed = {}
    get = acc.get
    for kb, cb in b.items():
        for ka, ca in a.items():
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    return _nonzero(acc)


def _pow(a: Packed, k: int) -> Packed:
    """`a**k` for k >= 0 by left-to-right squaring over `_mul`.

    Each step multiplies by `a` itself, not by one of its large powers.
    """
    if len(a) == 1:
        ((key, c),) = a.items()
        return {key * k: c**k}
    if not k:
        return {0: 1}
    result = a
    for bit in bin(k)[3:]:
        result = _mul(result, result)
        if bit == "1":
            result = _mul(result, a)
    return result


def _nonzero(terms: Packed) -> Packed:
    if 0 in terms.values():
        return {key: c for key, c in terms.items() if c}
    return terms


def _unpack(symbols: SymbolTable, packed: Packed, bits: int) -> MultiPoly:
    """The polynomial of `bits`-bit fields, its terms sorted once."""
    mask = (1 << bits) - 1
    shifts = range(bits * (len(symbols) - 1), -1, -bits)
    return MultiPoly(
        symbols,
        {tuple([key >> s & mask for s in shifts]): packed[key] for key in sorted(packed, reverse=True)},
    )


def monomial_gcd(monos: Iterable[Monomial]) -> Monomial | None:
    """The largest monomial dividing all of `monos`, or None if that is 1."""
    mins = None
    for mono in monos:
        mins = mono if mins is None else tuple(map(min, mins, mono))
        if not any(mins):
            return None
    return mins


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
    # A column is used if some term has a nonzero exponent in it. Few terms
    # over many columns transpose in one zip; many terms are scanned column
    # by column, each scan stopping at its first nonzero exponent.
    nt, dt, width = num.terms, den.terms, len(num.symbols)
    if len(nt) + len(dt) <= width:
        used = list(compress(range(width), map(any, zip(*nt, *dt))))
    else:
        used = [
            i for i in range(width) if any(map(itemgetter(i), nt)) or any(map(itemgetter(i), dt))
        ]
    if len(used) == width:
        return num, den
    symbols = tuple(num.symbols[i] for i in used)

    # The dropped columns are zero in every term, so lex order is kept.
    def project(p: MultiPoly) -> MultiPoly:
        return MultiPoly(symbols, {tuple([m[i] for i in used]): c for m, c in p.terms.items()})

    return project(num), project(den)


def _cancel_common_monomial(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    # The denominator goes first: it is usually short and often the
    # constant 1, which ends the scan at once.
    g = monomial_gcd(chain(den.terms, num.terms))
    if g is None:
        return num, den
    return num.div_monomial(g), den.div_monomial(g)


class _Widen(Exception):
    """An exponent bound reached the packed field; retry at a wider one."""


def _fits(bound: int, limit: int) -> int:
    if bound >= limit:
        raise _Widen
    return bound


def normalize(e: Expr) -> RatFunc:
    """Flatten an expression into canonical rational-function form.

    Every Power exponent must normalize to an integer constant; negative
    exponents contribute to the denominator and Quotient nodes merge by
    cross-multiplication. The arithmetic runs on packed keys of 8-bit
    fields; a pass whose exponent bound outgrows the fields restarts at
    twice the width (see the module docstring).
    """
    table = tuple(sorted(symbols_of(e)))
    bits = 8
    while True:
        keys = {name: 1 << bits * i for i, name in enumerate(reversed(table))}
        try:
            num, den, _ = _to_num_den(e, keys, 1 << bits)
            break
        except _Widen:
            bits *= 2
    span = getattr(e, "span", None)
    return make_ratfunc(_unpack(table, num, bits), _unpack(table, den, bits), span)


# The packed constant 1, to compare a denominator against.
_ONE: Packed = {0: 1}


def _to_num_den(e: Expr, keys: Mapping[str, int], limit: int) -> tuple[Packed, Packed, int]:
    """Packed numerator, denominator and a bound on any single exponent.

    `keys` maps each symbol to its packed key, and every exponent must stay
    below `limit`, the size of one field. Nodes dispatch on their exact
    type, the most frequent first; a denominator equal to 1 is passed on,
    not multiplied. No term dict is mutated once returned.
    """
    t = type(e)
    if t is Product:
        factors = e.factors
        num, den, bound = _to_num_den(factors[0], keys, limit)
        for i in range(1, len(factors)):
            fn, fd, fb = _to_num_den(factors[i], keys, limit)
            bound = _fits(bound + fb, limit)
            num = _mul(num, fn)
            if fd != _ONE:
                den = _mul(den, fd)
        return num, den, bound
    if t is SymbolRef:
        return {keys[e.name]: 1}, _ONE, 1
    if t is IntegerLit:
        return ({0: e.value} if e.value else {}), _ONE, 0
    if t is Power:
        exponent = e.exponent
        if type(exponent) is IntegerLit:
            k = exponent.value
        else:
            en, ed, _ = _to_num_den(exponent, keys, limit)
            k = _integer_constant(en, ed)
            if k is None:
                raise SymbolicExponent(
                    "exponent does not normalize to an integer constant",
                    getattr(exponent, "span", None) or e.span,
                )
        bn, bd, bound = _to_num_den(e.base, keys, limit)
        bound = _fits(bound * abs(k), limit)
        if k >= 0:
            return _pow(bn, k), (bd if bd == _ONE else _pow(bd, k)), bound
        if not bn:
            raise ZeroDenominator(
                "zero raised to a negative power",
                getattr(e.base, "span", None) or e.span,
            )
        return _pow(bd, -k), _pow(bn, -k), bound
    if t is Sum:
        # Numerators add in place; only a denominator other than 1 costs
        # the cross-multiplication acc/den + tn/td = (acc*td + tn*den)/(den*td).
        acc: Packed = {}
        den = _ONE
        bound = 0
        for term in e.terms:
            tn, td, tb = _to_num_den(term, keys, limit)
            if td == den == _ONE:
                bound = max(bound, tb)
            else:
                bound = _fits(bound + tb, limit)
                acc, tn, den = _mul(acc, td), _mul(tn, den), _mul(den, td)
            for k, c in tn.items():
                acc[k] = acc.get(k, 0) + c
        return _nonzero(acc), den, bound
    if t is Quotient:
        num, den, nb = _to_num_den(e.numerator, keys, limit)
        dn, dd, db = _to_num_den(e.denominator, keys, limit)
        if not dn:
            raise ZeroDenominator(
                "denominator is identically zero",
                getattr(e.denominator, "span", None) or e.span,
            )
        bound = _fits(nb + db, limit)
        return (num if dd == _ONE else _mul(num, dd)), _mul(den, dn), bound
    if t is RationalLit:
        return ({0: e.numerator} if e.numerator else {}), {0: e.denominator}, 0
    raise TypeError(f"not an expression node: {e!r}")


def _integer_constant(num: Packed, den: Packed) -> int | None:
    if any(num) or any(den):
        return None
    k, rest = divmod(num.get(0, 0), den[0])
    return None if rest else k


def ratfunc_equal(a: RatFunc, b: RatFunc) -> bool:
    """Exact equality by cross-multiplication (no GCD reduction needed).

    The four sides pack by symbol name onto their merged, sorted table.
    Each field holds twice the largest exponent, so no product carries.
    """
    sides = (a.numerator, b.denominator, b.numerator, a.denominator)
    table = sorted(set().union(*(p.symbols for p in sides)))
    top = max((e for p in sides for m in p.terms for e in m), default=0)
    bits = (2 * top).bit_length() or 1
    shifts = {name: bits * i for i, name in enumerate(reversed(table))}
    an, bd, bn, ad = (
        {sum([e << shifts[s] for s, e in zip(p.symbols, m)]): c for m, c in p.terms.items()}
        for p in sides
    )
    return _mul(an, bd) == _mul(bn, ad)


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
    if degree > MAX_DEGREE:
        try:
            shown = str(degree)
        except ValueError:
            shown = f"of more than {sys.get_int_max_str_digits()} digits"
        raise AlgebraError(f"degree {shown} in '{var}' is above the limit of {MAX_DEGREE}")
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
