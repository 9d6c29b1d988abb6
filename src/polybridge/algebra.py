"""Exact multivariate rational-function arithmetic with int coefficients.

Representation. A polynomial maps packed monomial keys to nonzero int
coefficients (Monagan & Pearce, CASC 2007). Its symbol table is sorted
lexicographically by code point, and a key holds one field of `bits` bits
per symbol, the first symbol in the most significant field, so multiplying
monomials is one int addition and int order is pure lexicographic order on
exponent vectors. Term dicts are stored in descending key order, so
iteration and emission are deterministic. Rational literals arrive as an
integer numerator and denominator and rational content folds into the
numerator/denominator pair, so the coefficient ring is Z everywhere.

Arithmetic. `_packed` packs at the leaves (a symbol is the key
`1 << shift`, a constant the key 0) and combines every node through one
schoolbook product kernel, `_mul`, and its power routine `_pow`. Each
intermediate carries an upper bound on any single exponent: products add
bounds, a sum takes their maximum (their total when it cross-multiplies), a
power multiplies the bound by |k|. The bound is checked before each product
or power; when it would reach `2**bits` the whole pass restarts at double
the width, starting from 8 bits, so a high-degree input pays for a cheap
aborted pass, not for a carry. Canonical form is built from packed keys by
one function, `_canonical`; `collect_main_var` first splits the numerator
by the main variable's field, then canonicalizes each bucket over the
shared denominator.

Canonical rational functions additionally guarantee: the symbol table is
trimmed to symbols that actually occur, any monomial dividing every term
of both numerator and denominator is cancelled, all coefficients are
ints with unit content across the pair, and the denominator's leading
coefficient is positive. Both sides share the symbol table and the field
width, which is the smallest of 8, 16, 32, ... bits that holds every
exponent of the pair, so `==` compares canonical forms. Full multivariate
GCD reduction is deliberately not performed, so two equal values may have
different canonical forms (`(a^2-b^2)/(a-b)` and `a+b`).
"""

from __future__ import annotations

import sys
from collections import defaultdict
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from math import gcd
from operator import or_

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

SymbolTable = tuple[str, ...]
Packed = dict[int, int]

# Largest main-variable degree that `collect_main_var` splits into a dense
# tuple of degree + 1 coefficients (one script line each), and the largest
# |k| of a power `b^k` unless each side of b is 0 or ±1 times a monomial,
# whose powers stay that small.
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


def field_layout(width: int, bits: int) -> tuple[range, int]:
    """The shifts of `width` fields of `bits` bits, the first field most
    significant, and the mask of one field."""
    return range(bits * (width - 1), -1, -bits), (1 << bits) - 1


def common_monomial(keys: Iterable[int], shifts: range, mask: int) -> int:
    """The packed per-field minimum of `keys`: the largest monomial dividing
    every one. It returns 0 as soon as every field has met a zero."""
    keys = iter(keys)
    g = next(keys, 0)
    for k in keys:
        if not g:
            break
        g = sum([min(g >> s & mask, k >> s & mask) << s for s in shifts])
    return g


@dataclass(frozen=True)
class MultiPoly:
    """Sparse multivariate polynomial with int coefficients.

    `terms` maps packed keys of `bits`-bit fields, one per symbol of
    `symbols`, to nonzero coefficients, in descending key order; the two
    sides of a `RatFunc` share `symbols` and the canonical `bits`. It has no
    arithmetic of its own: products run on packed term dicts (`_mul`,
    `_pow`), and `_canonical` turns their result into `MultiPoly` sides.
    """

    symbols: SymbolTable
    terms: Packed
    bits: int


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


@dataclass(frozen=True)
class RatFunc:
    """Canonical exact rational function (see module docstring)."""

    numerator: MultiPoly
    denominator: MultiPoly


RATFUNC_ZERO = RatFunc(MultiPoly((), {}, 8), MultiPoly((), {0: 1}, 8))


def _canonical(table: SymbolTable, num: Packed, den: Packed, bits: int) -> RatFunc:
    """The canonical form of packed sides with `bits`-bit fields over `table`.

    Subtracts the common monomial from every key, keeps only the fields some
    key uses, divides out the content of the pair and makes the
    denominator's leading coefficient positive (see the module docstring).
    The keys are re-packed only when a field is dropped or the canonical
    width differs from `bits`; both keep packed order lex order.
    """
    if not den:
        raise ZeroDenominator("denominator is identically zero")
    if not num:
        return RATFUNC_ZERO
    shifts, mask = field_layout(len(table), bits)
    if 0 not in num and 0 not in den:
        # Every field of every key is at least g's, so no field borrows.
        g = common_monomial(chain(num, den), shifts, mask)
        if g:
            num = {k - g: c for k, c in num.items()}
            den = {k - g: c for k, c in den.items()}
    used = reduce(or_, chain(num, den))
    kept = [s for s in shifts if used >> s & mask]
    symbols = tuple([name for name, s in zip(table, shifts) if used >> s & mask])
    # A field of `used` has the bit length of the field's largest exponent.
    width = 8
    while width < bits and any((used >> s & mask) >> width for s in kept):
        width *= 2
    moves = list(zip(kept, range(width * (len(kept) - 1), -1, -width)))
    repack = len(kept) < len(table) or width != bits

    content = 0
    for c in chain(num.values(), den.values()):
        content = gcd(content, c)
        if content == 1:
            break
    if den[max(den)] < 0:
        content = -content

    def side(p: Packed) -> MultiPoly:
        keys = sorted(p, reverse=True)
        coeffs = [p[k] // content for k in keys] if content != 1 else [p[k] for k in keys]
        if repack:
            keys = [sum([(k >> s & mask) << t for s, t in moves]) for k in keys]
        return MultiPoly(symbols, dict(zip(keys, coeffs)), width)

    return RatFunc(side(num), side(den))


class _Widen(Exception):
    """An exponent bound reached the packed field; retry at a wider one."""


def _fits(bound: int, limit: int) -> int:
    if bound >= limit:
        raise _Widen
    return bound


def _packed(e: Expr) -> tuple[SymbolTable, Packed, Packed, int]:
    """The sorted symbol table, packed numerator and denominator, and the
    field width, which starts at 8 bits and doubles on `_Widen`. Every
    algebra entry point starts here, so a tree too deep for the recursive
    `_to_num_den` (about 1000 levels by default) raises AlgebraError."""
    table = tuple(sorted(symbols_of(e)))
    bits = 8
    while True:
        keys = {name: 1 << bits * i for i, name in enumerate(reversed(table))}
        try:
            num, den, _ = _to_num_den(e, keys, 1 << bits)
            return table, num, den, bits
        except _Widen:
            bits *= 2
        except RecursionError:
            raise AlgebraError("expression is nested too deeply") from None


def normalize(e: Expr) -> RatFunc:
    """Flatten an expression into canonical rational-function form.

    Every Power exponent must normalize to an integer constant; negative
    exponents contribute to the denominator and Quotient nodes merge by
    cross-multiplication.
    """
    return _canonical(*_packed(e))


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
                    exponent.span or e.span,
                )
        bn, bd, bound = _to_num_den(e.base, keys, limit)
        # Powers stay small only if each side is 0 or one term with coefficient ±1.
        if abs(k) > MAX_DEGREE and any(len(p) > 1 or abs(sum(p.values())) > 1 for p in (bn, bd)):
            raise AlgebraError(f"exponent magnitude is above the limit of {MAX_DEGREE}", e.span)
        bound = _fits(bound * abs(k), limit)
        if k >= 0:
            return _pow(bn, k), (bd if bd == _ONE else _pow(bd, k)), bound
        if not bn:
            raise ZeroDenominator("zero raised to a negative power", e.base.span or e.span)
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
            raise ZeroDenominator("denominator is identically zero", e.denominator.span or e.span)
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
    """Collect `e` as a polynomial in `var` with var-free coefficients.

    The smallest power of `var` over both sides is cancelled first, as
    canonical form cancels a common monomial (`x^2/x` has degree 1); every
    denominator term must hold `var` to exactly that power. A degree above
    `MAX_DEGREE` raises AlgebraError before any coefficient is built.
    """
    table, num, den, bits = _packed(e)
    buckets = {0: num} if num else {}
    if num and var in table:
        i = table.index(var)
        shifts, mask = field_layout(len(table), bits)
        shift = shifts[i]
        rest, high = (1 << shift) - 1, shift + bits
        buckets = defaultdict(dict)
        for k, c in num.items():
            # The key without var's field: the fields above it move down.
            buckets[k >> shift & mask][k >> high << shift | k & rest] = c
        den_fields = {k >> shift & mask for k in den}
        low = min(min(buckets), *den_fields)
        if den_fields != {low}:
            raise NotPolynomialInVar(f"denominator contains the main variable '{var}'")
        buckets = {field - low: bucket for field, bucket in buckets.items()}
        den = {k >> high << shift | k & rest: c for k, c in den.items()}
        table = table[:i] + table[i + 1 :]
    degree = max(buckets, default=0)
    if degree > MAX_DEGREE:
        try:
            shown = str(degree)
        except ValueError:
            shown = f"of more than {sys.get_int_max_str_digits()} digits"
        raise AlgebraError(f"degree {shown} in '{var}' is above the limit of {MAX_DEGREE}")
    coeffs = [RATFUNC_ZERO] * (degree + 1)
    for k, bucket in buckets.items():
        coeffs[k] = _canonical(table, bucket, den, bits)
    return MainVarPoly(var, tuple(coeffs))


def simplify(r: RatFunc) -> RatFunc:
    """Cancel common univariate factors.

    Canonical form already combines like terms; this also divides out the
    polynomial GCD when the canonical `r` is univariate, i.e. its trimmed
    symbol table holds one symbol, and neither side is a single term.
    Canonical form has cancelled the common monomial, so a one-term side
    `c*t^k` has `k = 0` or faces a nonzero constant term, and the GCD is
    constant either way. The GCD is heuristic (Char, Geddes & Gonnet, JSC
    1989), checked by exact products, so the result is always
    cross-multiplication-equal to the input, and it is `r` itself when
    nothing cancels.
    """
    num, den = r.numerator, r.denominator
    if len(num.symbols) != 1 or len(num.terms) == 1 or len(den.terms) == 1:
        return r
    h, a, b = _heu_gcd(num.terms, den.terms)
    if len(h) == 1:
        return r
    return _canonical(num.symbols, a, b, num.bits)


def _heu_gcd(f: Packed, g: Packed) -> tuple[Packed, Packed, Packed]:
    """`(h, f/h, g/h)`, `h` the primitive GCD over Z (up to sign) of nonzero
    univariate packed dicts, whose keys are exponents (GCDHEU, Char, Geddes
    & Gonnet). At xi = 2**bits > 2*min(|f|, |g|) + 2 in the max norm, with 8
    spare bits, the primitive part `h` of the symmetric base-xi digits of
    gcd(f(xi), g(xi)) is the GCD if it divides both sides, so a constant `h`
    is final. Otherwise the cofactors, read from the integer quotients by
    h(xi), must give back `f` and `g` as exact products with `h`, or xi is
    squared. An unlucky xi only adds a factor dividing the resultant of the
    true cofactors, so a large enough xi reads every digit exactly: the loop
    needs no cap.
    """
    norm = min(max(map(abs, f.values())), max(map(abs, g.values())))
    bits = (2 * norm + 2).bit_length() + 8
    while True:
        fx, gx = _at(f, bits), _at(g, bits)
        hx = gcd(fx, gx)
        h = _digits(hx, bits)
        if h.keys() == {0}:
            return {0: 1}, f, g
        content = gcd(*h.values())
        if content > 1:
            h = {e: c // content for e, c in h.items()}
            hx //= content
        a, b = _digits(fx // hx, bits), _digits(gx // hx, bits)
        if _mul(a, h) == f and _mul(b, h) == g:
            return h, a, b
        bits *= 2


def _at(p: Packed, bits: int) -> int:
    """The univariate `p` evaluated at 2**bits."""
    return sum([c << bits * e for e, c in p.items()])


def _digits(n: int, bits: int, out: Packed | None = None, e: int = 0) -> Packed:
    """The univariate packed dict equal to `n` at 2**bits, with digits in
    [-2**(bits-1), 2**(bits-1)), added to `out` from key `e` on. Each shift
    copies `n`, so above 4096 bits (the fastest cut timed) `n` is halved
    first, the low half's carry moving up."""
    if out is None:
        out = {}
    count = n.bit_length() // bits
    if count > 1 and n.bit_length() > 4096:
        k = count // 2
        _digits(n & (1 << bits * k) - 1, bits, out, e)
        return _digits((n >> bits * k) + out.pop(e + k, 0), bits, out, e + k)
    half, mask = 1 << bits - 1, (1 << bits) - 1
    while n:
        d = ((n + half) & mask) - half
        if d:
            out[e] = d
        n = (n - d) >> bits
        e += 1
    return out
