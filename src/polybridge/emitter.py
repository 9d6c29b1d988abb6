"""Render canonical values as explicit-operator target-dialect text.

Every multiplication is written with `*` (never juxtaposition), powers use
`^` with integer exponents >= 2, and parentheses are minimal under the
precedence table (^ above unary minus above * / above + -). Terms emit in
descending monomial order, so identical inputs give byte-identical text. No
whitespace is emitted except each script line's newline and the vector's `, `.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .algebra import AlgebraError, MainVarPoly, Monomial, MultiPoly, RatFunc, monomial_gcd
from .parser import is_ascii_identifier

FORMAT_SCRIPT = "script"
FORMAT_VECTOR = "vector"
FORMAT_EXPR = "expr"
FORMATS = (FORMAT_SCRIPT, FORMAT_VECTOR, FORMAT_EXPR)


@dataclass(frozen=True)
class EmitConfig:
    """Target array name of the script and vector formats.

    Construction raises ValueError unless the name is an ASCII identifier.
    """

    array_name: str = "P"

    def __post_init__(self):
        if not is_ascii_identifier(self.array_name):
            raise ValueError(f"array name {self.array_name!r} is not an ASCII identifier")


def _monomial_text(symbols: tuple[str, ...], mono: Monomial) -> list[str]:
    parts = []
    for name, e in zip(symbols, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return parts


def _term_text(symbols: tuple[str, ...], mono: Monomial, coeff: int) -> str:
    magnitude = abs(coeff)
    parts = _monomial_text(symbols, mono)
    if magnitude != 1 or not parts:
        parts.insert(0, str(magnitude))
    return "*".join(parts)


def _sum_text(p: MultiPoly) -> str:
    pieces = []
    for mono, coeff in p.terms.items():
        sign = "-" if coeff < 0 else ("+" if pieces else "")
        pieces.append(sign + _term_text(p.symbols, mono, coeff))
    return "".join(pieces)


def _poly_text(p: MultiPoly) -> tuple[str, bool]:
    """Render a polynomial; the flag reports whether the top level is a sum.

    A multi-term polynomial whose terms all share a monomial factor emits
    factored, e.g. c^4*(t-u) instead of c^4*t-c^4*u.
    """
    if p.is_zero():
        return "0", False
    if len(p.terms) > 1:
        # A constant term, if any, comes last and ends the scan at once.
        common = monomial_gcd(reversed(p.terms))
        if common is not None:
            head = "*".join(_monomial_text(p.symbols, common))
            return f"{head}*({_sum_text(p.div_monomial(common))})", False
    return _sum_text(p), len(p.terms) > 1


def _is_divisor_atom(p: MultiPoly) -> bool:
    """True when a denominator needs no parentheses after '/'.

    That is a single symbol, a single power, or a single integer; anything
    else (products, sums, coefficients != 1) is wrapped.
    """
    if len(p.terms) != 1:
        return False
    (mono, coeff), = p.terms.items()
    if not any(mono):
        return coeff > 0
    return coeff == 1 and sum(1 for e in mono if e) == 1


def emit_expr(r: RatFunc) -> str:
    """Explicit-operator rendering of a canonical rational function.

    Numerator and denominator each emit with their common monomial factored
    out (see `_poly_text`). The output re-parses to a value
    cross-multiplication-equal to `r`. A coefficient or exponent beyond
    Python's int/str digit limit raises AlgebraError.
    """
    try:
        num_text, num_is_sum = _poly_text(r.numerator)
        den = r.denominator
        if den.is_constant() and den.constant_value() == 1:
            return num_text
        if num_is_sum:
            num_text = f"({num_text})"
        den_text, _ = _poly_text(den)
    except ValueError:
        raise AlgebraError(
            "number is too long to print: Python converts at most "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None
    if not _is_divisor_atom(den):
        den_text = f"({den_text})"
    return f"{num_text}/{den_text}"


def emit_coeff_script(p: MainVarPoly, cfg: EmitConfig) -> str:
    """One assignment line per coefficient, leading coefficient first.

    Line j (1-based) is `<name>(<j>)=<coefficient of main_var^(degree+1-j)>;`
    so line 1 carries the leading coefficient and the last line the
    constant term. Every line ends with a newline.
    """
    degree = p.degree
    lines = []
    for j in range(1, degree + 2):
        lines.append(f"{cfg.array_name}({j})={emit_expr(p.coeffs[degree + 1 - j])};\n")
    return "".join(lines)


def emit_coeff_vector(p: MainVarPoly, cfg: EmitConfig) -> str:
    """Single-line coefficient vector in descending power order."""
    body = ", ".join(emit_expr(c) for c in reversed(p.coeffs))
    return f"{cfg.array_name}=[{body}];"
