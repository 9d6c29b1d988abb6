"""Render canonical values as explicit-operator target-dialect text.

Every multiplication is written with `*` (never juxtaposition), powers use
`^` with integer exponents >= 2, and parentheses are minimal under the
precedence table (^ above unary minus above * / above + -). Terms emit in
descending monomial order, so identical inputs give byte-identical text. No
whitespace is emitted except each script line's newline and the vector's `, `.

Only this module decides what Matlab can read back: `check_array_name` refuses
a bad array name, and the script and vector emitters refuse misread symbols.
"""

from __future__ import annotations

import sys

from .algebra import AlgebraError, MainVarPoly, MultiPoly, RatFunc, common_monomial, field_layout
from .parser import is_ascii_identifier

FORMAT_SCRIPT = "script"
FORMAT_VECTOR = "vector"
FORMAT_EXPR = "expr"
FORMATS = (FORMAT_SCRIPT, FORMAT_VECTOR, FORMAT_EXPR)

# Matlab's `iskeyword` list: none of these can name a variable or an array.
MATLAB_KEYWORDS = frozenset(
    "break case catch classdef continue else elseif end for function global if"
    " otherwise parfor persistent return spmd switch try while".split()
)


def check_array_name(name: str) -> None:
    """Raise ValueError unless `name` is an ASCII identifier and not a Matlab
    keyword, so it can name the script's or vector's array."""
    if not is_ascii_identifier(name):
        raise ValueError(f"array name {name!r} is not an ASCII identifier")
    if name in MATLAB_KEYWORDS:
        raise ValueError(f"array name {name!r} is a Matlab keyword")


def _monomial_text(key: int, fields: list[tuple[str, int]], mask: int) -> list[str]:
    parts = []
    for name, s in fields:
        e = key >> s & mask
        if e == 1:
            parts.append(name)
        elif e:
            parts.append(f"{name}^{e}")
    return parts


def _sum_text(terms: dict[int, int], fields: list[tuple[str, int]], mask: int) -> str:
    pieces = []
    for key, coeff in terms.items():
        parts = _monomial_text(key, fields, mask)
        magnitude = abs(coeff)
        if magnitude != 1 or not parts:
            parts.insert(0, str(magnitude))
        sign = "-" if coeff < 0 else ("+" if pieces else "")
        pieces.append(sign + "*".join(parts))
    return "".join(pieces)


def _poly_text(p: MultiPoly) -> tuple[str, bool]:
    """Render a polynomial; the flag reports whether the top level is a sum.

    A multi-term polynomial whose terms all share a monomial factor emits
    factored, e.g. c^4*(t-u) instead of c^4*t-c^4*u.
    """
    terms = p.terms
    if not terms:
        return "0", False
    shifts, mask = field_layout(len(p.symbols), p.bits)
    fields = list(zip(p.symbols, shifts))
    if len(terms) > 1:
        # A constant term, if any, comes last and ends the scan at once.
        g = common_monomial(reversed(terms), shifts, mask)
        if g:
            head = "*".join(_monomial_text(g, fields, mask))
            rest = _sum_text({k - g: c for k, c in terms.items()}, fields, mask)
            return f"{head}*({rest})", False
    return _sum_text(terms, fields, mask), len(terms) > 1


def emit_expr(r: RatFunc) -> str:
    """Explicit-operator rendering of a canonical rational function.

    Numerator and denominator each emit with their common monomial factored
    out (see `_poly_text`). A denominator is wrapped in parentheses unless it
    is a single symbol, power or positive integer: its leading coefficient
    is positive, and names and exponents hold no operator, so that is when
    its text holds no `*`, `+` or `-`. The output re-parses to a value
    cross-multiplication-equal to `r`. A coefficient or exponent beyond
    Python's int/str digit limit raises AlgebraError.
    """
    try:
        num_text, num_is_sum = _poly_text(r.numerator)
        den = r.denominator
        if den.terms == {0: 1}:
            return num_text
        if num_is_sum:
            num_text = f"({num_text})"
        den_text, _ = _poly_text(den)
    except ValueError:
        raise AlgebraError(
            "number is too long to print: Python converts at most "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None
    if "*" in den_text or "+" in den_text or "-" in den_text:
        den_text = f"({den_text})"
    return f"{num_text}/{den_text}"


def _refuse_unreadable(p: MainVarPoly, array_name: str | None) -> None:
    """Raise ValueError on a coefficient symbol that is non-ASCII, a Matlab
    keyword or `array_name`, in that order."""
    used = {s for c in p.coeffs for s in c.numerator.symbols}  # both sides share one table
    hint = "add --rename rules or use --format expr"
    for problem, names in (
        ("non-ASCII symbols remain after renaming", [s for s in used if not s.isascii()]),
        ("symbols that are Matlab keywords", used & MATLAB_KEYWORDS),
    ):
        if names:
            raise ValueError(f"{problem}: {', '.join(sorted(names))} ({hint})")
    if array_name in used:
        raise ValueError(
            f"symbol '{array_name}' is also the array name, so the"
            " script would overwrite it (choose another --name or --rename it)"
        )


def emit_coeff_script(p: MainVarPoly, array_name: str = "P") -> str:
    """One assignment line per coefficient, leading coefficient first.

    Line j (1-based) is `<name>(<j>)=<coefficient of main_var^(degree+1-j)>;`
    so line 1 carries the leading coefficient and the last line the
    constant term. Every line ends with a newline. Raises ValueError on a bad
    array name (see `check_array_name`), then on a coefficient symbol that is
    non-ASCII, a Matlab keyword or the array name, which `P(1)=...;` would
    overwrite before a later line reads it.
    """
    check_array_name(array_name)
    _refuse_unreadable(p, array_name)
    lines = enumerate(reversed(p.coeffs), 1)
    return "".join(f"{array_name}({j})={emit_expr(c)};\n" for j, c in lines)


def emit_coeff_vector(p: MainVarPoly, array_name: str = "P") -> str:
    """Single-line coefficient vector in descending power order.

    Raises ValueError on a bad array name (see `check_array_name`), then on a
    non-ASCII or Matlab-keyword coefficient symbol; a symbol named like the
    array is fine, as `P=[1, P, 0];` reads `P` before it assigns.
    """
    check_array_name(array_name)
    _refuse_unreadable(p, None)
    body = ", ".join(emit_expr(c) for c in reversed(p.coeffs))
    return f"{array_name}=[{body}];"
