"""Seeded inputs for the benchmark's workloads.

Each case is what one conversion reads: `text` goes to polybridge on stdin,
`explicit` is the same expression in the oracle's plain grammar (ASCII
names, every `*` written, decimals as fractions), and `fmt` is the
`--format` value. The same seed always gives the same cases.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from random import Random
from typing import NamedTuple

FIXTURE = Path("tests", "fixtures", "det3x3.txt")


class Case(NamedTuple):
    text: str
    explicit: str
    fmt: str


def det3x3(root: Path, seed: int) -> list[Case]:
    """The paper's stress fixture as committed; the seed is not used."""
    text = (root / FIXTURE).read_text(encoding="utf-8")
    return [Case(text, text, "script")]


FLAT_SUMS = 4
FLAT_TERMS = 300
FLAT_PARAMS = "abcdefgh"


def flat_sum(root: Path, seed: int) -> list[Case]:
    """Already-expanded sums of `c*monomial*x^k` terms: addition, no products."""
    rng = Random(f"flat_sum:{seed}")
    cases = []
    for _ in range(FLAT_SUMS):
        terms = []
        for _ in range(FLAT_TERMS):
            factors = [str(rng.randint(1, 999))]
            for name in rng.sample(FLAT_PARAMS, rng.randint(1, 3)):
                e = rng.randint(1, 3)
                factors.append(name if e == 1 else f"{name}^{e}")
            k = rng.randint(0, 8)
            if k:
                factors.append("x" if k == 1 else f"x^{k}")
            sign = rng.choice("+-") if terms else rng.choice(["", "-"])
            terms.append(sign + "*".join(factors))
        text = "".join(terms)
        cases.append(Case(text, text, "script"))
    return cases


NOTEBOOK_LINES = 600
NOTEBOOK_MALFORMED = 24  # 4%: expected to exit 2
NOTEBOOK_NON_POLY = 18  # 3%: expected to exit 3
NOTEBOOK_RATIONAL = 90  # univariate-in-t coefficients that simplify cancels
# script twice as often as vector or expr
NOTEBOOK_FORMATS = ("script", "vector", "script", "expr")

# (as typed, ASCII name polybridge's Greek defaults give it)
_ASCII_NAMES = [(n, n) for n in ("a", "b", "c", "k", "m", "r", "s", "u", "w", "q1", "p_2", "Vmax")]
_GREEK_NAMES = [
    ("α", "alpha"), ("β", "beta"), ("γ", "gamma"), ("δ", "delta"),
    ("ε", "epsilon"), ("θ", "theta"), ("κ", "kappa"), ("λ", "lambda"),
    ("μ", "mu"), ("σ", "sigma"), ("φ", "phi"), ("ω", "omega"), ("Ω", "Omega"),
    ("Δ", "Delta"), ("γ_b", "gamma_b"), ("Ωb", "Omega_b"), ("μ0", "mu_0"),
    (r"\[Beta]", "beta"), (r"\[Gamma]", "gamma"), (r"\[Lambda]", "lambda"),
    (r"\[CapitalOmega]", "Omega"),
]
_DECIMALS = ("0.5", "1.25", "2.5", "0.125", ".75", "3.0", "0.05")

_MALFORMED = [
    ("{a}*x^^2", "{a}*x^^2"),
    ("({a}+x", "({a}+x"),
    ("{a}[1]*x", "{a}[1]*x"),
    ("2*x+", "2*x+"),
    ("x^-2+{a}", "x^-2+{a}"),
    ("{a}*x)", "{a}*x)"),
    ("3..5*x", "3..5*x"),
    (r"\[Bta]*x", r"\[Bta]*x"),
    (";", ""),
]
_NON_POLY = [
    "{a}/(x+{n})",
    "x^{a}+1",
    "{a}*x^2/({b}-{b})",
    "x^(1/2)+{a}",
    "{a}/x^2+x",
]


def _decimal(text: str) -> str:
    f = Fraction(text)
    return str(f.numerator) if f.denominator == 1 else f"({f.numerator}/{f.denominator})"


def _factor_coeff(rng: Random) -> tuple[list[str], list[str]]:
    """Factors of one coefficient, as typed and explicit; a number comes first."""
    kind = rng.choice(("int", "int names", "names", "decimal names"))
    typed, explicit = [], []
    if kind.startswith("int"):
        n = str(rng.randint(2, 12))
        typed.append(n)
        explicit.append(n)
    elif kind.startswith("decimal"):
        d = rng.choice(_DECIMALS)
        typed.append(d)
        explicit.append(_decimal(d))
    if kind.endswith("names"):
        pool = _GREEK_NAMES if rng.random() < 0.6 else _ASCII_NAMES
        for t, e in rng.sample(pool, rng.randint(1, 2)):
            typed.append(t)
            explicit.append(e)
    return typed, explicit


def _x_power(k: int) -> str:
    return "x" if k == 1 else f"x^{k}"


def _join_typed(factors: list[str], rng: Random) -> str:
    style = rng.choice((" ", "*", ""))
    out = factors[0]
    for prev, f in zip(factors, factors[1:]):
        # Juxtaposing without a space only after a number, where it lexes as
        # two tokens (2x, 0.5β); after a name it would extend the identifier.
        number = prev[0].isdigit() or prev[0] == "."
        out += style if style or number else " "
        out += f
    return out


def _plain_line(rng: Random, degree: int) -> tuple[str, str]:
    typed_terms, explicit_terms = [], []
    for k in range(degree, -1, -1):
        if k < degree and rng.random() < 0.3:
            continue
        typed, explicit = _factor_coeff(rng)
        if k:
            typed.append(_x_power(k))
            explicit.append(_x_power(k))
        sign = "-" if rng.random() < 0.3 else "+"
        typed_terms.append((sign, _join_typed(typed, rng)))
        explicit_terms.append((sign, "*".join(explicit)))
    return _join_terms(typed_terms), _join_terms(explicit_terms)


def _rational_coeff(rng: Random) -> str:
    r = rng.randint(1, 5)
    return rng.choice(
        (
            f"(t^2-{r * r})/(t-{r})",
            f"(t^2-{r * r})/(t+{r})",
            f"(t^3-{r}*t^2)/(t^2-{r}*t)",
            f"{r}*(t+{r})",
            f"t/(t+{r})",
            f"{r}",
        )
    )


def _rational_line(rng: Random, degree: int) -> tuple[str, str]:
    terms = []
    for k in range(degree, -1, -1):
        coeff = _rational_coeff(rng)
        terms.append(("+", f"{coeff}*{_x_power(k)}" if k else coeff))
    text = _join_terms(terms)
    return text, text


def _join_terms(terms: list[tuple[str, str]]) -> str:
    first_sign, first = terms[0]
    out = ("-" if first_sign == "-" else "") + first
    for sign, term in terms[1:]:
        out += f" {sign} {term}"
    return out


def _fill(templates: tuple[str, ...], rng: Random) -> tuple[str, ...]:
    a, b = rng.sample([n for n, _ in _ASCII_NAMES], 2)
    n = rng.randint(1, 9)
    return tuple(t.format(a=a, b=b, n=n) for t in templates)


def notebook(root: Path, seed: int) -> list[Case]:
    """A stream of short README-style lines in all three formats.

    Fixed quotas per category keep the mix the same for every seed: plain
    lines with Greek letters, escapes, decimals and juxtaposition; lines whose
    coefficients are univariate rational functions of t; malformed lines
    (exit 2) and lines that are not polynomials in x (exit 3).
    """
    rng = Random(f"notebook:{seed}")
    pairs = []
    for i in range(NOTEBOOK_MALFORMED):
        pairs.append(_fill(_MALFORMED[i % len(_MALFORMED)], rng))
    for i in range(NOTEBOOK_NON_POLY):
        pairs.append(_fill((_NON_POLY[i % len(_NON_POLY)],) * 2, rng))
    # Degrees 1, 2, 3 in turn rather than drawn, so every seed has the same mix.
    pairs += [_rational_line(rng, 1 + i % 3) for i in range(NOTEBOOK_RATIONAL)]
    plain = NOTEBOOK_LINES - len(pairs)
    pairs += [_plain_line(rng, 1 + i % 3) for i in range(plain)]
    rng.shuffle(pairs)
    cases = []
    for i, (typed, explicit) in enumerate(pairs):
        if explicit and rng.random() < 0.3:
            typed += ";"  # notebook lines are pasted with their terminator
        cases.append(Case(typed, explicit, NOTEBOOK_FORMATS[i % len(NOTEBOOK_FORMATS)]))
    return cases


WORKLOADS = {"det3x3": det3x3, "flat_sum": flat_sum, "notebook": notebook}
