"""Output oracle that shares no code with polybridge.

Inputs (in their explicit form) and emitted coefficients are read by the
small parser below into pairs (numerator, denominator) of elements of a
SymPy ring ``ZZ[symbols]``; values are compared by cross-multiplication.
The explicit grammar is polybridge's without juxtaposition, decimals,
escapes or Greek letters:

    sum := product (('+' | '-') product)*
    product := unary (('*' | '/') unary)*
    unary := '-' unary | power
    power := primary ('^' power)?       the exponent cannot start with '-'
    primary := integer | name | '(' sum ')'

SymPy is imported by the benchmark's parent process only; the timed worker
never sees it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from sympy import Symbol
from sympy.polys.domains import ZZ
from sympy.polys.rings import ring

EXIT_SYNTAX = 2
EXIT_NOT_POLYNOMIAL = 3

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()]))")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_SCRIPT_LINE = re.compile(r"P\((\d+)\)=(.+);")
_VECTOR = re.compile(r"P=\[(.*)\];\n", re.S)


class Malformed(Exception):
    """The text is not in the explicit grammar (polybridge exit 2)."""


class NotPolynomial(Exception):
    """Zero denominator or non-integer exponent (polybridge exit 3)."""


def _tokens(text: str) -> list[str]:
    out, pos, end = [], 0, len(text.rstrip())
    while pos < end:
        m = _TOKEN.match(text, pos)
        if m is None:
            raise Malformed(f"unexpected character at {pos}")
        out.append(m.group(m.lastindex))
        pos = m.end()
    return out


class _Reader:
    """Recursive-descent evaluator of the explicit grammar over (num, den)."""

    def __init__(self, text: str, gens: dict):
        self.toks = _tokens(text)
        self.pos = 0
        self.gens = gens
        self.one = next(iter(gens.values())).ring.one

    def value(self):
        if not self.toks:
            raise Malformed("empty expression")
        v = self.sum()
        if self.pos != len(self.toks):
            raise Malformed(f"trailing {self.toks[self.pos]!r}")
        return v

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise Malformed("unexpected end of input")
        self.pos += 1
        return tok

    def sum(self):
        acc = self.product()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.product()
            acc = _add(acc, rhs if op == "+" else (-rhs[0], rhs[1]))
        return acc

    def product(self):
        acc = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.unary()
            acc = _mul(acc, rhs) if op == "*" else _div(acc, rhs)
        return acc

    def unary(self):
        if self.peek() == "-":
            self.take()
            n, d = self.unary()
            return -n, d
        return self.power()

    def power(self):
        base = self.primary()
        if self.peek() == "^":
            self.take()
            return _pow(base, self.power())
        return base

    def primary(self):
        tok = self.take()
        if tok.isdigit():
            return self.one * int(tok), self.one
        if _NAME.fullmatch(tok):
            if tok not in self.gens:
                raise Malformed(f"unknown symbol {tok!r}")
            return self.gens[tok], self.one
        if tok == "(":
            inner = self.sum()
            if self.take() != ")":
                raise Malformed("missing ')'")
            return inner
        raise Malformed(f"expected an operand, found {tok!r}")


def _add(a, b):
    (n1, d1), (n2, d2) = a, b
    if d1 == d2:
        return n1 + n2, d1
    return n1 * d2 + n2 * d1, d1 * d2


def _mul(a, b):
    return a[0] * b[0], a[1] * b[1]


def _div(a, b):
    if not b[0]:
        raise NotPolynomial("division by zero")
    return a[0] * b[1], a[1] * b[0]


def _pow(base, exponent):
    n, d = exponent
    if not (n.is_ground and d.is_ground) or n.LC % d.LC:
        raise NotPolynomial("exponent is not an integer constant")
    k = int(n.LC // d.LC)
    if k >= 0:
        return base[0] ** k, base[1] ** k
    if not base[0]:
        raise NotPolynomial("zero to a negative power")
    return base[1] ** -k, base[0] ** -k


def make_ring(text: str, var: str):
    """The ring over every name in `text` plus the main variable."""
    names = sorted(set(_NAME.findall(text)) | {var})
    R, *gens = ring([Symbol(n) for n in names], ZZ)
    return dict(zip(names, gens))


def evaluate(text: str, gens: dict):
    """The (numerator, denominator) pair that `text` denotes."""
    return _Reader(text, gens).value()


@dataclass(frozen=True)
class Expected:
    """What polybridge must produce for one input.

    `code` is the exit code. On success `values` holds the (num, den) pairs
    the output must equal: coefficients leading first for script/vector, the
    whole value for expr.
    """

    code: int
    fmt: str = "script"
    gens: dict | None = None
    values: tuple = ()


def expect(explicit: str, fmt: str, var: str = "x") -> Expected:
    """Derive the expected result from the explicit form alone."""
    try:
        gens = make_ring(explicit, var)
        num, den = evaluate(explicit, gens)
    except Malformed:
        return Expected(EXIT_SYNTAX)
    except NotPolynomial:
        return Expected(EXIT_NOT_POLYNOMIAL)
    if fmt == "expr":
        return Expected(0, fmt, gens, ((num, den),))
    if not den.is_ground:
        num, den = num.cancel(den)
    R = den.ring
    vi = R.gens.index(gens[var])
    if den.degree(vi) > 0:
        return Expected(EXIT_NOT_POLYNOMIAL)
    buckets: dict[int, dict] = {}
    for monom, c in num.items():
        rest = monom[:vi] + (0,) + monom[vi + 1 :]
        buckets.setdefault(monom[vi], {})[rest] = c
    degree = max(buckets, default=0)
    coeffs = tuple(
        (R.from_dict(buckets.get(k, {})), den) for k in range(degree, -1, -1)
    )
    return Expected(0, fmt, gens, coeffs)


def _coefficient_texts(out: str, fmt: str) -> list[str]:
    if fmt == "expr":
        if not out.endswith("\n") or "\n" in out[:-1]:
            raise Malformed("expr output is not one line")
        return [out[:-1]]
    if fmt == "vector":
        m = _VECTOR.fullmatch(out)
        if m is None:
            raise Malformed("not a coefficient vector")
        return m.group(1).split(", ")
    if not out.endswith("\n"):
        raise Malformed("script does not end with a newline")
    texts = []
    for j, line in enumerate(out[:-1].split("\n"), start=1):
        m = _SCRIPT_LINE.fullmatch(line)
        if m is None or int(m.group(1)) != j:
            raise Malformed(f"bad script line {j}")
        texts.append(m.group(2))
    return texts


def check(exp: Expected, code: int, out: str, err: str) -> bool:
    """True when (exit code, stdout, stderr) meets the expectation.

    An input expected to fail must exit with that code, write nothing to
    stdout and a diagnostic without a traceback to stderr. A success writes
    ASCII coefficients equal to the expected ones and nothing to stderr.
    """
    if exp.code:
        return code == exp.code and out == "" and bool(err) and "Traceback" not in err
    if code != 0 or err or not out.isascii():
        return False
    try:
        texts = _coefficient_texts(out, exp.fmt)
        got = [evaluate(t, exp.gens) for t in texts]
    except (Malformed, NotPolynomial):
        return False
    if len(got) != len(exp.values):
        return False
    return all(n * D == N * d for (n, d), (N, D) in zip(got, exp.values))


def corrupt_coefficient(out: str, fmt: str) -> str:
    """`out` with one digit of its first coefficient changed, or a +1 added."""
    first = _coefficient_texts(out, fmt)[0]
    start = {"script": len("P(1)="), "vector": len("P=[")}.get(fmt, 0)
    digits = [i for i, ch in enumerate(first) if ch.isdigit()]
    if digits:
        i = digits[0]
        bad = first[:i] + str((int(first[i]) + 1) % 10) + first[i + 1 :]
    else:
        bad = first + "+1"
    return out[:start] + bad + out[start + len(first) :]


def self_test(exp: Expected | None = None, out: str | None = None) -> list[str]:
    """Show that the oracle rejects wrong results; returns what it missed.

    The fixed cases cover a corrupted coefficient, a wrong exit code, and
    stdout bytes on an input expected to fail; with `exp`/`out` (a checked
    success from the workload) a corrupted real coefficient is tried too.
    """
    good = expect("(a+1)*x^2+b/2", "script")
    good_out = "P(1)=a+1;\nP(2)=0;\nP(3)=b/2;\n"
    bad = expect("1/(x+a)", "script")
    wrong_accepted = {
        "correct output rejected": not check(good, 0, good_out, ""),
        "correct failure rejected": not check(bad, 3, "", "error: denominator\n"),
        "corrupted coefficient": check(good, 0, good_out.replace("b/2", "b/3"), ""),
        "wrong exit code": check(good, 3, good_out, ""),
        "wrong failure code": check(bad, 2, "", "error: x\n"),
        "stdout on failure": check(bad, 3, "P(1)=1;\n", "error: x\n"),
    }
    if exp is not None:
        wrong_accepted["corrupted workload coefficient"] = check(
            exp, 0, corrupt_coefficient(out, exp.fmt), ""
        )
    return [name for name, missed in wrong_accepted.items() if missed]
