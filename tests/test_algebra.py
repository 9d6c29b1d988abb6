from fractions import Fraction
from itertools import chain
from math import gcd
from pathlib import Path
from random import Random

import pytest

import polybridge.algebra
from polybridge import (
    collect_main_var,
    emit_expr,
    normalize,
    parse,
    simplify,
    substitute,
)
from polybridge.algebra import (
    RATFUNC_ZERO,
    AlgebraError,
    NotPolynomialInVar,
    RatFunc,
    SymbolicExponent,
    ZeroDenominator,
    _digits,
    _mul,
    _pow,
    _to_num_den,
)
from polybridge.expr import (
    IntegerLit,
    Power,
    Product,
    Quotient,
    RationalLit,
    Sum,
    SymbolRef,
    make_product,
    make_sum,
    symbols_of,
)

from genlib import (
    DivisionByZeroAtPoint,
    UnboundSymbol,
    canonical_of,
    canonical_width,
    constant_value,
    degree_by_finite_differences,
    eval_at,
    eval_at_valid_point,
    flat_tree,
    make_poly,
    make_ratfunc,
    naive_power,
    naive_product,
    pack,
    rand_canonical_input,
    rand_expr_tree,
    rand_main_var_poly_expr,
    rand_point,
    rand_ratfunc,
    ratfunc_equal,
    reference_collect,
    reference_num_den,
    tree_depth,
    unpack,
)


def frac(n, d=1):
    return Fraction(n, d)


class TestNormalize:
    def test_like_terms_combine(self):
        r = normalize(Product((SymbolRef("x"), SymbolRef("x"))))
        assert unpack(r.numerator) == {(2,): frac(1)}
        assert r.denominator.terms == {0: 1}

    def test_reference_quotient_expands_denominator(self):
        r = normalize(parse("a^2 b^3/(c^4 (t-u))"))
        assert r.numerator.symbols == ("a", "b", "c", "t", "u")
        assert unpack(r.numerator) == {(2, 3, 0, 0, 0): frac(1)}
        assert unpack(r.denominator) == {
            (0, 0, 4, 1, 0): frac(1),
            (0, 0, 4, 0, 1): frac(-1),
        }

    def test_cancellation_to_zero(self):
        r = normalize(parse("x-x"))
        assert r is RATFUNC_ZERO
        assert r.numerator.terms == {}
        assert r.denominator.terms == {0: 1}

    def test_numeric_content_absorbed(self):
        r = normalize(parse("(2*x+2)/2"))
        assert unpack(r.numerator) == {(1,): frac(1), (0,): frac(1)}
        assert r.denominator.terms == {0: 1}

    def test_negative_denominator_leading_coefficient_flipped(self):
        r = normalize(parse("x/(u-t)"))
        # canonical: denominator leading coefficient is positive
        den = r.denominator.terms
        assert den[max(den)] > 0
        assert emit_expr(r) == "-x/(t-u)"

    def test_common_monomial_cancelled(self):
        r = normalize(parse("(a^2*b)/(a*b)"))
        assert unpack(r.numerator) == {(1,): frac(1)}
        assert r.numerator.symbols == ("a",)
        assert r.denominator.terms == {0: 1}

    def test_negative_exponent_goes_to_denominator(self):
        r = normalize(parse("x^(-2)"))
        assert r.numerator.terms == {0: 1}
        assert unpack(r.denominator) == {(2,): frac(1)}

    def test_integral_decimal_exponent_accepted(self):
        assert normalize(parse("x^2.0")) == normalize(parse("x^2"))

    def test_exponent_zero(self):
        assert constant_value(normalize(parse("x^0"))) == 1

    def test_symbolic_exponent_rejected(self):
        with pytest.raises(SymbolicExponent):
            normalize(parse("x^y"))
        with pytest.raises(SymbolicExponent):
            normalize(parse("x^0.5"))
        with pytest.raises(SymbolicExponent):
            normalize(parse("2^(1/3)"))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDenominator):
            normalize(parse("1/(x-x)"))
        with pytest.raises(ZeroDenominator):
            normalize(parse("(x+1)/0"))
        with pytest.raises(ZeroDenominator):
            normalize(parse("0^(-1)"))

    def test_error_carries_span(self):
        with pytest.raises(SymbolicExponent) as exc:
            normalize(parse("x^y"))
        assert exc.value.span == (2, 3)


class TestRatFuncEqual:
    def test_identical_representation(self):
        assert ratfunc_equal(normalize(parse("x")), normalize(parse("x")))

    def test_unreduced_pair_equal(self):
        a = normalize(parse("(a^2-b^2)/(a-b)"))
        b = normalize(parse("a+b"))
        # distinct representations (no multivariate GCD is performed) ...
        assert a != b
        # ... equal by cross-multiplication
        assert ratfunc_equal(a, b)
        # independent oracle: evaluation at random points
        rng = Random(7)
        for _ in range(20):
            point = rand_point(rng, ("a", "b"))
            if point["a"] == point["b"]:
                continue
            assert eval_at(a, point) == eval_at(b, point)

    def test_distinct_polynomials(self):
        assert not ratfunc_equal(normalize(parse("x")), normalize(parse("x+1")))

    def test_tables_merge(self):
        assert ratfunc_equal(normalize(parse("a")), normalize(parse("a+b-b")))

    @pytest.mark.parametrize("top", [127, 128, 255, 256])
    def test_matches_naive_cross_multiplication(self, top):
        # Pairs whose cross products are equal, or not, by construction.
        rng = Random(139 + top)
        pairs = [(*carry_pair(top), False), (RATFUNC_ZERO, RATFUNC_ZERO, True)]
        for _ in range(60):
            symbols = tuple(sorted(rng.sample(("a", "b", "c", "d"), rng.randint(0, 2))))
            r = rand_side(rng, symbols, top)
            table = r.numerator.symbols  # trimmed to the symbols that occur
            g = rand_terms(rng, len(table), 2, rng.randint(0, 3))
            times_g = make_ratfunc(
                make_poly(table, naive_product(unpack(r.numerator), g)),
                make_poly(table, naive_product(unpack(r.denominator), g)),
            )
            bumped_terms = unpack(r.numerator)
            corner = (top,) * len(table)
            bumped_terms[corner] = bumped_terms.get(corner, 0) + 7
            bumped = make_ratfunc(make_poly(table, bumped_terms), r.denominator)
            pairs += [(r, times_g, True), (r, bumped, False)]
            pairs.append((r, RATFUNC_ZERO, not r.numerator.terms))
            # Nested, and overlapping or disjoint, symbol tables.
            e1, e2 = rng.sample([s for s in ("a", "b", "c", "d") if s not in table], 2)
            up, bumped_up = with_symbol(rng, r, e1)
            other, _ = with_symbol(rng, r, e2)
            pairs += [(r, up, True), (r, bumped_up, False)]
            pairs += [(up, other, True), (bumped_up, other, False)]
        seen, mixed = set(), 0
        for a, b, want in pairs:
            assert ratfunc_equal(a, b) is want and ratfunc_equal(b, a) is want
            sides = (a.numerator, a.denominator, b.numerator, b.denominator)
            seen.add(max(top_exponent(unpack(p)) for p in sides))
            tables = {a.numerator.symbols, b.numerator.symbols}
            mixed += len(tables) == 2 and () not in tables
        assert top in seen
        assert mixed >= 100


def with_symbol(rng: Random, r: RatFunc, extra: str) -> tuple[RatFunc, RatFunc]:
    """`r*g/g` and `r + 7*extra/den(r)`, over `r`'s symbols and `extra`.

    `g` is `extra + 1` plus random terms, so both values use `extra`
    unless `r` is zero; the first equals `r` and the second does not.
    """
    table = tuple(sorted({*r.numerator.symbols, extra}))
    at, width = table.index(extra), len(table)

    def lift(p) -> dict:
        return {m[:at] + (0,) + m[at:]: c for m, c in unpack(p).items()}

    unit = tuple(int(i == at) for i in range(width))
    g = {**rand_terms(rng, width, 1, rng.randint(0, 3)), unit: 1, (0,) * width: 1}
    num, den = lift(r.numerator), lift(r.denominator)
    times_g = make_ratfunc(
        make_poly(table, naive_product(num, g)), make_poly(table, naive_product(den, g))
    )
    bumped = make_ratfunc(make_poly(table, {**num, unit: 7}), make_poly(table, den))
    return times_g, bumped


def rand_side(rng: Random, symbols: tuple[str, ...], top: int) -> RatFunc:
    """A canonical value over `symbols` whose exponents reach up to `top`."""
    width = len(symbols)
    num = {} if rng.random() < 0.1 else rand_terms(rng, width, rng.randint(0, 3), top)
    den = rand_terms(rng, width, rng.randint(0, 2), rng.choice((0, top))) or {(): 1}
    return make_ratfunc(make_poly(symbols, num), make_poly(symbols, den))


def carry_pair(top: int) -> tuple[RatFunc, RatFunc]:
    """Unequal values whose cross products collide if a field holds only `top`.

    y^top*(y^top+1) and x*y^r+y^top differ, but with fields of
    top.bit_length() bits y^(2*top) carries into x's field as x*y^r.
    """
    r = 2 * top - (1 << top.bit_length())
    a = make_ratfunc(make_poly(("y",), {(top,): 1}), make_poly(("y",), {(0,): 1}))
    b = make_ratfunc(
        make_poly(("x", "y"), {(1, r): 1, (0, top): 1}),
        make_poly(("x", "y"), {(0, top): 1, (0, 0): 1}),
    )
    return a, b


class TestDegreeAndCoefficients:
    def test_degree_of_product(self):
        assert collect_main_var(parse("(x+1)*(x+2)"), "x").degree == 2

    def test_degree_of_var_free_expression(self):
        assert collect_main_var(parse("a^2 b^3/(c^4 (t-u))"), "x").degree == 0

    def test_degree_of_zero(self):
        assert collect_main_var(parse("x-x"), "x").degree == 0

    def test_degree_against_finite_difference_oracle(self):
        rng = Random(23)
        entries = [
            [
                " + ".join(
                    f"{rng.randint(1, 9)}*{p}*x^{k}"
                    for k, p in enumerate(("a", "b", "c", "a", "b", "c"))
                )
                for _ in range(3)
            ]
            for _ in range(3)
        ]
        m = [[f"({cell})" for cell in row] for row in entries]
        det = (
            f"{m[0][0]}*({m[1][1]}*{m[2][2]}-{m[1][2]}*{m[2][1]})"
            f"-{m[0][1]}*({m[1][0]}*{m[2][2]}-{m[1][2]}*{m[2][0]})"
            f"+{m[0][2]}*({m[1][0]}*{m[2][1]}-{m[1][1]}*{m[2][0]})"
        )
        tree = parse(det)
        claimed = collect_main_var(tree, "x").degree
        params = rand_point(rng, ("a", "b", "c"))
        oracle = degree_by_finite_differences(
            lambda xv: eval_at(tree, {**params, "x": xv}), max_degree=15
        )
        assert claimed == oracle

    def test_laurent_input_rejected(self):
        with pytest.raises(NotPolynomialInVar):
            collect_main_var(parse("1/x"), "x")
        with pytest.raises(NotPolynomialInVar):
            collect_main_var(parse("x^(-1)+x"), "x")

    def test_identity_coefficient(self):
        assert constant_value(collect_main_var(parse("x"), "x").coeffs[1]) == 1

    def test_binomial_coefficient(self):
        got = collect_main_var(parse("(x+a)^3"), "x").coeffs[1]
        assert ratfunc_equal(got, normalize(parse("3*a^2")))

    def test_extraction_without_precollection(self):
        shuffled = parse("c1*x + c0 + c2*x^2")
        got = collect_main_var(shuffled, "x").coeffs[2]
        assert ratfunc_equal(got, normalize(parse("c2")))
        assert "x" not in got.numerator.symbols

    def test_collect_expansion(self):
        p = collect_main_var(parse("(x+1)*(x+2)"), "x")
        assert p.degree == 2
        assert [constant_value(c) for c in p.coeffs] == [2, 3, 1]

    def test_collect_symbolic(self):
        p = collect_main_var(parse("β*x + γ"), "x")
        assert p.degree == 1
        assert ratfunc_equal(p.coeffs[0], normalize(parse("γ")))
        assert ratfunc_equal(p.coeffs[1], normalize(parse("β")))

    def test_collect_zero_polynomial(self):
        p = collect_main_var(parse("x-x"), "x")
        assert p.degree == 0
        assert p.coeffs == (RATFUNC_ZERO,)

    def test_rational_coefficients(self):
        p = collect_main_var(parse("x/2 + a/(3*b)"), "x")
        assert p.degree == 1
        assert ratfunc_equal(p.coeffs[1], normalize(parse("1/2")))
        assert ratfunc_equal(p.coeffs[0], normalize(parse("a/(3*b)")))

    def test_reconstruction_identity_exact(self):
        rng = Random(41)
        for _ in range(60):
            tree, _ = rand_main_var_poly_expr(rng)
            p = collect_main_var(tree, "x")
            rebuilt = make_sum(
                [
                    make_product(
                        [
                            parse(f"({emit_expr(c)})"),
                            Power(SymbolRef("x"), IntegerLit(k)),
                        ]
                    )
                    for k, c in enumerate(p.coeffs)
                ]
            )
            assert ratfunc_equal(normalize(rebuilt), normalize(tree))
            assert all("x" not in c.numerator.symbols for c in p.coeffs)
            assert all("x" not in c.denominator.symbols for c in p.coeffs)

    def test_degree_additivity(self):
        rng = Random(59)

        def numeric_leading_poly(degree):
            terms = [
                Product((IntegerLit(rng.randint(1, 9)), Power(SymbolRef("x"), IntegerLit(degree))))
            ]
            for k in range(degree):
                c = rng.randint(-9, 9)
                if c:
                    terms.append(
                        Product((IntegerLit(c), Power(SymbolRef("x"), IntegerLit(k))))
                    )
            terms.append(SymbolRef("a"))
            return make_sum(terms)

        for _ in range(25):
            d1, d2 = rng.randint(1, 5), rng.randint(1, 5)
            e1, e2 = numeric_leading_poly(d1), numeric_leading_poly(d2)
            assert collect_main_var(Product((e1, e2)), "x").degree == d1 + d2


class TestSubstitute:
    def test_greek_replacement(self):
        e = parse("β*x + γ")
        out = substitute(e, {"β": SymbolRef("beta"), "γ": SymbolRef("gamma")})
        assert out == parse("beta*x + gamma")

    def test_empty_map_is_identity(self):
        e = parse("β*x + γ")
        assert substitute(e, {}) is e

    def test_simultaneous_swap(self):
        e = parse("x + y")
        out = substitute(e, {"x": SymbolRef("y"), "y": SymbolRef("x")})
        assert out == parse("y + x")

    def test_substitute_expression_values(self):
        e = parse("x^2")
        out = substitute(e, {"x": parse("y+1")})
        assert ratfunc_equal(normalize(out), normalize(parse("(y+1)^2")))

    def test_unchanged_subtrees_are_kept_and_spans_survive(self):
        e = parse("(a+b)^2/c + β*x")
        out = substitute(e, {"β": SymbolRef("beta")})
        assert out.terms[0] is e.terms[0]
        assert out.terms[1].factors[1] is e.terms[1].factors[1]
        renamed = flat_tree(out)
        assert renamed[:-2] == flat_tree(e)[:-2]
        assert renamed[-2:] == [("SymbolRef", "beta", 0, None), ("SymbolRef", "x", 0, (14, 15))]

    def test_deep_chain(self):
        # Deep trees are compared with flat_tree: dataclass `==` recurses.
        n = 5000
        e = parse("-" * n + "β")
        out = substitute(e, {"β": SymbolRef("beta")})
        assert symbols_of(out) == {"beta"}
        assert tree_depth(out) == n + 1
        assert flat_tree(out)[:-1] == flat_tree(e)[:-1]


DEEP_TREES = {
    "minus_2000": "-" * 2000 + "x",
    "tower": "^".join(["2"] * 1500),
}
ENTRY_POINTS = {
    "normalize": normalize,
    "collect_main_var": lambda e: collect_main_var(e, "x"),
}


class TestDeepTrees:
    """Trees too deep for `_to_num_den`'s recursion fail as AlgebraError."""

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("name", sorted(DEEP_TREES))
    def test_nested_too_deeply(self, name, entry):
        tree = parse(DEEP_TREES[name])
        with pytest.raises(AlgebraError) as exc:
            ENTRY_POINTS[entry](tree)
        assert type(exc.value) is AlgebraError
        assert (str(exc.value), exc.value.span) == ("expression is nested too deeply", None)
        assert exc.value.__cause__ is None and exc.value.__suppress_context__


class TestPowerLimit:
    """Past MAX_DEGREE only a base of 0 or ±1 times a monomial is raised."""

    @pytest.fixture(autouse=True)
    def small_limit(self, monkeypatch):
        monkeypatch.setattr(polybridge.algebra, "MAX_DEGREE", 5)

    @pytest.mark.parametrize(
        "text, span",
        [
            ("(a+b)^6", (1, 7)),
            ("2^6", (0, 3)),
            ("(x/2)^6", (1, 7)),
            ("c*(a-1)^(-6)", (3, 11)),
            ("(3*a)^6", (1, 7)),
            ("1+(a+1)^2^3", (3, 11)),
        ],
    )
    def test_refused(self, text, span):
        with pytest.raises(AlgebraError) as exc:
            normalize(parse(text))
        assert str(exc.value) == "exponent magnitude is above the limit of 5"
        assert exc.value.span == span

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("a^6", "a^6"),
            ("(-a)^7", "-a^7"),
            ("0^9", "0"),
            ("1^9", "1"),
            ("(a*b/c)^(-6)", "c^6/(a^6*b^6)"),
            ("1+a^2^3", "a^8+1"),
            ("(a+b)^5", "a^5+5*a^4*b+10*a^3*b^2+10*a^2*b^3+5*a*b^4+b^5"),
        ],
    )
    def test_kept(self, text, expected):
        assert emit_expr(normalize(parse(text))) == expected


class TestSimplify:
    def test_bivariate_not_cancelled(self):
        r = normalize(parse("(a^2-b^2)/(a-b)"))
        assert simplify(r) == r

    def test_univariate_gcd_cancelled(self):
        r = normalize(parse("(t^2-1)/(t-1)"))
        s = simplify(r)
        assert unpack(s.numerator) == {(1,): frac(1), (0,): frac(1)}
        assert s.denominator.terms == {0: 1}
        # oracle: cross-multiplication equality against the input
        assert ratfunc_equal(s, r)

    def test_deeper_cancellation(self):
        r = normalize(parse("(t^3+t^2-t-1)/(t^2+2*t+1)"))
        s = simplify(r)
        assert ratfunc_equal(s, r)
        assert list(s.denominator.terms) == [0]

    def test_value_preserved_on_randoms(self):
        rng = Random(67)
        for _ in range(50):
            r = rand_ratfunc(rng)
            assert ratfunc_equal(simplify(r), r)

    @pytest.mark.parametrize("text", ["b^5/(b+7)", "(b+7)/(3*b^3)", "(b^2+1)/3", "b^65537/(b+7)"])
    def test_one_term_side_skips_the_gcd(self, text, monkeypatch):
        # Canonical form cancelled the common monomial, so the GCD is constant.
        def no_gcd(*args):
            raise AssertionError("simplify took the GCD of a one-term side")

        monkeypatch.setattr(polybridge.algebra, "_heu_gcd", no_gcd)
        r = normalize(parse(text))
        assert simplify(r) is r

    def test_fully_reduced_against_sympy(self):
        """Planted common factors: (a*g)/(b*g) must come back as a/b up to units."""
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")

        def dense(rng, degree, bound):
            lead = rng.choice((-1, 1)) * rng.randint(1, bound)
            return [rng.randint(-bound, bound) for _ in range(degree)] + [lead]

        def terms(cs):
            return {(i,): c for i, c in enumerate(cs)}

        def product(cs, ds):
            return make_poly(("t",), naive_product(terms(cs), terms(ds)))

        def to_sympy(p):
            return sum((c * t**e for e, c in p.terms.items()), sympy.Integer(0))

        rng = Random(1971)
        cases = []
        for i in range(250):
            bound = rng.choice((1, 9, 1000, 10**6))
            kind = i % 5
            g = dense(rng, 0 if kind == 1 else rng.randint(1, 3), bound)
            a = dense(rng, 0 if kind == 3 else rng.randint(0, 3), bound)
            # kind 2: g is the whole denominator
            b = [1] if kind == 2 else dense(rng, 0 if kind == 4 else rng.randint(0, 3), bound)
            cases.append((a, b, g))
        # Sides of degree up to 40 with coefficients up to 10**30.
        for _ in range(60):
            bound = rng.choice((9, 10**6, 10**30))
            g = dense(rng, rng.randint(1, 20), bound)
            cases.append((dense(rng, rng.randint(0, 20), bound), dense(rng, rng.randint(0, 20), bound), g))
        # Equal and negated sides: g/g and g/-g.
        for degree, bound in ((1, 1), (2, 9), (7, 10**6), (40, 10**30)):
            g = dense(rng, degree, bound)
            cases += [([1], [1], g), ([1], [-1], g)]
        for a, b, g in cases:
            r = make_ratfunc(product(a, g), product(b, g))
            s = simplify(r)
            assert ratfunc_equal(s, r)
            common = sympy.gcd(to_sympy(s.numerator), to_sympy(s.denominator))
            assert sympy.degree(common, t) == 0, (a, b, g)

    def test_unlucky_evaluation_point_is_retried(self, monkeypatch):
        # (14+17t)(3+5t-3t^2) over (65-69t+39t^2)(3+5t-3t^2): the integer GCD
        # at the first point reads back as a polynomial that divides neither
        # side, so a second point is tried.
        points = []

        def spy(p, bits):
            points.append(bits)
            return at(p, bits)

        at = polybridge.algebra._at
        monkeypatch.setattr(polybridge.algebra, "_at", spy)
        r = normalize(parse("(42+121*t+43*t^2-51*t^3)/(195+118*t-423*t^2+402*t^3-117*t^4)"))
        s = simplify(r)
        assert len(points) == 4  # both sides at each of two points
        assert ratfunc_equal(s, r)
        assert emit_expr(s) == "(17*t+14)/(39*t^2-69*t+65)"

    def test_constant_gcd_returns_before_the_cofactors(self, monkeypatch):
        # A constant h is final: the cofactors are f and g, not read back.
        calls = []

        def spy(n, bits, *rest):
            calls.append(n)
            return digits(n, bits, *rest)

        digits = polybridge.algebra._digits
        monkeypatch.setattr(polybridge.algebra, "_digits", spy)
        r = collect_main_var(parse("(t+1)/(t+2)*x"), "x").coeffs[1]
        assert simplify(r) is r
        assert len(calls) == 1

    @pytest.mark.parametrize("bits", [3, 8, 64, 2000])
    @pytest.mark.parametrize("long", [False, True], ids=["one-loop", "split"])
    def test_digits_read_back_symmetric_digits(self, bits, long):
        # Above 4096 bits `_digits` splits the integer before its shift loop.
        half = 1 << bits - 1
        count = max(2, 4096 // bits + 2) if long else max(1, 4096 // bits - 1)
        rng = Random(bits)
        for _ in range(20):
            # Extreme digits force carries, across the split too; a negative top digit makes n negative.
            digits = [rng.choice((-half, half - 1, -1, 0, 1, rng.randrange(-half, half))) for _ in range(count)]
            digits[-1] = digits[-1] or 1
            n = sum(d << bits * e for e, d in enumerate(digits))
            assert (n.bit_length() > 4096) is long
            assert _digits(n, bits) == {e: d for e, d in enumerate(digits) if d}


class TestEval:
    def test_simple(self):
        assert eval_at(parse("x+1"), {"x": 2}) == 3

    def test_reference_point(self):
        e = parse("a^2 b^3/(c^4 (t-u))")
        assert eval_at(e, {"a": 1, "b": 1, "c": 1, "t": 2, "u": 1}) == 1

    def test_rational_point(self):
        assert eval_at(parse("x^2"), {"x": Fraction(1, 2)}) == Fraction(1, 4)

    def test_unbound_symbol(self):
        with pytest.raises(UnboundSymbol):
            eval_at(parse("x+y"), {"x": 1})

    def test_division_by_zero_at_point(self):
        with pytest.raises(DivisionByZeroAtPoint):
            eval_at(parse("1/(t-1)"), {"t": 1})
        with pytest.raises(DivisionByZeroAtPoint):
            eval_at(parse("t^(-1)"), {"t": 0})

    def test_homomorphism_with_normalize(self):
        rng = Random(83)
        for _ in range(80):
            tree = rand_expr_tree(rng, depth=3, names=("a", "b", "x"))
            try:
                r = normalize(tree)
            except ZeroDenominator:
                continue
            point, direct = eval_at_valid_point(rng, tree, ("a", "b", "x"))
            assert direct == eval_at(r, point)


def assert_canonical(r: RatFunc):
    num, den = r.numerator, r.denominator
    assert (num.symbols, num.bits) == (den.symbols, den.bits)
    assert den.terms
    coeffs = list(num.terms.values()) + list(den.terms.values())
    # integer coefficients with unit content
    assert all(type(c) is int for c in coeffs)
    assert gcd(*coeffs) == 1
    # positive leading denominator coefficient
    assert den.terms[max(den.terms)] > 0
    monos = [*unpack(num), *unpack(den)]
    # no common monomial factor across numerator and denominator
    if num.terms:
        width = len(num.symbols)
        assert all(min(m[i] for m in monos) == 0 for i in range(width))
    # symbol table trimmed to symbols that occur
    used = {num.symbols[i] for mono in monos for i, e in enumerate(mono) if e}
    assert set(num.symbols) == used
    # fields of the smallest of 8, 16, ... bits that holds every exponent
    assert num.bits == canonical_width(max(chain.from_iterable(monos), default=0))
    # iteration is in descending monomial order
    for poly in (num, den):
        keys = list(poly.terms)
        assert keys == sorted(keys, reverse=True)


class TestCanonicalInvariants:
    def test_random_canonical_values(self):
        rng, packed_rng = Random(97), Random(98)
        for _ in range(200):
            assert_canonical(rand_ratfunc(rng))
            assert_canonical(canonical_of(*rand_canonical_input(packed_rng)))

    @pytest.mark.parametrize(
        "text, same",
        [
            ("a*x^300/x^299", "a*x"),
            ("(a*b)^300/(a*b)^299*c", "a*b*c"),
            ("x^70000/x^69000", "x^1000"),
        ],
    )
    def test_field_width_is_canonical(self, text, same):
        # `_packed` packs the first spelling at 16 or 32 bits, the second at 8
        # or 16; their canonical forms are one structure.
        got, want = normalize(parse(text)), normalize(parse(same))
        assert got == want
        assert_canonical(got)

    def test_collected_coefficients_are_canonical(self):
        rng = Random(107)
        for _ in range(100):
            a, b, c = (emit_expr(rand_ratfunc(rng)) for _ in range(3))
            tree = parse(f"({a})+({b})*x^2+({c})*(x+({a}))^3")
            for r in collect_main_var(tree, "x").coeffs:
                num, den = r.numerator, r.denominator
                # iteration is in descending monomial order
                for poly in (num, den):
                    keys = list(poly.terms)
                    assert keys == sorted(keys, reverse=True)
                # unit content and a positive leading denominator coefficient
                if num.terms:
                    assert gcd(*num.terms.values(), *den.terms.values()) == 1
                assert den.terms[max(den.terms)] > 0

    @pytest.mark.parametrize("terms", [1, 2, 40])
    def test_trimmed_tables_wide_and_narrow(self, terms):
        # Each coefficient of c1*x+...+cn*x^n has fewer terms than columns;
        # each of (a+b+c+x)^6's has more.
        wide = "+".join(f"c{i}*x^{i}" for i in range(1, terms + 1))
        coeffs = collect_main_var(parse(wide), "x").coeffs
        want = [()] + [(f"c{i}",) for i in range(1, terms + 1)]
        assert [r.numerator.symbols for r in coeffs] == want
        narrow = collect_main_var(parse(f"(a+b+c+x)^6*(1+y-y)/{terms}"), "x").coeffs
        assert [r.numerator.symbols for r in narrow] == [("a", "b", "c")] * 6 + [()]
        for r in coeffs + narrow:
            assert r.denominator.symbols == r.numerator.symbols

    def test_normalize_idempotent_at_representation_level(self):
        rng = Random(101)
        for _ in range(200):
            r = rand_ratfunc(rng)
            again = normalize(parse(emit_expr(r)))
            assert again == r

    def test_canonical_coefficients_are_ints(self):
        rng = Random(103)
        values = [rand_ratfunc(rng) for _ in range(200)]
        values += [normalize(rand_expr_tree(rng, 3, ("a", "b", "x"))) for _ in range(50)]
        values.append(simplify(normalize(parse("(t^2/3-1/3)/(t/2-1/2)"))))
        for r in values:
            for poly in (r.numerator, r.denominator):
                assert all(type(c) is int for c in poly.terms.values())

    def test_rational_constant_value_is_a_fraction(self):
        value = constant_value(normalize(parse("1/2")))
        assert type(value) is Fraction
        assert value == Fraction(1, 2)


class TestCanonicalMatchesReference:
    """`_canonical` on packed keys against `make_ratfunc` on exponent tuples."""

    def test_random_sides(self):
        rng = Random(151)
        seen = set()
        for _ in range(1500):
            symbols, num, den, bits = rand_canonical_input(rng)
            want = make_ratfunc(make_poly(symbols, num), make_poly(symbols, den))
            assert_identical(canonical_of(symbols, num, den, bits), want)
            seen.add((len(symbols), bits))
        assert {w for w, _ in seen} == set(range(5))
        assert {b for _, b in seen} == set(range(1, 17))

    @pytest.mark.parametrize(
        "num, den, want_num, want_den",
        [
            # x^2*y/(x*y^3) over (w, x, y): w unused, x*y common.
            ({(0, 2, 1): 1}, {(0, 1, 3): 1}, {(1, 0): 1}, {(0, 2): 1}),
            # -2*x/(-4*x*y): content -2, then y alone is left.
            ({(0, 1, 0): -2}, {(0, 1, 1): -4}, {(0,): 1}, {(1,): 2}),
            # Constant sides keep the common monomial scan from starting.
            ({(0, 0, 0): 3, (0, 1, 0): 6}, {(0, 0, 0): 9}, {(1,): 2, (0,): 1}, {(0,): 3}),
            ({(1, 1, 1): 5}, {(0, 0, 0): -10}, {(1, 1, 1): -1}, {(0, 0, 0): 2}),
        ],
    )
    def test_edge_cases(self, num, den, want_num, want_den):
        symbols = ("w", "x", "y")
        want = make_ratfunc(make_poly(symbols, num), make_poly(symbols, den))
        assert (unpack(want.numerator), unpack(want.denominator)) == (want_num, want_den)
        for bits in (2, 3, 16):
            assert_identical(canonical_of(symbols, num, den, bits), want)

    def test_zero_sides(self):
        assert canonical_of(("x",), {}, {(3,): -2}, 2) is RATFUNC_ZERO
        with pytest.raises(ZeroDenominator):
            canonical_of(("x",), {(1,): 1}, {}, 2)


def rand_terms(rng: Random, width: int, n_terms: int, top: int) -> dict:
    """Up to n_terms random terms plus one that sets the largest exponent to `top`."""
    terms = {}
    for _ in range(n_terms):
        mono = tuple(rng.randint(0, top) for _ in range(width))
        terms[mono] = rng.choice((-2, -1, 1, 2, 3))
    if width:
        mono = [rng.randint(0, top) for _ in range(width)]
        mono[rng.randrange(width)] = top
        terms[tuple(mono)] = rng.choice((-1, 1))
    return terms


def assert_same_terms(got: dict, want: dict):
    # Order is part of the contract: terms iterate in descending lex order.
    assert list(got.items()) == list(want.items())
    assert all(type(c) is int for c in got.values())


def unpack_keys(packed: dict, width: int, bits: int) -> dict:
    """Exponent tuples of packed keys, in descending lex order."""
    mask = (1 << bits) - 1
    shifts = [bits * (width - 1 - i) for i in range(width)]
    terms = [(tuple(key >> s & mask for s in shifts), c) for key, c in packed.items()]
    return dict(sorted(terms, reverse=True))


def top_exponent(terms: dict) -> int:
    return max(chain.from_iterable(terms), default=0)


def packed_product(a: dict, b: dict, width: int) -> dict:
    """`_mul` at the narrowest field width that holds the product's exponents."""
    bits = (top_exponent(a) + top_exponent(b)).bit_length() or 1
    return unpack_keys(_mul(pack(a, bits), pack(b, bits)), width, bits)


def packed_power(a: dict, k: int, width: int) -> dict:
    """`_pow` at the narrowest field width that holds the power's exponents."""
    bits = (top_exponent(a) * k).bit_length() or 1
    return unpack_keys(_pow(pack(a, bits), k), width, bits)


# Largest exponent sums at the edges of the packed field width: the
# width is the bit length of the sum, so 2^k - 1 and 2^k differ by a bit.
FIELD_EDGE_SUMS = (0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 255, 256, 511, 512, 1023, 1024, 4097)


class TestPackedProduct:
    def test_matches_reference_at_field_width_edges(self):
        rng = Random(107)
        for total in FIELD_EDGE_SUMS:
            for _ in range(12):
                width = rng.randint(1, 4)
                top_a = rng.randint(0, total)
                a = rand_terms(rng, width, rng.randint(1, 6), top_a)
                b = rand_terms(rng, width, rng.randint(1, 6), total - top_a)
                assert_same_terms(packed_product(a, b, width), naive_product(a, b))
                assert_same_terms(packed_product(b, a, width), naive_product(a, b))

    def test_single_term_operands(self):
        rng = Random(109)
        for _ in range(100):
            width = rng.randint(0, 3)
            a = rand_terms(rng, width, rng.randint(1, 6), rng.randint(0, 300))
            b = rand_terms(rng, width, 0, rng.randint(0, 300)) or {(): 5}
            assert len(b) == 1
            assert_same_terms(packed_product(a, b, width), naive_product(a, b))
            assert_same_terms(packed_product(b, a, width), naive_product(a, b))

    def test_width_zero(self):
        three, minus_two = {(): 3}, {(): -2}
        assert_same_terms(packed_product(three, minus_two, 0), {(): -6})
        assert_same_terms(packed_power(three, 4, 0), {(): 81})
        assert_same_terms(packed_power(three, 0, 0), {(): 1})
        assert_same_terms(packed_product(three, {}, 0), {})

    def test_cancellation(self):
        for e in (1, 255, 256, 1500):
            plus = {(e, 0): 1, (0, e): 1}
            minus = {(e, 0): 1, (0, e): -1}
            # The cross terms cancel: (x^e + y^e)(x^e - y^e) = x^2e - y^2e.
            assert_same_terms(packed_product(plus, minus, 2), {(2 * e, 0): 1, (0, 2 * e): -1})
            assert_same_terms(packed_product(plus, {}, 2), {})
            assert_same_terms(packed_product({}, plus, 2), {})
        rng = Random(113)
        for _ in range(100):
            width = rng.randint(1, 3)
            a = rand_terms(rng, width, 5, 2)
            b = rand_terms(rng, width, 5, 2)
            assert_same_terms(packed_product(a, b, width), naive_product(a, b))

    def test_pow_matches_repeated_reference_product(self):
        rng = Random(127)
        for total in FIELD_EDGE_SUMS:
            width = rng.randint(1, 3)
            top = max(total // 4, 1)
            bases = [rand_terms(rng, width, n, top) for n in (0, 3)]
            for base in bases + [{}]:
                for k in range(5):
                    assert_same_terms(packed_power(base, k, width), naive_power(base, k, width))


def assert_identical(got: RatFunc, want: RatFunc):
    for g, w in ((got.numerator, want.numerator), (got.denominator, want.denominator)):
        assert (g.symbols, g.bits) == (w.symbols, w.bits)
        assert_same_terms(g.terms, w.terms)


def power(base, k):
    return Power(base, IntegerLit(k))


def plus(*terms):
    return Sum(terms)


# Exponent bounds on both sides of the 8-bit and 16-bit packed fields.
BOUND_EDGES = (255, 256, 65535, 65536)


def edge_cases(rng: Random, bound: int, s: str, others: tuple[str, str]) -> list:
    """Expressions whose exponent bound is `bound`, reached by symbol `s`.

    The other two symbols occur only in sums, whose bound is the largest of
    their terms', so they do not raise it.
    """
    S, (R, B) = SymbolRef(s), (SymbolRef(n) for n in others)
    j = rng.randint(1, bound - 1)
    q = rng.choice([q for q in (2, 3, 4, 5) if bound % q == 0])
    m = bound // q
    return [
        # Product: bounds add, (E-j) + j.
        Product((plus(power(S, bound - j), R), plus(power(S, j), IntegerLit(-3), B))),
        # Power and negative Power: the base's bound times |k|.
        power(plus(power(S, m), R, B, IntegerLit(1)), q),
        power(plus(power(S, m), IntegerLit(-2), R, B), -q),
        # Quotient of quotients: the numerator takes s^(E-j) * s^j.
        Quotient(
            Quotient(plus(power(S, bound - j), R), IntegerLit(3)),
            Quotient(IntegerLit(5), plus(power(S, j), IntegerLit(2), B)),
        ),
        # Sum over non-unit denominators cross-multiplies them.
        plus(
            Quotient(plus(power(S, bound - j), R), IntegerLit(3)),
            Quotient(IntegerLit(5), plus(power(S, j), IntegerLit(2), B)),
            RationalLit(1, 7),
        ),
    ]


class TestPackedNormalize:
    def test_matches_tuple_reference_term_for_term(self):
        rng = Random(131)
        trees = [rand_expr_tree(rng, 3, ("a", "b", "x")) for _ in range(300)]
        trees += [rand_main_var_poly_expr(rng)[0] for _ in range(200)]
        for tree in trees:
            try:
                want = make_ratfunc(*reference_num_den(tree))
            except ZeroDenominator:
                with pytest.raises(ZeroDenominator):
                    normalize(tree)
                continue
            assert_identical(normalize(tree), want)

    def test_det3x3_matches_tuple_reference(self):
        tree = parse((Path(__file__).parent / "fixtures" / "det3x3.txt").read_text())
        assert_identical(normalize(tree), make_ratfunc(*reference_num_den(tree)))

    @pytest.mark.parametrize(
        "spelled, literal",
        [("x^2", "x^2"), ("x^(4/2)", "x^2"), ("x^(1+1)", "x^2"), ("(2*x)^(3-1)", "(2*x)^2")],
    )
    def test_computed_exponent_equals_literal(self, spelled, literal):
        # An IntegerLit exponent is read directly; any other normalizes first.
        got = normalize(parse(spelled))
        assert_identical(got, normalize(parse(literal)))
        assert_identical(got, make_ratfunc(*reference_num_den(parse(spelled))))

    def test_computed_exponent_value(self):
        got = normalize(parse("(2*x)^(3-1)"))
        assert (got.numerator.symbols, unpack(got.numerator)) == (("x",), {(2,): 4})
        assert got.denominator.terms == {0: 1}

    def test_fractional_exponent_keeps_its_span(self):
        with pytest.raises(SymbolicExponent) as exc:
            normalize(parse("x^(1/2)"))
        assert exc.value.span == (3, 6)

    def test_zero_to_negative_power_keeps_its_span(self):
        # `0^-1` is a parse error ('^' takes a primary), so the exponent is
        # parenthesized.
        with pytest.raises(ZeroDenominator) as exc:
            normalize(parse("0^(-1)"))
        assert exc.value.span == (0, 1)

    @pytest.mark.parametrize(
        "text", ["x/1", "x/(2/2)", "(x/2)*y", "y*(x/2)*(1/3)", "(a/b)^2*(1/1)^3"]
    )
    def test_unit_denominators_skipped(self, text):
        tree = parse(text)
        assert_identical(normalize(tree), make_ratfunc(*reference_num_den(tree)))

    def test_exponent_bounds_at_field_width_edges(self):
        rng = Random(137)
        names = ("a", "b", "c")
        wide = {name: 1 << 64 * i for i, name in enumerate(reversed(names))}
        for bound in BOUND_EDGES:
            # The largest exponent sits in the most and in the least
            # significant field of the packed key.
            for s in ("a", "c"):
                others = tuple(rng.sample([n for n in names if n != s], 2))
                for tree in edge_cases(rng, bound, s, others):
                    assert _to_num_den(tree, wide, 1 << 64)[2] == bound
                    got = normalize(tree)
                    assert got.numerator.symbols == names
                    monos = chain(unpack(got.numerator), unpack(got.denominator))
                    assert max(map(max, monos)) == bound
                    for _ in range(2):
                        point, want = eval_at_valid_point(rng, tree, names)
                        assert eval_at(got, point) == want


# Inputs where the main variable's power cancels, sits in a denominator,
# vanishes, is absent, or needs wide packed fields.
SPLIT_EDGE_CASES = (
    "x/x",
    "(x-x)/(x+1)",
    "x^2/x",
    "(x+1)/x",
    "x-x+a",
    "x^100000000000",
    "x^3*a/(x*b)",
    "(x^2+x)/x",
    "(x^3+a*x^2)/(b*x^2)",
    "x^2/(x*(a+1))",
    "(a*x^2+x^3)/(x^2+b*x^2)",
    "(x+1)/(x*(x+1))",
    "x^2/(x^2*a+x*b)",
    "(a-a)^0*x",
    "0*x+a/b",
    "x^300/x^299+a",
    "a^70000*x^2/(x*b^3)",
    "x*b^300/b^299",
    "a*b+c",
    "x^2+3*x+1",
    "(x+1)^5/7",
)


class TestSplitMatchesReference:
    """`collect_main_var` splits packed keys; `reference_collect` splits tuples."""

    @staticmethod
    def check(tree, var):
        try:
            want = reference_collect(tree, var)
        except AlgebraError as err:
            with pytest.raises(type(err)) as got:
                collect_main_var(tree, var)
            assert str(got.value) == str(err)
            return
        got = collect_main_var(tree, var)
        assert got == want
        for g, w in zip(got.coeffs, want.coeffs):
            assert_identical(g, w)

    @pytest.mark.parametrize("text", SPLIT_EDGE_CASES)
    def test_edge_cases(self, text):
        for var in ("x", "a", "z"):
            self.check(parse(text), var)

    def test_random_trees(self):
        rng = Random(149)
        trees = [rand_expr_tree(rng, 3, ("a", "b", "x")) for _ in range(300)]
        trees += [rand_main_var_poly_expr(rng)[0] for _ in range(200)]
        for tree in trees:
            # The main variable in the first, a middle and the last field,
            # and absent.
            for var in ("a", "b", "x", "z"):
                self.check(tree, var)
