from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybridge import (
    apply_renames,
    collect_main_var,
    emit_coeff_script,
    emit_coeff_vector,
    emit_expr,
    normalize,
    parse,
    simplify,
)
from polybridge.algebra import AlgebraError, MainVarPoly
from polybridge.parser import DECIMAL, IDENTIFIER, INTEGER, LPAREN, RPAREN, tokenize

from genlib import (
    canonical_of,
    fully_parenthesized,
    rand_canonical_input,
    rand_expr_tree,
    rand_ratfunc,
    ratfunc_equal,
    reference_emit_expr,
    run_cli,
    unpack,
)


def emit_of(text):
    return emit_expr(normalize(parse(text)))


class TestEmitExpr:
    def test_reference_string_factored(self):
        assert emit_of("a^2 b^3/(c^4 (t-u))") == "a^2*b^3/(c^4*(t-u))"

    def test_constant_one(self):
        assert emit_of("1") == "1"

    def test_simple_sum_round_trips(self):
        assert emit_of("x+1") == "x+1"
        assert normalize(parse(emit_of("x+1"))) == normalize(parse("x+1"))

    def test_zero(self):
        assert emit_of("x-x") == "0"

    def test_rational_constant(self):
        assert emit_of("3/2") == "3/2"
        assert emit_of("-3/2") == "-3/2"
        assert emit_of("0.75") == "3/4"

    def test_negative_terms_use_binary_minus(self):
        assert emit_of("x-2") == "x-2"
        assert "+-" not in emit_of("x - 2*y - 3")

    def test_exponent_one_and_zero_not_emitted(self):
        assert emit_of("x^1") == "x"
        assert emit_of("x^0") == "1"
        assert emit_of("2*x^0*y") == "2*y"

    def test_unary_minus_leading(self):
        assert emit_of("-x") == "-x"
        assert emit_of("-x/2") == "-x/2"

    def test_denominator_atom_forms(self):
        assert emit_of("x/t") == "x/t"
        assert emit_of("x/t^4") == "x/t^4"
        assert emit_of("x/7") == "x/7"
        assert emit_of("x/(2*t)") == "x/(2*t)"
        assert emit_of("x/(t*u)") == "x/(t*u)"
        assert emit_of("x/(t-u)") == "x/(t-u)"

    def test_sum_numerator_parenthesized(self):
        assert emit_of("(x+1)/2") == "(x+1)/2"
        assert emit_of("(x+1)/(t-u)") == "(x+1)/(t-u)"

    def test_descending_term_order(self):
        assert emit_of("1 + x + x^3 + x^2") == "x^3+x^2+x+1"
        assert emit_of("b + a") == "a+b"

    def test_factoring_applies_to_numerators_too(self):
        assert emit_of("c^4*t - c^4*u") == "c^4*(t-u)"
        assert emit_of("x^3+2*x^2") == "x^2*(x+2)"

    def test_term_symbol_order_is_table_order(self):
        assert emit_of("b^3*a^2") == "a^2*b^3"


class TestEmitScript:
    def test_reference_ordering(self):
        p = collect_main_var(parse("c2*x^2+c1*x+c0"), "x")
        assert emit_coeff_script(p) == "P(1)=c2;\nP(2)=c1;\nP(3)=c0;\n"

    def test_degree_zero(self):
        p = collect_main_var(parse("7"), "x")
        assert emit_coeff_script(p) == "P(1)=7;\n"

    def test_expansion_with_custom_name(self):
        # oracle: (x+1)*(x+2) = x^2 + 3*x + 2
        p = collect_main_var(parse("(x+1)*(x+2)"), "x")
        assert emit_coeff_script(p, "Q") == "Q(1)=1;\nQ(2)=3;\nQ(3)=2;\n"

    def test_first_line_is_leading_coefficient(self):
        p = collect_main_var(parse("a*x^3 - b"), "x")
        script = emit_coeff_script(p)
        first = script.splitlines()[0]
        assert first == f"P(1)={emit_expr(p.coeffs[p.degree])};"

    def test_gap_powers_emit_zero(self):
        p = collect_main_var(parse("x^2+1"), "x")
        assert emit_coeff_script(p) == "P(1)=1;\nP(2)=0;\nP(3)=1;\n"


class TestEmitVector:
    def test_descending_order(self):
        p = collect_main_var(parse("c2*x^2+c1*x+c0"), "x")
        assert emit_coeff_vector(p) == "P=[c2, c1, c0];"

    def test_zero_polynomial(self):
        p = collect_main_var(parse("x-x"), "x")
        assert emit_coeff_vector(p) == "P=[0];"

    def test_rational_entries(self):
        p = collect_main_var(parse("x/2+1/3"), "x")
        assert emit_coeff_vector(p) == "P=[1/2, 1/3];"


class TestArrayName:
    @pytest.mark.parametrize(
        "fmt, emit",
        [("script", emit_coeff_script), ("vector", emit_coeff_vector)],
        ids=["script", "vector"],
    )
    @pytest.mark.parametrize(
        "name, message",
        [
            ("9P", "array name '9P' is not an ASCII identifier"),
            ("Ω", "array name 'Ω' is not an ASCII identifier"),
            ("end", "array name 'end' is a Matlab keyword"),
        ],
        ids=["digit-first", "non-ascii", "keyword"],
    )
    def test_both_layers_refuse_bad_names(self, fmt, emit, name, message):
        p = collect_main_var(parse("x"), "x")
        with pytest.raises(ValueError) as info:
            emit(p, name)
        assert str(info.value) == message
        assert run_cli("x", format=fmt, array_name=name) == (4, "", f"error: {message}\n")


HINT = " (add --rename rules or use --format expr)"
CLASH = (
    "symbol 'P' is also the array name, so the script would overwrite it"
    " (choose another --name or --rename it)"
)


class TestMatlabReadableSymbols:
    """The script and vector emitters refuse symbols that Matlab would misread."""

    @pytest.mark.parametrize("emit", [emit_coeff_script, emit_coeff_vector])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("end*x+for", "symbols that are Matlab keywords: end, for" + HINT),
            ("β*x+1", "non-ASCII symbols remain after renaming: β" + HINT),
            # Non-ASCII symbols are reported first, then keywords.
            ("β*end*P*x", "non-ASCII symbols remain after renaming: β" + HINT),
            ("end*P*x", "symbols that are Matlab keywords: end" + HINT),
        ],
        ids=["keywords", "non-ascii", "non-ascii-first", "keywords-before-array-name"],
    )
    def test_refused_in_both_formats(self, emit, text, message):
        with pytest.raises(ValueError) as info:
            emit(collect_main_var(parse(text), "x"))
        assert str(info.value) == message

    def test_script_refuses_the_array_name(self):
        # `P(1)=1;` would overwrite the parameter that `P(2)=P;` reads.
        p = collect_main_var(parse("x^2+P*x"), "x")
        with pytest.raises(ValueError) as info:
            emit_coeff_script(p)
        assert str(info.value) == CLASH
        assert emit_coeff_script(p, "Q") == "Q(1)=1;\nQ(2)=P;\nQ(3)=0;\n"

    def test_vector_reads_the_array_name_before_it_assigns(self):
        p = collect_main_var(parse("x^2+P*x"), "x")
        assert emit_coeff_vector(p) == "P=[1, P, 0];"

    def test_main_variable_and_expr_format_are_not_checked(self):
        p = collect_main_var(parse("end^2+a"), "end")
        assert emit_coeff_script(p) == "P(1)=1;\nP(2)=0;\nP(3)=a;\n"
        assert emit_of("end*β+P") == "P+end*β"


class TestCliRefusesWhatTheLibraryRefuses:
    def test_seeded_differential(self):
        """`cli.run` exits 4 with `error: <msg>` exactly when the emitter raises
        ValueError(<msg>), and otherwise prints what the emitter returns."""
        rng = Random(191)
        names = ("a", "b", "P", "Q", "end", "for", "t", "x", "β", "γ_b")
        formats = (("script", emit_coeff_script, ""), ("vector", emit_coeff_vector, "\n"))
        refusals = 0
        for _ in range(150):
            text = fully_parenthesized(rand_expr_tree(rng, 3, names))
            for greek in (True, False):
                tree = apply_renames(parse(text), {}, greek)
                try:
                    p = collect_main_var(tree, "x")
                except AlgebraError:
                    continue
                p = MainVarPoly(p.main_var, tuple(simplify(c) for c in p.coeffs))
                for (fmt, emit, end), name in product(formats, ("P", "Q")):
                    try:
                        want = (0, emit(p, name) + end, "")
                    except ValueError as err:
                        want = (4, "", f"error: {err}\n")
                        refusals += 1
                    got = run_cli(text, format=fmt, array_name=name, greek_defaults=greek)
                    assert got == want, (text, fmt, name, greek)
        assert refusals > 100, refusals


class TestEmitMatchesReference:
    """`emit_expr` reads packed fields; `reference_emit_expr` reads exponent tuples."""

    def test_random_values(self):
        rng, packed_rng = Random(157), Random(163)
        values = [rand_ratfunc(rng) for _ in range(300)]
        values += [canonical_of(*rand_canonical_input(packed_rng)) for _ in range(1500)]
        for r in values:
            num, den = unpack(r.numerator), unpack(r.denominator)
            assert emit_expr(r) == reference_emit_expr(r.numerator.symbols, num, den)
        # Exponents above 255 take 16-bit fields, which no benchmark input reaches.
        assert {r.numerator.bits for r in values} == {8, 16}


OPERAND_END = (INTEGER, DECIMAL, IDENTIFIER, RPAREN)
OPERAND_START = (INTEGER, DECIMAL, IDENTIFIER, LPAREN)


class TestEmitterProperties:
    def test_round_trip_500_random_canonical_values(self):
        rng = Random(131)
        for _ in range(500):
            r = rand_ratfunc(rng)
            again = normalize(parse(emit_expr(r)))
            assert ratfunc_equal(again, r)

    def test_explicitness_no_adjacent_operands(self):
        rng = Random(137)
        for _ in range(200):
            text = emit_expr(rand_ratfunc(rng))
            toks = tokenize(text)
            for prev, cur in zip(toks, toks[1:]):
                assert not (
                    prev.kind in OPERAND_END and cur.kind in OPERAND_START
                ), text

    def test_no_whitespace_inside_expressions(self):
        rng = Random(139)
        for _ in range(200):
            assert " " not in emit_expr(rand_ratfunc(rng))

    def test_deterministic_bytes(self):
        rng = Random(149)
        values = [rand_ratfunc(rng) for _ in range(50)]
        first = [emit_expr(r) for r in values]
        second = [emit_expr(r) for r in values]
        assert first == second

    @settings(max_examples=200)
    @given(st.integers(-99, 99), st.integers(1, 99))
    def test_rational_constants_round_trip(self, num, den):
        r = normalize(parse(f"({num})/{den}"))
        assert ratfunc_equal(normalize(parse(emit_expr(r))), r)
