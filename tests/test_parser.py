from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polybridge import eval_at, normalize, parse, ratfunc_equal
from polybridge.expr import IntegerLit, Power, Product, Quotient, RationalLit, Sum, SymbolRef
from polybridge.parser import (
    CARET,
    DECIMAL,
    END,
    IDENTIFIER,
    INTEGER,
    SLASH,
    STAR,
    SourceError,
    tokenize,
)

from genlib import fully_parenthesized, rand_expr_tree


def kinds(text):
    return [t.kind for t in tokenize(text)]


class TestTokenize:
    def test_power_product(self):
        toks = tokenize("a^2*b^3")
        assert [(t.kind, t.text) for t in toks] == [
            (IDENTIFIER, "a"),
            (CARET, "^"),
            (INTEGER, "2"),
            (STAR, "*"),
            (IDENTIFIER, "b"),
            (CARET, "^"),
            (INTEGER, "3"),
            (END, ""),
        ]

    def test_empty_input(self):
        assert kinds("") == [END]

    def test_greek_escape(self):
        toks = tokenize("\\[Beta]*x")
        assert [(t.kind, t.text) for t in toks[:-1]] == [
            (IDENTIFIER, "β"),
            (STAR, "*"),
            (IDENTIFIER, "x"),
        ]
        # the escape's span covers its source slice
        assert toks[0].span == (0, len("\\[Beta]"))

    def test_escape_equals_unicode(self):
        assert parse("\\[Beta]*x") == parse("β*x")
        assert parse("\\[CapitalOmega]") == parse("Ω")
        assert tokenize("\\[Gamma]b")[0].text == "γb"

    def test_greek_identifier_with_tail(self):
        assert tokenize("γ_b")[0].text == "γ_b"
        assert tokenize("γb2")[0].text == "γb2"

    def test_spans_cover_non_whitespace(self):
        text = "β*x + 12"
        toks = tokenize(text)
        covered = [False] * len(text)
        prev_end = 0
        for tok in toks[:-1]:
            start, end = tok.span
            assert prev_end <= start < end <= len(text)
            prev_end = end
            for i in range(start, end):
                covered[i] = True
        for i, flag in enumerate(covered):
            if not flag:
                assert text[i].isspace()

    def test_decimal_tokens(self):
        assert kinds("0.5") == [DECIMAL, END]
        assert kinds(".5") == [DECIMAL, END]
        assert kinds("2.") == [DECIMAL, END]
        assert kinds("12") == [INTEGER, END]

    @pytest.mark.parametrize("bad", ["[x]", "{1}", "a,b", "x$", "1.2.3", ".", "\\[Foo]", "\\x", "x;y"])
    def test_lex_errors(self, bad):
        with pytest.raises(SourceError) as exc:
            tokenize(bad)
        assert exc.value.kind == "lex"

    @pytest.mark.parametrize(
        "bad, message, span",
        [
            ("[x]", "square brackets are reserved; function application is not supported", (0, 1)),
            ("x$", "unsupported character '$'", (1, 2)),
            ("\\x", "malformed escape: expected \\[Name]", (0, 2)),
            ("\\", "malformed escape: expected \\[Name]", (0, 1)),
            ("\\[Be", "malformed escape: missing ']'", (0, 4)),
            ("\\[Foo]", "unknown escape name \\[Foo]", (0, 6)),
            ("\\[]", "unknown escape name \\[]", (0, 3)),
            (".", "unexpected '.'", (0, 1)),
            ("..", "unexpected '.'", (0, 1)),
            ("1.2.3", "malformed number: more than one decimal point", (0, 4)),
            ("1..", "malformed number: more than one decimal point", (0, 3)),
            (".5.", "malformed number: more than one decimal point", (0, 3)),
        ],
    )
    def test_lex_error_messages_and_spans(self, bad, message, span):
        with pytest.raises(SourceError) as exc:
            tokenize(bad)
        assert (exc.value.message, exc.value.kind, exc.value.span) == (message, "lex", span)

    @pytest.mark.parametrize(
        "text, token",
        [
            ("2.", (DECIMAL, "2.", (0, 2))),
            (".25", (DECIMAL, ".25", (0, 3))),
            ("\\[Gamma]b", (IDENTIFIER, "γb", (0, 9))),
        ],
    )
    def test_lex_accepts(self, text, token):
        toks = tokenize(text)
        assert [(t.kind, t.text, t.span) for t in toks] == [token, (END, "", (len(text), len(text)))]

    def test_slash_token(self):
        assert kinds("a/b") == [IDENTIFIER, SLASH, IDENTIFIER, END]


class TestParse:
    def test_single_symbol(self):
        assert parse("x") == SymbolRef("x")

    def test_unary_minus_binds_looser_than_power(self):
        assert parse("-x^2+x") == Sum(
            (
                Product((IntegerLit(-1), Power(SymbolRef("x"), IntegerLit(2)))),
                SymbolRef("x"),
            )
        )
        # precedence oracle: direct arithmetic at x = 3
        assert eval_at(parse("-x^2+x"), {"x": 3}) == -(3**2) + 3 == -6

    def test_reference_quotient_shape(self):
        e = parse("a^2 b^3/(c^4 (t-u))")
        assert isinstance(e, Quotient)
        assert e.numerator == Product(
            (
                Power(SymbolRef("a"), IntegerLit(2)),
                Power(SymbolRef("b"), IntegerLit(3)),
            )
        )
        explicit = parse("(a^2*b^3)/(c^4*(t-u))")
        assert ratfunc_equal(normalize(e), normalize(explicit))

    @pytest.mark.parametrize(
        "implicit,explicit",
        [
            ("2 x", "2*x"),
            ("2x", "2*x"),
            ("c^4 (t-u)", "c^4*(t-u)"),
            ("(a)(b)", "a*b"),
            ("a(b+c)", "a*(b+c)"),
            ("x^2y", "(x^2)*y"),
            ("2 3", "6"),
        ],
    )
    def test_juxtaposition(self, implicit, explicit):
        assert ratfunc_equal(normalize(parse(implicit)), normalize(parse(explicit)))

    @given(
        st.text(alphabet="abcxyz", min_size=1, max_size=4),
        st.text(alphabet="abcxyz", min_size=1, max_size=4),
    )
    def test_juxtaposition_equivalence(self, left, right):
        spaced = normalize(parse(f"{left} {right}"))
        starred = normalize(parse(f"{left}*{right}"))
        assert ratfunc_equal(spaced, starred)

    def test_power_right_associative(self):
        assert parse("x^2^3") == Power(
            SymbolRef("x"), Power(IntegerLit(2), IntegerLit(3))
        )

    def test_division_left_associative(self):
        # a/b/c = (a/b)/c, and a*b/c*d = ((a*b)/c)*d
        assert eval_at(parse("8/4/2"), {}) == 1
        assert eval_at(parse("2*6/4*2"), {}) == 6

    def test_binary_minus_is_negated_sum(self):
        assert parse("a-b") == Sum(
            (SymbolRef("a"), Product((IntegerLit(-1), SymbolRef("b"))))
        )

    def test_unary_minus_in_operand_positions(self):
        assert eval_at(parse("a*-b"), {"a": 2, "b": 3}) == -6
        assert eval_at(parse("2 -x"), {"x": 5}) == -3  # binary, not juxtaposition

    def test_decimal_literals_exact(self):
        assert parse("0.5") == RationalLit(1, 2)
        assert parse(".25") == RationalLit(1, 4)
        assert parse("2.") == IntegerLit(2)
        assert eval_at(parse("0.1"), {}) == Fraction(1, 10)

    def test_negative_exponent_requires_parens(self):
        with pytest.raises(SourceError):
            parse("a^-2")
        assert eval_at(parse("a^(-2)"), {"a": 2}) == Fraction(1, 4)

    @pytest.mark.parametrize("bad", ["", "(x+1", "x+", "x*", "()", "x )", "* x", "x y +"])
    def test_parse_errors(self, bad):
        with pytest.raises(SourceError) as exc:
            parse(bad)
        assert exc.value.kind in ("lex", "parse")

    def test_unbalanced_paren_span_points_at_opener(self):
        with pytest.raises(SourceError) as exc:
            parse("(x+1")
        assert exc.value.span == (0, 1)

    @given(
        st.lists(
            st.one_of(
                st.sampled_from(list("ab xy019.+-*/^()[]\\$\n") + ["\\[Beta]", "\\[Be"]),
                st.sampled_from(list("αβγΩ")),
                st.characters(categories=("Nd", "No")),
            ),
            max_size=12,
        ).map("".join)
    )
    def test_parse_returns_tree_or_source_error(self, text):
        try:
            parse(text)
        except SourceError as err:
            start, end = err.span
            assert 0 <= start <= end <= len(text)

    def test_error_spans_index_real_input(self):
        cases = ["x+", "((a)", "a^*b", "x 1.2.3", "foo$bar", "x )"]
        for text in cases:
            data = text.encode("utf-8")
            with pytest.raises(SourceError) as exc:
                parse(text)
            start, end = exc.value.span
            assert 0 <= start <= end <= len(data)


class TestPrecedenceConformance:
    def test_fully_parenthesized_matches_tree(self):
        rng = Random(1105)
        for _ in range(500):
            tree = rand_expr_tree(rng, depth=3, names=("a", "b", "x"))
            rendered = fully_parenthesized(tree)
            assert ratfunc_equal(normalize(parse(rendered)), normalize(tree))
