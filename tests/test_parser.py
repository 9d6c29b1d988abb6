import importlib.util
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polybridge import normalize, parse
from polybridge.cli import _strip_statement_terminator
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

from genlib import (
    eval_at,
    flat_tree,
    fully_parenthesized,
    rand_expr_tree,
    ratfunc_equal,
    reference_parse,
    tree_depth,
)


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

    @pytest.mark.parametrize("text", ["0.5", ".25", "2.", "2.50", "007.0", "0.0", "12.345", ".000"])
    def test_decimal_literal_matches_fraction(self, text):
        value = Fraction(text)
        node = parse(text)
        if value.denominator == 1:
            assert node == IntegerLit(value.numerator)
        else:
            assert node == RationalLit(value.numerator, value.denominator)
        assert node.span == (0, len(text))

    def test_digit_limit_applies_to_each_side_of_a_decimal(self):
        # 3000 digits on each side: 6000 in all, above the 4300 default limit.
        text = "7" * 3000 + "." + "3" * 2999 + "2"
        node = parse(text)
        value = Fraction(int("7" * 3000) * 10**3000 + int("3" * 2999 + "2"), 10**3000)
        assert (node.numerator, node.denominator) == (value.numerator, value.denominator)
        with pytest.raises(SourceError, match="number is too long"):
            parse("1." + "5" * 5000)

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


def outcome(parser, text):
    """The tree with its spans, or the error's kind, message and span."""
    try:
        return "tree", flat_tree(parser(text))
    except SourceError as err:
        return "error", err.kind, err.message, err.span


ATOMS = ("x", "y", "a1", "β", "\\[Beta]", "\\[CapitalOmega]b", "2", "10", "0.5", ".5", "3.")
FRAGMENTS = ATOMS + (
    "-", "--", "---", "+", "*", "/", "^", "(", ")", "()", "((", "))", ")(", " ",
    "2x", "2 (", ")x", "a^-2", "a^b^c", "2^3^2", "a/b/c", "1/2/3", "x y", "1.2.3", "$",
)


def rand_source(rng: Random, depth: int) -> str:
    """Mostly well-formed text: unary-minus chains, juxtaposition after ')'
    and after numbers, '^' towers, '/' chains and parentheses."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(ATOMS)
    kind = rng.randint(0, 5)
    if kind == 0:
        return "-" * rng.randint(1, 4) + rand_source(rng, depth - 1)
    if kind == 1:
        return "^".join(rng.choice(ATOMS) for _ in range(rng.randint(2, 4)))
    if kind == 2:
        return "(" + rand_source(rng, depth - 1) + ")"
    op = rng.choice(("+", "-", "*", "/", "^", " ", "", " -"))
    return rand_source(rng, depth - 1) + op + rand_source(rng, depth - 1)


def rand_token_text(rng: Random) -> str:
    if rng.random() < 0.4:
        return "".join(rng.choice(FRAGMENTS) for _ in range(rng.randint(0, 10)))
    text = rand_source(rng, 4)
    for _ in range(rng.randint(0, 2)):
        # Delete, insert or truncate, which unbalances parentheses and leaves
        # trailing operators.
        i = rng.randint(0, len(text))
        edit = rng.randint(0, 2)
        if edit == 0:
            text = text[:i] + text[i + 1 :]
        elif edit == 1:
            text = text[:i] + rng.choice(FRAGMENTS) + text[i:]
        else:
            text = text[:i]
    return text


def workload_inputs() -> list[str]:
    """Every det3x3, flat_sum and notebook input of benchmark seeds 1-3."""
    root = Path(__file__).resolve().parent.parent
    path = root / "perfbench" / "workloads.py"
    if not path.exists():
        pytest.skip("perfbench/workloads.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    texts = {}
    for seed in (1, 2, 3):
        for make in workloads.WORKLOADS.values():
            for case in make(root, seed):
                texts[case.text] = None
    return [_strip_statement_terminator(t) for t in texts]


class TestReferenceDifferential:
    """`parse` against the recursive-descent parser it replaced."""

    def test_random_token_streams(self):
        rng = Random(2024)
        kinds = {"tree": 0, "error": 0}
        for _ in range(6000):
            text = rand_token_text(rng)
            expected = outcome(reference_parse, text)
            assert outcome(parse, text) == expected, text
            kinds[expected[0]] += 1
        # Both outcomes are well represented.
        assert min(kinds.values()) > 1500, kinds

    def test_benchmark_inputs(self):
        texts = workload_inputs()
        assert len(texts) > 1000
        errors = 0
        for text in texts:
            expected = outcome(reference_parse, text)
            assert outcome(parse, text) == expected, text
            errors += expected[0] == "error"
        assert errors > 0

    @pytest.mark.parametrize(
        "text",
        ["", "  ", "(", ")", "()", "(x", "x)", "x+", "-", "a^-2", "a^", "2^3^-1", "(x))", "((x)",
         "a/b/c", "2 -x", "-x^2^y", "2x(y)3", "x 1.2.3", "9" * 5000],
    )
    def test_edge_cases(self, text):
        assert outcome(parse, text) == outcome(reference_parse, text)


def minus_chain(n: int) -> list[tuple]:
    """`flat_tree` of the parse of '-' * n + 'x'."""
    expected = []
    for i in range(n):
        expected += [("Product", None, 2, (i, n + 1)), ("IntegerLit", -1, 0, None)]
    return expected + [("SymbolRef", "x", 0, (n, n + 1))]


class TestDeepInput:
    """Nesting depth is bounded by memory, not by the recursion limit."""

    def test_nested_parentheses(self):
        n = 10_000
        tree = parse("(" * n + "x" + ")" * n)
        assert tree == SymbolRef("x")
        assert tree.span == (n, n + 1)

    def test_unclosed_parentheses_name_the_innermost(self):
        with pytest.raises(SourceError) as exc:
            parse("(" * 10_000 + "x")
        assert (exc.value.kind, exc.value.message, exc.value.span) == (
            "parse", "missing ')' for the parenthesis opened here", (9999, 10_000)
        )

    @pytest.mark.parametrize("n", [990, 5000])
    def test_minus_chain(self, n):
        tree = parse("-" * n + "x")
        assert tree_depth(tree) == n + 1
        assert flat_tree(tree) == minus_chain(n)

    def test_power_tower(self):
        n = 5000
        tree = parse("^".join(["a"] * n))
        assert tree_depth(tree) == n
        expected = []
        for i in range(n - 1):
            expected.append(("Power", None, 2, (2 * i, 2 * n - 1)))
            expected.append(("SymbolRef", "a", 0, (2 * i, 2 * i + 1)))
        expected.append(("SymbolRef", "a", 0, (2 * n - 2, 2 * n - 1)))
        assert flat_tree(tree) == expected
