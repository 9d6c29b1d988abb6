from random import Random

import pytest

from polybridge import (
    RenameCollision,
    RenameError,
    apply_renames,
    collect_main_var,
    emit_coeff_vector,
    parse,
)
from polybridge.greek import LETTER_TO_NAME
from polybridge.rename import parse_rename_entry, parse_rename_file, resolve_renames

from polybridge.expr import SymbolRef, symbols_of

from genlib import eval_at, eval_at_valid_point, flat_tree, rand_expr_tree, tree_depth


class TestDefaultGreekMap:
    def test_reference_letters(self):
        table = resolve_renames({"β", "γ", "ω", "α", "Ω"}, {}, True)
        assert table["β"] == "beta"
        assert table["γ"] == "gamma"
        assert table["ω"] == "omega"
        assert table["α"] == "alpha"
        assert table["Ω"] == "Omega"

    def test_full_alphabet_covered(self):
        table = resolve_renames(set(LETTER_TO_NAME), {}, True)
        assert len(table) == 48
        assert all(target.isascii() for target in table.values())

    def test_resolution_is_repeatable(self):
        symbols = {"β", "γ_b", "Ωb", "x"}
        first = resolve_renames(symbols, {}, True)
        assert resolve_renames(symbols, {}, True) == first
        assert first == {"β": "beta", "γ_b": "gamma_b", "Ωb": "Omega_b", "x": "x"}

    def test_head_replacement_with_underscore_tail(self):
        mapping = resolve_renames({"γ_b"}, {}, True)
        assert mapping["γ_b"] == "gamma_b"

    def test_head_replacement_inserts_underscore(self):
        mapping = resolve_renames({"Ωb", "γb2"}, {}, True)
        assert mapping["Ωb"] == "Omega_b"
        assert mapping["γb2"] == "gamma_b2"

    def test_ascii_symbols_untouched(self):
        mapping = resolve_renames({"x", "c2"}, {}, True)
        assert mapping == {"x": "x", "c2": "c2"}


class TestApplyRenames:
    def test_defaults_on_reference_polynomial(self):
        out = apply_renames(parse("β*x + γ"), {}, True)
        assert out == parse("beta*x + gamma")

    def test_empty_spec_is_identity(self):
        e = parse("x")
        assert apply_renames(e, {}, False) is e
        assert apply_renames(e, {}, True) is e

    def test_collision_with_existing_symbol(self):
        with pytest.raises(RenameCollision) as exc:
            apply_renames(parse("β + beta"), {}, True)
        assert exc.value.target == "beta"
        assert exc.value.sources == ("beta", "β")

    def test_collision_between_two_rules(self):
        with pytest.raises(RenameCollision):
            apply_renames(parse("a + b"), {"a": "z", "b": "z"}, False)

    def test_simultaneous_user_swap_is_not_a_collision(self):
        out = apply_renames(parse("a + 2*b"), {"a": "b", "b": "a"}, False)
        assert out == parse("b + 2*a")

    def test_renamed_symbol_keeps_its_span(self):
        out = apply_renames(parse("x^β"), {}, True)
        assert out.exponent == SymbolRef("beta")
        assert out.exponent.span == (2, 3)

    def test_later_specs_override_earlier(self):
        out = apply_renames(parse("γ_b*x"), {"γ_b": "gb"}, True)
        assert out == parse("gb*x")

    def test_deep_chain(self):
        # Deep trees are compared with flat_tree: dataclass `==` recurses.
        n = 5000
        e = parse("-" * n + "β")
        out = apply_renames(e, {}, True)
        assert symbols_of(out) == {"beta"}
        assert tree_depth(out) == n + 1
        assert flat_tree(out)[:-1] == flat_tree(e)[:-1]

    def test_idempotent(self):
        once = apply_renames(parse("β*x^2+γ_b*x+ω"), {}, True)
        assert apply_renames(once, {}, True) == once

    def test_ascii_purity_after_defaults(self):
        e = parse("β*x^2 + γ_b*x + Ω")
        out = apply_renames(e, {}, True)
        p = collect_main_var(out, "x")
        text = emit_coeff_vector(p)
        assert text.isascii()
        assert "beta" in text and "gamma_b" in text and "Omega" in text

    def test_value_preserved(self):
        rng = Random(11)
        names = ("β", "γ_b", "x")
        renamed_names = ("beta", "gamma_b", "x")
        for _ in range(30):
            tree = rand_expr_tree(rng, depth=3, names=names)
            out = apply_renames(tree, {}, True)
            point, direct = eval_at_valid_point(rng, tree, names)
            translated = {
                new: point[old] for old, new in zip(names, renamed_names)
            }
            assert direct == eval_at(out, translated)


class TestRenameFiles:
    def test_file_format(self):
        rules = parse_rename_file(
            "# physics parameters\n"
            "γ_b=gb\n"
            "\n"
            "Ω = OB\n"
        )
        assert rules == {"γ_b": "gb", "Ω": "OB"}

    def test_trailing_comment_rejected(self):
        # '#' after a rule is not a comment; it breaks the identifier rule
        with pytest.raises(RenameError):
            parse_rename_file("a=b # no\n")

    def test_escape_source_accepted(self):
        assert parse_rename_file("\\[Beta]=b0\n") == {"β": "b0"}

    @pytest.mark.parametrize(
        "bad",
        ["a\n", "=b\n", "a=\n", "1x=y\n", "a=Ω\n", "a=2x\n", "a=b\na=c\n"],
    )
    def test_malformed_rules_rejected(self, bad):
        with pytest.raises(RenameError):
            parse_rename_file(bad)

    def test_inline_spec(self):
        assert parse_rename_entry("ω=w") == ("ω", "w")
        with pytest.raises(RenameError):
            parse_rename_entry("no-equals")
