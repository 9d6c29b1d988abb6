import errno
import hashlib
import io
import os
import re
import resource
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polybridge
from polybridge.cli import CliOptions, main, run

from genlib import run_cli


def invoke(monkeypatch, capsys, argv, stdin=""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHappyPaths:
    def test_script_default(self, monkeypatch, capsys):
        code, out, err = invoke(monkeypatch, capsys, [], stdin="c2*x^2+c1*x+c0")
        assert code == 0
        assert out == "P(1)=c2;\nP(2)=c1;\nP(3)=c0;\n"

    def test_trailing_semicolon_accepted(self, monkeypatch, capsys):
        code, out, _ = invoke(monkeypatch, capsys, [], stdin="c2*x^2+c1*x+c0 ;\n")
        assert code == 0
        assert out == "P(1)=c2;\nP(2)=c1;\nP(3)=c0;\n"

    def test_vector_format_with_greek(self, monkeypatch, capsys):
        code, out, _ = invoke(
            monkeypatch, capsys, ["--format", "vector"], stdin="β*x+γ"
        )
        assert code == 0
        assert out == "P=[beta, gamma];\n"

    def test_expr_format(self, monkeypatch, capsys):
        code, out, _ = invoke(
            monkeypatch, capsys, ["--format", "expr"], stdin="a^2 b^3/(c^4 (t-u))"
        )
        assert code == 0
        assert out == "a^2*b^3/(c^4*(t-u))\n"

    def test_custom_var_and_name(self, monkeypatch, capsys):
        code, out, _ = invoke(
            monkeypatch,
            capsys,
            ["--var", "t", "--name", "Q"],
            stdin="a*t^2 + b",
        )
        assert code == 0
        assert out == "Q(1)=a;\nQ(2)=0;\nQ(3)=b;\n"

    def test_file_input_and_output(self, tmp_path, capsys):
        src = tmp_path / "poly.txt"
        src.write_text("x^2+2*x+3\n", encoding="utf-8")
        dst = tmp_path / "out.m"
        code = main([str(src), "-o", str(dst)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert dst.read_text(encoding="utf-8") == "P(1)=1;\nP(2)=2;\nP(3)=3;\n"

    def test_default_equivalence(self, monkeypatch, capsys):
        _, implicit, _ = invoke(monkeypatch, capsys, [], stdin="β*x^2+γ*x+1/2")
        explicit_args = [
            "--var", "x", "--format", "script", "--name", "P", "--simplify", "1", "-",
        ]
        _, explicit, _ = invoke(monkeypatch, capsys, explicit_args, stdin="β*x^2+γ*x+1/2")
        assert implicit == explicit

    def test_determinism(self, monkeypatch, capsys):
        text = "(x+a)^3/(b+2) + x/3"
        runs = [
            invoke(monkeypatch, capsys, ["--format", "vector"], stdin=text)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0

    def test_simplify_levels_differ(self, monkeypatch, capsys):
        text = "(t^2-1)/(t-1)*x"
        _, level1, _ = invoke(monkeypatch, capsys, ["--format", "vector"], stdin=text)
        assert level1 == "P=[t+1, 0];\n"
        _, level0, _ = invoke(
            monkeypatch, capsys, ["--format", "vector", "--simplify", "0"], stdin=text
        )
        assert level0 == "P=[(t^2-1)/(t-1), 0];\n"

    def test_expr_mode_ignores_main_var_denominators(self, monkeypatch, capsys):
        code, out, _ = invoke(monkeypatch, capsys, ["--format", "expr"], stdin="1/x")
        assert code == 0
        assert out == "1/x\n"

    @pytest.mark.parametrize(
        "argv, expected, stages",
        [
            ([], "P(1)=1;\nP(2)=1;\n", "parse rename collect simplify emit write"),
            (["--format", "expr"], "x+1\n", "parse rename normalize simplify emit write"),
            (["--simplify", "0"], "P(1)=1;\nP(2)=1;\n", "parse rename collect emit write"),
        ],
        ids=["default", "expr", "simplify-0"],
    )
    def test_time_flag_reports_stages(self, argv, expected, stages, monkeypatch, capsys):
        code, out, err = invoke(monkeypatch, capsys, ["--time", *argv], stdin="x+1")
        assert (code, out) == (0, expected)
        assert re.findall(r"^(\w+): [0-9.]+ ms$", err, re.M) == stages.split(), err


class TestRenameOptions:
    def test_inline_rename_overrides_defaults(self, monkeypatch, capsys):
        code, out, _ = invoke(
            monkeypatch,
            capsys,
            ["--format", "vector", "--rename", "γ_b=gb"],
            stdin="γ_b*x+β",
        )
        assert code == 0
        assert out == "P=[gb, beta];\n"

    def test_rename_file_layering(self, tmp_path, monkeypatch, capsys):
        rules = tmp_path / "renames.txt"
        rules.write_text("# map\nγ_b=gfile\nω=wfile\n", encoding="utf-8")
        code, out, _ = invoke(
            monkeypatch,
            capsys,
            [
                "--format", "vector",
                "--rename-file", str(rules),
                "--rename", "ω=winline",
            ],
            stdin="γ_b*x^2+ω*x+β",
        )
        assert code == 0
        assert out == "P=[gfile, winline, beta];\n"

    @pytest.mark.parametrize(
        "argv, file_rules, text, want",
        [
            (["--rename", "a=b", "--rename", "a=c", "--rename", "β=b0"], None, "a*x+β", "P=[c, b0];\n"),
            (["--rename", "a=c"], "a=q\n", "a*x", "P=[c, 0];\n"),
            (["--no-greek-defaults", "--rename", "γb=g"], None, "γb*x", "P=[g, 0];\n"),
        ],
        ids=["later-inline-wins", "inline-over-file", "no-greek-defaults"],
    )
    def test_rename_precedence(self, argv, file_rules, text, want, tmp_path, monkeypatch, capsys):
        if file_rules is not None:
            rules = tmp_path / "renames.txt"
            rules.write_text(file_rules, encoding="utf-8")
            argv = ["--rename-file", str(rules), *argv]
        result = invoke(monkeypatch, capsys, ["--format", "vector", *argv], stdin=text)
        assert result == (0, want, "")

    def test_no_greek_defaults_leaves_script_mode_erroring(self, monkeypatch, capsys):
        code, out, err = invoke(
            monkeypatch, capsys, ["--no-greek-defaults"], stdin="β*x+1"
        )
        assert code == 4
        assert out == ""
        assert "β" in err

    def test_no_greek_defaults_expr_mode_warns(self, monkeypatch, capsys):
        code, out, err = invoke(
            monkeypatch,
            capsys,
            ["--no-greek-defaults", "--format", "expr"],
            stdin="β*x+1",
        )
        assert code == 0
        # β sorts after x by code point, so it trails in the emitted term
        assert out == "x*β+1\n"
        assert "warning" in err and "β" in err

    def test_collision_exits_4(self, monkeypatch, capsys):
        code, out, err = invoke(monkeypatch, capsys, [], stdin="β*x + beta")
        assert code == 4
        assert out == ""
        assert err == "error: rename collision: 'beta', 'β' would all become 'beta'\n"


class TestArrayNameClash:
    # In a script, `P(1)=...;` overwrites a parameter `P` before `P(2)=P;`
    # reads it.
    @pytest.mark.parametrize(
        "argv, text", [([], "x^2+P*x"), (["--name", "Q"], "x^2+Q*x")], ids=["P", "Q"]
    )
    def test_script_refuses_symbol_named_like_the_array(self, argv, text, monkeypatch, capsys):
        code, out, err = invoke(monkeypatch, capsys, argv, stdin=text)
        assert (code, out) == (4, "")
        assert "array name" in err and "--name" in err and "--rename" in err

    def test_vector_reads_before_it_assigns(self, monkeypatch, capsys):
        code, out, _ = invoke(monkeypatch, capsys, ["--format", "vector"], stdin="x^2+P*x")
        assert (code, out) == (0, "P=[1, P, 0];\n")

    @pytest.mark.parametrize(
        "argv, text, want",
        [
            (["--rename", "P=p0"], "x^2+P*x", "P(1)=1;\nP(2)=p0;\nP(3)=0;\n"),
            (["--var", "P"], "P^2+1", "P(1)=1;\nP(2)=0;\nP(3)=1;\n"),
        ],
        ids=["renamed", "main-variable"],
    )
    def test_script_converts_without_the_clash(self, argv, text, want, monkeypatch, capsys):
        code, out, _ = invoke(monkeypatch, capsys, argv, stdin=text)
        assert (code, out) == (0, want)


class TestMatlabKeywords:
    # Matlab parses neither `P(1)=end;` nor `end(1)=1;`.
    @pytest.mark.parametrize("fmt", ["script", "vector"])
    def test_keyword_symbols_refused(self, fmt, monkeypatch, capsys):
        code, out, err = invoke(monkeypatch, capsys, ["--format", fmt], stdin="end*x+for")
        assert (code, out) == (4, "")
        assert "Matlab keywords: end, for" in err and "--rename" in err

    @pytest.mark.parametrize("fmt", ["script", "vector"])
    def test_keyword_array_name_refused(self, fmt, monkeypatch, capsys):
        code, out, err = invoke(monkeypatch, capsys, ["--name", "end", "--format", fmt], stdin="x")
        assert (code, out) == (4, "")
        assert err == "error: array name 'end' is a Matlab keyword\n"

    @pytest.mark.parametrize("name", ["end", "9P"])
    def test_expr_format_ignores_the_array_name(self, name, monkeypatch, capsys):
        # The expr format never prints the array name, so it checks none.
        argv = ["--name", name, "--format", "expr"]
        assert invoke(monkeypatch, capsys, argv, stdin="x") == (0, "x\n", "")

    def test_renamed_keywords_convert(self, monkeypatch, capsys):
        argv = ["--rename", "end=e0", "--rename", "for=f0"]
        code, out, _ = invoke(monkeypatch, capsys, argv, stdin="end*x+for")
        assert (code, out) == (0, "P(1)=e0;\nP(2)=f0;\n")

    def test_expr_format_prints_keywords(self, monkeypatch, capsys):
        code, out, _ = invoke(monkeypatch, capsys, ["--format", "expr"], stdin="end*x+for")
        assert (code, out) == (0, "end*x+for\n")

    def test_keyword_main_variable_converts(self, monkeypatch, capsys):
        # The main variable is collected away, so it never reaches the output.
        code, out, _ = invoke(monkeypatch, capsys, ["--var", "end"], stdin="end^2+a")
        assert (code, out) == (0, "P(1)=1;\nP(2)=0;\nP(3)=a;\n")


class TestErrorContracts:
    def test_laurent_input_exits_3(self, monkeypatch, capsys):
        code, out, err = invoke(monkeypatch, capsys, [], stdin="1/x")
        assert code == 3
        assert out == ""
        assert "denominator" in err and "x" in err

    def test_symbolic_exponent_exits_3(self, monkeypatch, capsys):
        code, out, err = invoke(monkeypatch, capsys, [], stdin="x^y")
        assert code == 3
        assert out == ""

    @pytest.mark.parametrize(
        "text, args, column",
        [("x^β", [], 3), ("x^(β)", [], 4), ("x^b", ["--rename", "b=q"], 3)],
        ids=["greek", "greek_parenthesized", "inline_rule"],
    )
    def test_renamed_symbolic_exponent_points_at_the_symbol(
        self, text, args, column, monkeypatch, capsys
    ):
        code, out, err = invoke(monkeypatch, capsys, args, stdin=text)
        assert (code, out) == (3, "")
        assert err == f"error at 1:{column}: exponent does not normalize to an integer constant\n"

    def test_zero_denominator_exits_3(self, monkeypatch, capsys):
        code, out, _ = invoke(monkeypatch, capsys, [], stdin="1/(x-x)")
        assert code == 3
        assert out == ""

    @pytest.mark.parametrize("fmt", ["script", "vector"])
    def test_degree_above_limit_exits_3(self, fmt, monkeypatch, capsys):
        monkeypatch.setattr(polybridge.algebra, "MAX_DEGREE", 5)
        code, out, err = invoke(monkeypatch, capsys, ["--format", fmt], stdin="a*x^6+1")
        assert (code, out) == (3, "")
        assert err == "error: degree 6 in 'x' is above the limit of 5\n"
        code, out, _ = invoke(monkeypatch, capsys, ["--format", fmt], stdin="a*x^5+1")
        assert code == 0 and out

    def test_degree_limit_leaves_expr_format_alone(self, monkeypatch, capsys):
        monkeypatch.setattr(polybridge.algebra, "MAX_DEGREE", 5)
        code, out, _ = invoke(monkeypatch, capsys, ["--format", "expr"], stdin="a*x^6+1")
        assert (code, out) == (0, "a*x^6+1\n")

    def test_parse_error_exits_2_with_line_column(self, monkeypatch, capsys):
        code, out, err = invoke(monkeypatch, capsys, [], stdin="(x+1")
        assert code == 2
        assert out == ""
        assert re.search(r"\b1:1\b", err)

    def test_lex_error_exits_2(self, monkeypatch, capsys):
        code, out, err = invoke(monkeypatch, capsys, [], stdin="P[x]")
        assert code == 2
        assert out == ""
        assert "1:2" in err

    def test_multiline_error_location(self, monkeypatch, capsys):
        code, _, err = invoke(monkeypatch, capsys, [], stdin="x +\n y + {\n")
        assert code == 2
        assert "2:6" in err

    @pytest.mark.parametrize(
        "text, location",
        [("β+)", "1:3"), ("x+\n  β)", "2:4")],
    )
    def test_parse_error_column_counts_characters(self, text, location, monkeypatch, capsys):
        code, out, err = invoke(monkeypatch, capsys, [], stdin=text)
        assert code == 2
        assert out == ""
        assert f" at {location}:" in err

    def test_algebra_error_column_counts_characters(self, monkeypatch, capsys):
        code, out, err = invoke(monkeypatch, capsys, [], stdin="β+x^y")
        assert code == 3
        assert out == ""
        assert err.startswith("error at 1:5:")

    @pytest.mark.parametrize(
        "text, message",
        [("x²", "lex error at 1:2: unsupported character '²'\n"),
         ("x^2+٣", "lex error at 1:5: unsupported character '٣'\n")],
    )
    def test_non_ascii_digit_exits_2(self, text, message, monkeypatch, capsys):
        code, out, err = invoke(monkeypatch, capsys, [], stdin=text)
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize("prefix", ["", "0."])
    def test_long_literal_exits_2_at_its_position(self, prefix, monkeypatch, capsys):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this Python has no int/str digit limit")
        text = "x^2+\n 2*" + prefix + "1" * (limit + 700) + "*x"
        code, out, err = invoke(monkeypatch, capsys, [], stdin=text)
        assert (code, out) == (2, "")
        assert err.startswith("parse error at 2:4: ") and f"{limit} digits" in err

    @pytest.mark.parametrize("fmt", ["script", "expr"])
    def test_coefficient_over_digit_limit_exits_3(self, fmt, monkeypatch, capsys):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this Python has no int/str digit limit")
        text = "(12345678901234567890123*x)^500"
        code, out, err = invoke(monkeypatch, capsys, ["--format", fmt], stdin=text)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and f"{limit} digits" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["script", "vector", "expr"])
    @pytest.mark.parametrize("text", ["a^(10^5000)", "x^(10^5000)"])
    def test_exponent_over_digit_limit_exits_3(self, text, fmt, monkeypatch, capsys):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this Python has no int/str digit limit")
        code, out, err = invoke(monkeypatch, capsys, ["--format", fmt], stdin=text)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and f"{limit} digits" in err
        assert "Traceback" not in err

    def test_missing_input_file_exits_4(self, capsys):
        code = main(["/nonexistent/poly.txt"])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: cannot read '/nonexistent/poly.txt': No such file or directory\n"
        )

    def test_missing_rename_file_exits_4(self, tmp_path, monkeypatch, capsys):
        rules = str(tmp_path / "missing.txt")
        code, out, err = invoke(monkeypatch, capsys, ["--rename-file", rules], stdin="x")
        assert (code, out) == (4, "")
        assert err == f"error: cannot read {rules!r}: No such file or directory\n"

    def test_failing_stdout_exits_4(self, monkeypatch, capsys):
        class Full(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(sys, "stdin", io.StringIO("x+1"))
        monkeypatch.setattr(sys, "stdout", Full())
        assert main([]) == 4
        assert capsys.readouterr().err == "error: cannot write to stdout: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("terms", [1, 4000])  # inside and beyond one 8 KiB buffer
    def test_full_stdout_process(self, terms):
        # Buffered, as for a user: a failed flush keeps its bytes, and Python
        # flushes stdout once more at exit.
        env = package_env()
        env.pop("PYTHONUNBUFFERED", None)
        source = "+".join(f"a{i}*x^{i % 5}" for i in range(terms)).encode()
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "polybridge"],
                input=source,
                stdout=full,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        assert proc.stderr == b"error: cannot write to stdout: No space left on device\n"
        assert proc.returncode == 4

    def test_bad_rename_file_exits_4(self, tmp_path, monkeypatch, capsys):
        rules = tmp_path / "renames.txt"
        rules.write_text("nonsense line\n", encoding="utf-8")
        code, out, err = invoke(
            monkeypatch, capsys, ["--rename-file", str(rules)], stdin="x"
        )
        assert code == 4
        assert out == ""
        assert err == "error: line 1: rename rule 'nonsense line' is missing '='\n"

    def test_bad_inline_rename_exits_4(self, monkeypatch, capsys):
        code, out, err = invoke(
            monkeypatch, capsys, ["--rename", "β=Ω"], stdin="x"
        )
        assert code == 4
        assert out == ""
        assert err == "error: rename target 'Ω' is not an ASCII identifier\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--format", "csv"],
            ["--simplify", "2"],
            ["--var", "2x"],
            ["--var", "a+b"],
            ["--name", "9P"],
            ["--bogus-flag"],
        ],
    )
    def test_bad_options_exit_4(self, argv, monkeypatch, capsys):
        code, out, _ = invoke(monkeypatch, capsys, argv, stdin="x")
        assert code == 4
        assert out == ""

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "polybridge" in capsys.readouterr().out


class TestRunApi:
    def test_run_with_options_object(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("β*x+γ", encoding="utf-8")
        options = CliOptions(input=str(src), format="vector")
        assert run(options) == 0
        assert capsys.readouterr().out == "P=[beta, gamma];\n"

    @pytest.mark.parametrize(
        "options, message",
        [
            (CliOptions(format="csv"), "unknown format 'csv'"),
            (CliOptions(array_name="9P"), "array name '9P' is not an ASCII identifier"),
            (CliOptions(array_name="Ω"), "array name 'Ω' is not an ASCII identifier"),
            (CliOptions(main_var="2x"), "main variable '2x' is not an identifier"),
            (CliOptions(simplify_level=2), "simplify level must be 0 or 1, got 2"),
            (CliOptions(main_var="$"), "main variable '$' is not an identifier"),
        ],
        ids=[f"options{i}" for i in range(6)],
    )
    def test_run_rejects_bad_options(self, options, message, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO("x"))
        assert run(options) == 4
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_array_name_is_checked_before_input_is_read(self, tmp_path, capsys):
        options = CliOptions(input=str(tmp_path / "missing.txt"), array_name="end")
        assert run(options) == 4
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: array name 'end' is a Matlab keyword\n")

    @pytest.mark.parametrize(
        "stage, fmt",
        [
            ("parse", "script"),
            ("apply_renames", "script"),
            ("collect_main_var", "script"),
            ("normalize", "expr"),
            ("simplify", "vector"),
            ("emit_coeff_script", "script"),
            ("emit_coeff_vector", "vector"),
            ("check_array_name", "script"),
        ],
    )
    def test_value_error_in_a_stage_escapes(self, stage, fmt, monkeypatch, capsys):
        # Only the emitter's Unreadable is a refusal (exit 4); a plain
        # ValueError from any stage, the emitter included, is a bug, and must
        # not be reported as the user's fault.
        def broken(*args):
            raise ValueError("a bug")

        monkeypatch.setattr(f"polybridge.cli.{stage}", broken)
        monkeypatch.setattr(sys, "stdin", io.StringIO("x+1"))
        with pytest.raises(ValueError, match="^a bug$"):
            run(CliOptions(format=fmt))
        assert capsys.readouterr() == ("", "")

    def test_run_accepts_escaped_main_variable(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO("β^2+1"))
        assert run(CliOptions(main_var="\\[Beta]", format="vector")) == 0
        escaped = capsys.readouterr().out
        code, out, _ = invoke(monkeypatch, capsys, ["--var", "β", "--format", "vector"], stdin="β^2+1")
        assert code == 0
        assert escaped == out == "P=[1, 0, 1];\n"


def package_env() -> dict[str, str]:
    """This process's environment with this checkout's package on the path."""
    env = dict(os.environ)
    src = str(Path(polybridge.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_module(args, stdin: bytes) -> subprocess.CompletedProcess:
    """Run `python -m polybridge` with this checkout's package on the path."""
    return subprocess.run(
        [sys.executable, "-m", "polybridge", *args],
        input=stdin,
        capture_output=True,
        env=package_env(),
        timeout=60,
    )


class TestInvalidUtf8:
    def test_undecodable_stdin_exits_4(self, monkeypatch, capsys):
        # A surrogateescape stdin hands undecodable bytes on as lone surrogates.
        code, out, err = invoke(monkeypatch, capsys, [], stdin="x+\udcff")
        assert code == 4
        assert out == ""
        assert err == "error: cannot read '-': not valid UTF-8\n"

    def test_undecodable_stdin_process(self):
        proc = run_module([], b"x+\xff")
        assert proc.returncode == 4
        assert proc.stdout == b""
        assert proc.stderr == b"error: cannot read '-': not valid UTF-8\n"

    def test_undecodable_input_file_exits_4(self, tmp_path, capsys):
        src = tmp_path / "poly.txt"
        src.write_bytes(b"x+\xff\n")
        code = main([str(src)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == f"error: cannot read {str(src)!r}: not valid UTF-8\n"

    def test_undecodable_rename_file_exits_4(self, tmp_path, monkeypatch, capsys):
        rules = tmp_path / "renames.txt"
        rules.write_bytes(b"\xff=y\n")
        code, out, err = invoke(monkeypatch, capsys, ["--rename-file", str(rules)], stdin="x")
        assert code == 4
        assert out == ""
        assert err == f"error: rename file {str(rules)!r} is not valid UTF-8\n"


class TestMainVariableRenamed:
    def test_greek_main_variable(self, monkeypatch, capsys):
        code, out, _ = invoke(monkeypatch, capsys, ["--var", "β"], stdin="β^2+1")
        assert code == 0
        assert out == "P(1)=1;\nP(2)=0;\nP(3)=1;\n"

    def test_inline_rename_of_main_variable(self, monkeypatch, capsys):
        code, out, _ = invoke(monkeypatch, capsys, ["--rename", "x=z"], stdin="x^2")
        assert code == 0
        assert out == "P(1)=1;\nP(2)=0;\nP(3)=0;\n"

    def test_renamed_main_variable_in_options_object(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO("a*γ_b^2+γ_b"))
        assert run(CliOptions(main_var="γ_b", format="vector")) == 0
        assert capsys.readouterr().out == "P=[a, 1, 0];\n"


# Input the explicit-stack parser reads but whose tree is too deep for the
# recursive `normalize`; a 990-long '-' chain sits too near the recursion
# limit for its CLI outcome to be stable, so test_parser covers it.
DEEP_INPUTS = {
    "minus_2000": "-" * 2000 + "x",
    "tower": "^".join(["2"] * 1500),
}


class TestDeepNesting:
    @pytest.mark.parametrize("name", sorted(DEEP_INPUTS))
    def test_deep_input_exits_3(self, name, monkeypatch, capsys):
        code, out, err = invoke(monkeypatch, capsys, [], stdin=DEEP_INPUTS[name])
        assert (code, out, err) == (3, "", "error: expression is nested too deeply\n")

    def test_deep_parentheses_convert(self, monkeypatch, capsys):
        text = "(" * 300 + "x" + ")" * 300
        code, out, err = invoke(monkeypatch, capsys, [], stdin=text)
        assert (code, out, err) == (0, "P(1)=1;\nP(2)=0;\n", "")

    def test_deep_input_process(self):
        proc = run_module([], DEEP_INPUTS["minus_2000"].encode("ascii"))
        assert proc.returncode == 3
        assert proc.stdout == b""
        assert proc.stderr == b"error: expression is nested too deeply\n"

    @pytest.mark.parametrize("fmt", ["script", "vector", "expr"])
    def test_horner_form_of_degree_300_converts(self, fmt):
        # Two tree levels per degree: (…((a0)*x+a1)*x+…)*x+a300.
        n = 300
        horner = "(a0)"
        for i in range(1, n + 1):
            horner = f"({horner}*x+a{i})"
        expanded = "+".join(f"a{i}*x^{n - i}" for i in range(n + 1))
        code, out, err = run_cli(horner, format=fmt)
        assert (code, err) == (0, "")
        assert (code, out, err) == run_cli(expanded, format=fmt)
        if fmt == "vector":
            assert out == "P=[" + ", ".join(f"a{i}" for i in range(n + 1)) + "];\n"


def limit_address_space():
    """Run in the child: cap its memory at 2 GB, so a runaway power fails fast."""
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


class TestPowerLimit:
    def test_power_tower_exits_3_at_once(self):
        # 2^(2^65536): refused before any power of it is computed.
        proc = subprocess.run(
            [sys.executable, "-m", "polybridge"],
            input=b"2^2^2^2^2^2+x",
            capture_output=True,
            env=package_env(),
            timeout=20,
            preexec_fn=limit_address_space,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            3, b"", b"error at 1:1: exponent magnitude is above the limit of 65536\n"
        )

    @pytest.mark.parametrize(
        "text, column",
        [("2^(10^9)+x", 1), ("0.5^3^020+0.5β", 1), ("b^3^3^22.x^2", 3), ("(x+1)^100000", 2)],
    )
    def test_large_powers_exit_3(self, text, column):
        assert run_cli(text) == (
            3, "", f"error at 1:{column}: exponent magnitude is above the limit of 65536\n"
        )


class TestSimplifyTime:
    # The remainder sequence that the heuristic GCD replaced spent 13 s and
    # 5 s in `simplify` on these; the digests are of its output.
    @pytest.mark.parametrize(
        "text, digest",
        [
            ("x*(b^300-1)/(b^7-2*b+1)^40", "c342f501e4e9cd924b530f452dd0037385e608017fdd54f3da4d801fdc473f78"),
            ("x*((b+1)^200-1)/((b+2)^150+1)", "ae9f2bc08f9b113faddbe5eee41ba107aa00465106fd57b6875e0802a56eb047"),
        ],
    )
    def test_large_gcd_inputs_convert_fast(self, text, digest):
        proc = subprocess.run(
            [sys.executable, "-m", "polybridge"],
            input=text.encode("ascii"),
            capture_output=True,
            env=package_env(),
            timeout=5,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert hashlib.sha256(proc.stdout).hexdigest() == digest


# Fragments of the contract fuzz.
OPERANDS = ["x", "a", "P", "end", "β", "\\[Beta]", "0.5"]
OPERATORS = ["+", "-", "*", "/", " ", ""]
NOISE = [*OPERANDS, *OPERATORS, "(", ")", ";", "7 "]
FUZZ_OPTIONS = [
    dict(format=fmt, simplify_level=level, main_var=var)
    for fmt in ("script", "vector", "expr")
    for level in (0, 1)
    for var in ("x", "a", "P")
]


@st.composite
def fuzz_inputs(draw):
    """One to four operands joined by operators, with at most one '^' (in
    an operator's place), at most one parenthesized group of one or two
    operands, and at most one fragment of noise anywhere.

    An integer carries a trailing space, so two never merge into a larger
    number. A noise parenthesis leaves the parentheses unbalanced, a syntax
    error, so a '^' raises at most a two-term sum to a power below 100.
    """
    operand = st.one_of(st.sampled_from(OPERANDS), st.integers(0, 99).map(lambda n: f"{n} "))
    n = draw(st.integers(1, 4))
    operands = [draw(operand) for _ in range(n)]
    operators = [draw(st.sampled_from(OPERATORS)) for _ in range(n - 1)]
    if operators and draw(st.booleans()):
        operators[draw(st.integers(0, n - 2))] = "^"
    if draw(st.booleans()):
        first = draw(st.integers(0, n - 1))
        last = draw(st.integers(first, min(first + 1, n - 1)))
        operands[first] = "(" + operands[first]
        operands[last] += ")"
    parts = [operands[0]]
    for operator, operand_text in zip(operators, operands[1:]):
        parts += [operator, operand_text]
    if draw(st.booleans()):
        parts.insert(draw(st.integers(0, len(parts))), draw(st.sampled_from(NOISE)))
    return "".join(parts)


class TestContractFuzz:
    """Exit code in {0,2,3,4}, no stdout on failure, never a traceback."""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(fuzz_inputs())
    def test_cli_contract(self, text):
        for options in FUZZ_OPTIONS:
            code, out, err = run_cli(text, **options)
            assert code in (0, 2, 3, 4), (text, options)
            assert code == 0 or out == "", (text, options)
            assert "Traceback" not in err, (text, options)


class TestModuleEntryPoint:
    def test_import_skips_fractions_and_decimal(self):
        # `fractions` imports `decimal`; the parser builds decimals from digits.
        # No module imports `typing` at run time either. `-S` skips the site
        # `.pth` files, which may load any of these before the package does.
        code = (
            "import sys, polybridge.cli; polybridge.cli.parse('0.5*x+1.25');"
            " print(sorted({'fractions', 'decimal', 'typing'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True,
            env=package_env(),
            timeout=60,
            text=True,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    def test_python_dash_m_runs_without_warnings(self):
        proc = run_module(["--format", "vector"], "β*x+γ".encode("utf-8"))
        assert proc.returncode == 0
        assert proc.stdout.decode("utf-8") == "P=[beta, gamma];\n"
        assert proc.stderr == b""


class TestAtomicOutput:
    """`-o` replaces its target only once the whole result is written."""

    OLD = "P(1)=old;\n"
    NEW = "P(1)=1;\nP(2)=1;\n"

    @pytest.mark.parametrize("failing", ["write", "replace"])
    def test_failed_write_leaves_target_intact(self, failing, tmp_path, monkeypatch, capsys):
        dst = tmp_path / "out.m"
        dst.write_text(self.OLD, encoding="utf-8")
        if failing == "write":
            real_open = open

            class DiskFull:
                """A file that takes a few characters, then runs out of space."""

                def __init__(self, fh):
                    self.fh = fh

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    self.fh.close()

                def write(self, text):
                    self.fh.write(text[:4])
                    self.fh.flush()
                    raise OSError(errno.ENOSPC, "No space left on device")

            monkeypatch.setattr(
                "polybridge.cli.open", lambda *a, **k: DiskFull(real_open(*a, **k)), raising=False
            )
        else:

            def refuse(src, dst):
                raise OSError(errno.EXDEV, "Invalid cross-device link")

            monkeypatch.setattr(os, "replace", refuse)
        code, out, err = invoke(monkeypatch, capsys, ["-o", str(dst)], stdin="x+1")
        assert code == 4
        assert out == ""
        assert err.startswith(f"error: cannot write {str(dst)!r}: ")
        assert dst.read_text(encoding="utf-8") == self.OLD
        assert os.listdir(tmp_path) == ["out.m"]

    def test_missing_directory_names_the_target(self, tmp_path, monkeypatch, capsys):
        dst = tmp_path / "missing" / "out.m"
        code, out, err = invoke(monkeypatch, capsys, ["-o", str(dst)], stdin="x+1")
        assert (code, out) == (4, "")
        assert err == f"error: cannot write {str(dst)!r}: No such file or directory\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    def test_file_mode_matches_plain_open(self, tmp_path, monkeypatch, capsys):
        fresh, old = tmp_path / "fresh.m", tmp_path / "old.m"
        old.write_text(self.OLD, encoding="utf-8")
        old.chmod(0o640)
        for dst in (fresh, old):
            assert invoke(monkeypatch, capsys, ["-o", str(dst)], stdin="x+1")[0] == 0
            assert dst.read_text(encoding="utf-8") == self.NEW
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~umask
        assert stat.S_IMODE(old.stat().st_mode) == 0o640

    @pytest.mark.skipif(os.name != "posix", reason="POSIX symlinks")
    def test_symlink_is_written_through(self, tmp_path, monkeypatch, capsys):
        real, link = tmp_path / "real.m", tmp_path / "link.m"
        real.write_text(self.OLD, encoding="utf-8")
        link.symlink_to(real)
        assert invoke(monkeypatch, capsys, ["-o", str(link)], stdin="x+1")[0] == 0
        assert link.is_symlink()
        assert real.read_text(encoding="utf-8") == self.NEW
        assert sorted(os.listdir(tmp_path)) == ["link.m", "real.m"]

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    def test_special_mode_bits_are_not_copied(self, tmp_path, monkeypatch, capsys):
        dst = tmp_path / "out.m"
        dst.write_text(self.OLD, encoding="utf-8")
        dst.chmod(0o4755)
        assert invoke(monkeypatch, capsys, ["-o", str(dst)], stdin="x+1")[0] == 0
        assert stat.S_IMODE(dst.stat().st_mode) == 0o755

    def test_replaced_file_is_synced(self, tmp_path, monkeypatch, capsys):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))
        assert invoke(monkeypatch, capsys, ["-o", str(tmp_path / "out.m")], stdin="x+1")[0] == 0
        assert len(synced) == 1

    def test_target_that_cannot_be_written_is_refused(self, tmp_path, monkeypatch, capsys):
        dst = tmp_path / "out.m"
        dst.write_text(self.OLD, encoding="utf-8")
        real_access = os.access
        monkeypatch.setattr(
            os, "access", lambda path, mode: path != str(dst) and real_access(path, mode)
        )
        code, out, err = invoke(monkeypatch, capsys, ["-o", str(dst)], stdin="x+1")
        assert (code, out) == (4, "")
        assert err == f"error: cannot write {str(dst)!r}: Permission denied\n"
        assert dst.read_text(encoding="utf-8") == self.OLD
        assert os.listdir(tmp_path) == ["out.m"]

    def test_unwritable_directory_writes_in_place(self, tmp_path, monkeypatch, capsys):
        dst = tmp_path / "out.m"
        dst.write_text(self.OLD, encoding="utf-8")
        inode = dst.stat().st_ino
        real_access = os.access
        monkeypatch.setattr(
            os, "access", lambda path, mode: path != str(tmp_path) and real_access(path, mode)
        )
        assert invoke(monkeypatch, capsys, ["-o", str(dst)], stdin="x+1")[0] == 0
        assert dst.read_text(encoding="utf-8") == self.NEW
        assert dst.stat().st_ino == inode

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes")
    def test_named_pipe_is_written_not_replaced(self, tmp_path, monkeypatch, capsys):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert invoke(monkeypatch, capsys, ["-o", str(fifo)], stdin="x+1")[0] == 0
            assert os.read(reader, 1 << 16) == self.NEW.encode("utf-8")
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert os.listdir(tmp_path) == ["out.fifo"]

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    @pytest.mark.parametrize("stream", ["stdout", "stderr"])
    def test_standard_stream_device_is_written_through(self, stream):
        proc = run_module(["-o", f"/dev/{stream}"], b"x+1")
        assert proc.returncode == 0
        assert getattr(proc, stream) == self.NEW.encode("utf-8")

    def test_path_ending_in_separator_is_refused(self, tmp_path, monkeypatch, capsys):
        dst = str(tmp_path / "new") + os.sep
        code, out, err = invoke(monkeypatch, capsys, ["-o", dst], stdin="x+1")
        assert (code, out) == (4, "")
        assert err == f"error: cannot write {dst!r}: Is a directory\n"
        assert os.listdir(tmp_path) == []
