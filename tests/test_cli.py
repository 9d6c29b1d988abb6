import errno
import io
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import polybridge
from polybridge.cli import CliOptions, main, run


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

    def test_time_flag_reports_stages(self, monkeypatch, capsys):
        code, out, err = invoke(monkeypatch, capsys, ["--time"], stdin="x+1")
        assert code == 0
        assert out == "P(1)=1;\nP(2)=1;\n"
        for stage in ("parse", "rename", "collect", "simplify", "emit", "write"):
            assert re.search(rf"^{stage}: [0-9.]+ ms$", err, re.M), err


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
        assert "beta" in err


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
        assert capsys.readouterr().out == ""

    def test_bad_rename_file_exits_4(self, tmp_path, monkeypatch, capsys):
        rules = tmp_path / "renames.txt"
        rules.write_text("nonsense line\n", encoding="utf-8")
        code, out, _ = invoke(
            monkeypatch, capsys, ["--rename-file", str(rules)], stdin="x"
        )
        assert code == 4
        assert out == ""

    def test_bad_inline_rename_exits_4(self, monkeypatch, capsys):
        code, out, _ = invoke(
            monkeypatch, capsys, ["--rename", "β=Ω"], stdin="x"
        )
        assert code == 4
        assert out == ""

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
        "options",
        [
            CliOptions(format="csv"),
            CliOptions(array_name="9P"),
            CliOptions(array_name="Ω"),
            CliOptions(main_var="2x"),
        ],
    )
    def test_run_rejects_bad_options(self, options, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO("x"))
        assert run(options) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_run_accepts_escaped_main_variable(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO("β^2+1"))
        assert run(CliOptions(main_var="\\[Beta]", format="vector")) == 0
        escaped = capsys.readouterr().out
        code, out, _ = invoke(monkeypatch, capsys, ["--var", "β", "--format", "vector"], stdin="β^2+1")
        assert code == 0
        assert escaped == out == "P=[1, 0, 1];\n"


def run_module(args, stdin: bytes) -> subprocess.CompletedProcess:
    """Run `python -m polybridge` with this checkout's package on the path."""
    env = dict(os.environ)
    src = str(Path(polybridge.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "polybridge", *args],
        input=stdin,
        capture_output=True,
        env=env,
        timeout=60,
    )


class TestInvalidUtf8:
    def test_undecodable_stdin_exits_4(self, monkeypatch, capsys):
        # A surrogateescape stdin hands undecodable bytes on as lone surrogates.
        code, out, err = invoke(monkeypatch, capsys, [], stdin="x+\udcff")
        assert code == 4
        assert out == ""
        assert err.startswith("error:") and "UTF-8" in err

    def test_undecodable_stdin_process(self):
        proc = run_module([], b"x+\xff")
        assert proc.returncode == 4
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error:")
        assert b"Traceback" not in proc.stderr

    def test_undecodable_input_file_exits_4(self, tmp_path, capsys):
        src = tmp_path / "poly.txt"
        src.write_bytes(b"x+\xff\n")
        code = main([str(src)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("error:") and "UTF-8" in captured.err

    def test_undecodable_rename_file_exits_4(self, tmp_path, monkeypatch, capsys):
        rules = tmp_path / "renames.txt"
        rules.write_bytes(b"\xff=y\n")
        code, out, err = invoke(monkeypatch, capsys, ["--rename-file", str(rules)], stdin="x")
        assert code == 4
        assert out == ""
        assert err.startswith("error:") and "UTF-8" in err


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

    @pytest.mark.parametrize(
        "stage", ["parse", "apply_renames", "collect_main_var", "simplify", "emit_coeff_script"]
    )
    def test_recursion_error_in_any_stage_exits_3(self, stage, monkeypatch, capsys):
        def too_deep(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(polybridge.cli, stage, too_deep)
        code, out, err = invoke(monkeypatch, capsys, [], stdin="a*x^2+b")
        assert (code, out, err) == (3, "", "error: expression is nested too deeply\n")

    def test_deep_input_process(self):
        proc = run_module([], DEEP_INPUTS["minus_2000"].encode("ascii"))
        assert proc.returncode == 3
        assert proc.stdout == b""
        assert proc.stderr == b"error: expression is nested too deeply\n"


class TestModuleEntryPoint:
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
