"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` reports the same results through test outcomes.
"""

import io
import re
import sys
import time
from pathlib import Path
from random import Random

import pytest

from polybridge import (
    emit_expr,
    normalize,
    parse,
)
from polybridge.cli import CliOptions, main, run

from genlib import (
    eval_at,
    eval_at_valid_point,
    rand_main_var_poly_expr,
    rand_ratfunc,
    ratfunc_equal,
)

FIXTURE = Path(__file__).parent / "fixtures" / "det3x3.txt"


def report(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({label}): {status}{' - ' + detail if detail else ''}")
    assert ok, f"criterion {number} ({label}) failed {detail}"


def cli(monkeypatch, capsys, argv, stdin=""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_criterion_1_inputform_byte_fidelity(monkeypatch, capsys):
    source = "a^2 b^3/(c^4 (t-u))"
    target = "a^2*b^3/(c^4*(t-u))"
    code, out, _ = cli(monkeypatch, capsys, ["--format", "expr"], stdin=source)
    byte_ok = code == 0 and out == target + "\n"

    # warmed-up in-process pipeline time
    options = CliOptions(input="-", format="expr")
    monkeypatch.setattr(sys, "stdin", io.StringIO(source))
    run(options)
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdin", io.StringIO(source))
    start = time.perf_counter()
    run(options)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    capsys.readouterr()

    report(
        1,
        "InputForm byte-fidelity",
        byte_ok and elapsed_ms < 10.0,
        f"output={out!r} time={elapsed_ms:.2f}ms",
    )


def test_criterion_2_script_ordering(monkeypatch, capsys):
    code, out, _ = cli(monkeypatch, capsys, [], stdin="c2*x^2+c1*x+c0")
    ok = code == 0 and out == "P(1)=c2;\nP(2)=c1;\nP(3)=c0;\n"
    report(2, "script ordering, leading coefficient first", ok, repr(out))


def test_criterion_3_greek_defaults(monkeypatch, capsys):
    code, out, _ = cli(monkeypatch, capsys, [], stdin="β*x^2+γ_b*x+ω")
    data = out.encode("utf-8")
    ok = (
        code == 0
        and all(byte < 0x80 for byte in data)
        and b"beta" in data
        and b"gamma_b" in data
        and b"omega" in data
    )
    report(3, "Greek defaults produce pure ASCII", ok, repr(out))


def test_criterion_4_reconstruction_oracle():
    from polybridge import collect_main_var

    rng = Random(20260811)
    failures = []
    for case in range(200):
        tree, params = rand_main_var_poly_expr(rng)
        poly = collect_main_var(tree, "x")
        names = params + ("x",)
        for _ in range(20):
            point, direct = eval_at_valid_point(rng, tree, names)
            xv = point["x"]
            recon = sum(
                eval_at(c, point) * xv**k for k, c in enumerate(poly.coeffs)
            )
            if recon != direct:
                failures.append((case, point))
    report(
        4,
        "reconstruction at 200 x 20 random rational points",
        not failures,
        f"{len(failures)} failures",
    )


def test_criterion_5_round_trip_property():
    rng = Random(5150)
    failures = 0
    for _ in range(500):
        r = rand_ratfunc(rng)
        if not ratfunc_equal(normalize(parse(emit_expr(r))), r):
            failures += 1
    report(5, "emit/parse/normalize round-trip x 500", failures == 0, f"{failures} failures")


def test_criterion_6_degree_14_surrogate(monkeypatch, capsys, tmp_path):
    from polybridge import collect_main_var

    out_file = tmp_path / "coeffs.m"
    start = time.perf_counter()
    code = run(CliOptions(input=str(FIXTURE), output=str(out_file)))
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    script = out_file.read_text(encoding="utf-8")

    lines = script.splitlines()
    poly = collect_main_var(parse(FIXTURE.read_text(encoding="utf-8")), "x")
    degree_ok = 12 <= poly.degree <= 15
    var_free = all(
        "x" not in c.numerator.symbols and "x" not in c.denominator.symbols
        for c in poly.coeffs
    )
    count_ok = len(lines) == poly.degree + 1

    reparse_ok = True
    pattern = re.compile(r"^P\((\d+)\)=(.*);$")
    for line in lines:
        match = pattern.match(line)
        if match is None:
            reparse_ok = False
            break
        monkeypatch.setattr(sys, "stdin", io.StringIO(match.group(2)))
        if main(["--format", "expr"]) != 0:
            reparse_ok = False
            break
    capsys.readouterr()

    ok = code == 0 and degree_ok and var_free and count_ok and reparse_ok and elapsed < 5.0
    report(
        6,
        "3x3 determinant surrogate",
        ok,
        f"degree={poly.degree} lines={len(lines)} time={elapsed:.2f}s",
    )


def test_criterion_7_error_contracts(monkeypatch, capsys):
    laurent_code, laurent_out, _ = cli(monkeypatch, capsys, [], stdin="1/x")
    sym_code, sym_out, _ = cli(monkeypatch, capsys, [], stdin="x^y")
    paren_code, paren_out, paren_err = cli(monkeypatch, capsys, [], stdin="(x+1")
    ok = (
        laurent_code == 3
        and sym_code == 3
        and paren_code == 2
        and re.search(r"\d+:\d+", paren_err) is not None
        and laurent_out == sym_out == paren_out == ""
    )
    report(
        7,
        "error contracts (exit 3/3/2, silent stdout)",
        ok,
        f"codes=({laurent_code},{sym_code},{paren_code})",
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
