"""Command-line front end: parse, rename, collect, simplify, emit.

Exit codes: 0 success; 2 lex/parse error; 3 the input is not a polynomial
in the main variable (or has a symbolic exponent / zero denominator);
4 rename collisions, bad options, or I/O failures. Diagnostics go to
stderr only; stdout (or the output file) receives either the complete
result or nothing.
"""

from __future__ import annotations

import argparse
import errno
import os
import stat
import sys
import time
from dataclasses import dataclass
from typing import Callable, Sequence, TextIO

from .algebra import (
    AlgebraError,
    MainVarPoly,
    RatFunc,
    collect_main_var,
    normalize,
    simplify,
)
from .emitter import (
    FORMAT_EXPR,
    FORMAT_SCRIPT,
    FORMATS,
    EmitConfig,
    emit_coeff_script,
    emit_coeff_vector,
    emit_expr,
)
from .parser import SourceError, parse, parse_identifier
from .rename import (
    RenameCollision,
    RenameError,
    RenameSpec,
    apply_renames,
    default_greek_map,
    inline_rename_spec,
    load_rename_file,
    resolve_renames,
)

EXIT_OK = 0
EXIT_SYNTAX = 2
EXIT_NOT_POLYNOMIAL = 3
EXIT_USAGE = 4


@dataclass
class CliOptions:
    input: str = "-"
    output: str | None = None
    main_var: str = "x"
    format: str = FORMAT_SCRIPT
    array_name: str = "P"
    greek_defaults: bool = True
    rename_file: str | None = None
    inline_renames: tuple[str, ...] = ()
    simplify_level: int = 1
    show_time: bool = False


class _Timer:
    def __init__(self, enabled: bool, diag: TextIO):
        self.enabled = enabled
        self.diag = diag

    def stage(self, name: str, fn: Callable):
        start = time.perf_counter()
        result = fn()
        if self.enabled:
            elapsed = (time.perf_counter() - start) * 1000.0
            print(f"{name}: {elapsed:.2f} ms", file=self.diag)
        return result


def _line_column(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of a span's character offset into `text`."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _read_input(source: str) -> str:
    if source == "-":
        text = sys.stdin.read()
    else:
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    # A stdin that decodes with surrogateescape turns invalid bytes into
    # lone surrogates instead of failing; strict encoding refuses them.
    text.encode("utf-8")
    return text


def _strip_statement_terminator(text: str) -> str:
    # Users paste notebook lines verbatim; one trailing ';' is accepted.
    stripped = text.rstrip()
    if stripped.endswith(";"):
        stripped = stripped[:-1].rstrip()
    return stripped


def _build_specs(options: CliOptions) -> list[RenameSpec]:
    specs: list[RenameSpec] = []
    if options.greek_defaults:
        specs.append(default_greek_map())
    if options.rename_file is not None:
        specs.append(load_rename_file(options.rename_file))
    for rule in options.inline_renames:
        specs.append(inline_rename_spec(rule))
    return specs


def _symbols_in(values: Sequence[RatFunc]) -> set[str]:
    # The two sides of a canonical value share one symbol table.
    return {s for r in values for s in r.numerator.symbols}


def _non_ascii(symbols: set[str]) -> str:
    return ", ".join(sorted(s for s in symbols if not s.isascii()))


def run(options: CliOptions) -> int:
    """Execute the full pipeline; returns the process exit code.

    Options are validated here only, before any input is read. Input nested
    deeper than Python's recursion limit exits 3, whichever stage hits it.
    """
    try:
        return _run(options)
    except RecursionError:
        print("error: expression is nested too deeply", file=sys.stderr)
        return EXIT_NOT_POLYNOMIAL


def _run(options: CliOptions) -> int:
    diag = sys.stderr
    timer = _Timer(options.show_time, diag)
    try:
        if options.format not in FORMATS:
            raise ValueError(f"unknown format {options.format!r}")
        cfg = EmitConfig(options.array_name)
        if options.simplify_level not in (0, 1):
            raise ValueError(f"simplify level must be 0 or 1, got {options.simplify_level!r}")
        main_var = parse_identifier(options.main_var)
        if main_var is None:
            raise ValueError(f"main variable {options.main_var!r} is not an identifier")
    except ValueError as err:
        print(f"error: {err}", file=diag)
        return EXIT_USAGE

    try:
        text = _strip_statement_terminator(_read_input(options.input))
    except OSError as err:
        print(f"error: cannot read {options.input!r}: {err}", file=diag)
        return EXIT_USAGE
    except UnicodeError:
        print(f"error: cannot read {options.input!r}: not valid UTF-8", file=diag)
        return EXIT_USAGE

    try:
        tree = timer.stage("parse", lambda: parse(text))
    except SourceError as err:
        line, column = _line_column(text, err.span[0])
        print(f"{err.kind} error at {line}:{column}: {err.message}", file=diag)
        return EXIT_SYNTAX

    try:
        specs = _build_specs(options)
        renamed = timer.stage("rename", lambda: apply_renames(tree, *specs))
    except (RenameError, RenameCollision, OSError) as err:
        print(f"error: {err}", file=diag)
        return EXIT_USAGE
    # The main variable is renamed by the same rules as the tree's symbols.
    main_var = resolve_renames({main_var}, tuple(specs))[main_var]

    try:
        if options.format == FORMAT_EXPR:
            value = timer.stage("normalize", lambda: normalize(renamed))
            value = timer.stage("simplify", lambda: simplify(value, options.simplify_level))
            output = timer.stage("emit", lambda: emit_expr(value) + "\n")
            residue = _non_ascii(_symbols_in([value]))
            if residue:
                print(f"warning: output contains non-ASCII symbols: {residue}", file=diag)
        else:
            collected = timer.stage("collect", lambda: collect_main_var(renamed, main_var))
            collected = timer.stage(
                "simplify",
                lambda: MainVarPoly(
                    collected.main_var,
                    tuple(simplify(c, options.simplify_level) for c in collected.coeffs),
                ),
            )
            used = _symbols_in(collected.coeffs)
            residue = _non_ascii(used)
            if residue:
                print(
                    f"error: non-ASCII symbols remain after renaming: {residue}"
                    " (add --rename rules or use --format expr)",
                    file=diag,
                )
                return EXIT_USAGE
            if options.format == FORMAT_SCRIPT:
                # `P(1)=...;` would overwrite a parameter `P` before a later
                # line reads it; the vector format reads before it assigns.
                if cfg.array_name in used:
                    print(
                        f"error: symbol '{cfg.array_name}' is also the array name, so the"
                        " script would overwrite it (choose another --name or --rename it)",
                        file=diag,
                    )
                    return EXIT_USAGE
                output = timer.stage("emit", lambda: emit_coeff_script(collected, cfg))
            else:
                output = timer.stage("emit", lambda: emit_coeff_vector(collected, cfg) + "\n")
    except AlgebraError as err:
        location = ""
        if err.span is not None:
            line, column = _line_column(text, err.span[0])
            location = f" at {line}:{column}"
        print(f"error{location}: {err}", file=diag)
        return EXIT_NOT_POLYNOMIAL

    try:
        timer.stage("write", lambda: _write_output(options.output, output))
    except OSError as err:
        print(f"error: cannot write {options.output!r}: {err.strerror or err}", file=diag)
        return EXIT_USAGE
    return EXIT_OK


def _write_output(destination: str | None, output: str) -> None:
    """Write to stdout or to `destination`, replacing a regular file whole.

    A new or regular file in a writable directory is written to a file beside
    it, synced and renamed over it, so a failed write leaves it as it was. The
    new file keeps the target's permission bits (0o666 less the umask if new),
    not its owner, ACLs or hard links. Anything else (a device, a pipe, a path
    ending in a separator, a file in an unwritable directory) is written in
    place by `open(destination, "w")`. As with `open`, symlinks are followed
    and an unwritable target is refused.
    """
    if destination is None:
        sys.stdout.write(output)
        sys.stdout.flush()
        return
    try:
        st = os.stat(destination)
    except FileNotFoundError:
        st = None
    target = os.path.realpath(destination)
    in_place = not os.path.basename(destination) or (st and not stat.S_ISREG(st.st_mode))
    if in_place or not os.access(os.path.dirname(target), os.W_OK):
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write(output)
        return
    if st is not None and not os.access(target, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), destination)
    temp = f"{target}.{os.urandom(4).hex()}.tmp"
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(output)
            fh.flush()
            os.fsync(fh.fileno())
        if st is not None:
            os.chmod(temp, stat.S_IMODE(st.st_mode) & 0o777)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


class _ArgumentParser(argparse.ArgumentParser):
    # Bad options are exit code 4 here, not argparse's default 2 (which is
    # reserved for syntax errors in the input expression).
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="polybridge",
        description=(
            "Translate a symbolic polynomial expression into a "
            "coefficient-assignment script (leading coefficient first), a "
            "coefficient vector, or an explicit-operator expression."
        ),
    )
    parser.add_argument(
        "input",
        nargs="?",
        default="-",
        metavar="INPUT",
        help="input file, or '-' for stdin (default)",
    )
    parser.add_argument("-o", "--output", help="output file (default: stdout)")
    parser.add_argument("--var", default="x", help="main variable (default: x)")
    parser.add_argument(
        "--format",
        choices=list(FORMATS),
        default=FORMAT_SCRIPT,
        help="output format (default: script)",
    )
    parser.add_argument("--name", default="P", help="target array name (default: P)")
    parser.add_argument(
        "--no-greek-defaults",
        dest="greek_defaults",
        action="store_false",
        help="do not apply the built-in Greek-to-ASCII rename table",
    )
    parser.add_argument("--rename-file", help="file of FROM=TO rename rules (one per line)")
    parser.add_argument(
        "--rename",
        action="append",
        default=[],
        metavar="FROM=TO",
        help="extra rename rule; repeatable, later rules win",
    )
    parser.add_argument(
        "--simplify",
        type=int,
        choices=[0, 1],
        default=1,
        help="coefficient simplification level (default: 1)",
    )
    parser.add_argument(
        "--time",
        dest="show_time",
        action="store_true",
        help="report per-stage wall time on stderr",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        ns = _build_arg_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message (--help exits 0).
        return int(exc.code or 0)

    options = CliOptions(
        input=ns.input,
        output=ns.output,
        main_var=ns.var,
        format=ns.format,
        array_name=ns.name,
        greek_defaults=ns.greek_defaults,
        rename_file=ns.rename_file,
        inline_renames=tuple(ns.rename),
        simplify_level=ns.simplify,
        show_time=ns.show_time,
    )
    return run(options)


if __name__ == "__main__":
    raise SystemExit(main())
