"""Command-line front end: parse, rename, collect, simplify, emit.

Exit codes: 0 success; 2 `SourceError` (lex/parse); 3 `AlgebraError`: not a
polynomial in the main variable (or a symbolic exponent / zero denominator,
nesting too deep, or a constant or sum raised beyond `algebra.MAX_DEGREE`);
4 `RenameError` (collisions too), bad options, I/O failures, or symbols the
script or vector emitter refuses because Matlab would misread them. Each
error is worded where it is raised and printed as one stderr line; stdout
(or the output file) receives either the complete result or nothing.
"""

from __future__ import annotations

import argparse
import errno
import os
import stat
import sys
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .algebra import (
    AlgebraError,
    MainVarPoly,
    collect_main_var,
    normalize,
    simplify,
)
from .emitter import (
    FORMAT_EXPR,
    FORMAT_SCRIPT,
    FORMATS,
    check_array_name,
    emit_coeff_script,
    emit_coeff_vector,
    emit_expr,
)
from .parser import SourceError, parse, parse_identifier
from .rename import (
    RenameError,
    apply_renames,
    load_rename_file,
    parse_rename_entry,
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


class _Refusal(Exception):
    """A refusal that exits 4, worded where it is raised."""


def _read_input(source: str) -> str:
    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        # A stdin that decodes with surrogateescape turns invalid bytes into
        # lone surrogates instead of failing; strict encoding refuses them.
        text.encode("utf-8")
    except OSError as err:
        raise _Refusal(f"cannot read {source!r}: {err.strerror or err}") from None
    except UnicodeError:
        raise _Refusal(f"cannot read {source!r}: not valid UTF-8") from None
    return text


def _strip_statement_terminator(text: str) -> str:
    # Users paste notebook lines verbatim; one trailing ';' is accepted.
    stripped = text.rstrip()
    if stripped.endswith(";"):
        stripped = stripped[:-1].rstrip()
    return stripped


def _emitted(emit: Callable, *args):
    """Call an emitter function; the ValueError it raises on a name Matlab
    would misread is a refusal. No other stage's ValueError is caught."""
    try:
        return emit(*args)
    except ValueError as err:
        raise _Refusal(err) from None


def run(options: CliOptions) -> int:
    """Execute the full pipeline; returns the process exit code.

    Options are validated before any input is read; the array name, by the
    emitter's own check, only in the script and vector formats. One handler
    per exit code: SourceError exits 2, AlgebraError 3 (also for input nested
    too deeply), RenameError and the refusals of an option, a file or an
    emitted symbol 4. Any other exception is a bug and escapes. The simplify
    stage runs only at simplify level 1.
    """
    diag = sys.stderr

    def stage(name: str, fn: Callable):
        start = time.perf_counter()
        result = fn()
        if options.show_time:
            print(f"{name}: {(time.perf_counter() - start) * 1000.0:.2f} ms", file=diag)
        return result

    try:
        if options.format not in FORMATS:
            raise _Refusal(f"unknown format {options.format!r}")
        if options.format != FORMAT_EXPR:
            _emitted(check_array_name, options.array_name)
        if options.simplify_level not in (0, 1):
            raise _Refusal(f"simplify level must be 0 or 1, got {options.simplify_level!r}")
        main_var = parse_identifier(options.main_var)
        if main_var is None:
            raise _Refusal(f"main variable {options.main_var!r} is not an identifier")
        text = _strip_statement_terminator(_read_input(options.input))
        tree = stage("parse", lambda: parse(text))
        # The file's rules, then each inline rule: a later rule for a symbol wins.
        rules = {} if options.rename_file is None else load_rename_file(options.rename_file)
        rules.update(parse_rename_entry(rule) for rule in options.inline_renames)
        renamed = stage("rename", lambda: apply_renames(tree, rules, options.greek_defaults))
        # The main variable is renamed by the same rules as the tree's symbols.
        main_var = resolve_renames({main_var}, rules, options.greek_defaults)[main_var]
        if options.format == FORMAT_EXPR:
            value = stage("normalize", lambda: normalize(renamed))
            if options.simplify_level:
                value = stage("simplify", lambda: simplify(value))
            output = stage("emit", lambda: emit_expr(value) + "\n")
            residue = ", ".join(sorted(s for s in value.numerator.symbols if not s.isascii()))
            if residue:
                print(f"warning: output contains non-ASCII symbols: {residue}", file=diag)
        else:
            collected = stage("collect", lambda: collect_main_var(renamed, main_var))
            if options.simplify_level:
                collected = stage(
                    "simplify",
                    lambda: MainVarPoly(
                        collected.main_var, tuple(simplify(c) for c in collected.coeffs)
                    ),
                )
            name = options.array_name
            if options.format == FORMAT_SCRIPT:
                output = stage("emit", lambda: _emitted(emit_coeff_script, collected, name))
            else:
                output = stage("emit", lambda: _emitted(emit_coeff_vector, collected, name) + "\n")
        stage("write", lambda: _write_output(options.output, output))
        return EXIT_OK
    except SourceError as err:
        code, head, failure = EXIT_SYNTAX, f"{err.kind} error", err
    except AlgebraError as err:
        code, head, failure = EXIT_NOT_POLYNOMIAL, "error", err
    except (RenameError, _Refusal) as err:
        print(f"error: {err}", file=diag)
        return EXIT_USAGE
    if failure.span is not None:
        # The 1-based line and column of the span's first character in `text`.
        offset = failure.span[0]
        line, column = text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
        head += f" at {line}:{column}"
    print(f"{head}: {failure}", file=diag)
    return code


def _write_output(destination: str | None, output: str) -> None:
    """Write to stdout or to `destination`, replacing a regular file whole.

    A new or regular file in a writable directory is written to a file beside
    it, synced and renamed over it, so a failed write leaves it as it was. The
    new file keeps the target's permission bits (0o666 less the umask if new),
    not its owner, ACLs or hard links. Anything else (a device, a pipe, a path
    ending in a separator, a file in an unwritable directory) is written in
    place by `open(destination, "w")`. As with `open`, symlinks are followed
    and an unwritable target is refused, as is every failed write.
    """
    try:
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
    except OSError as err:
        if destination is None and sys.stdout is sys.__stdout__:
            # Python flushes stdout again at exit: drop what the write left.
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        target = "to stdout" if destination is None else repr(destination)
        raise _Refusal(f"cannot write {target}: {err.strerror or err}") from None


class _ArgumentParser(argparse.ArgumentParser):
    # Bad options are exit code 4 here, not argparse's default 2 (which is
    # reserved for syntax errors in the input expression).
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_arg_parser() -> argparse.ArgumentParser:
    # Each dest is a CliOptions field, and an option not given sets nothing,
    # so the defaults are CliOptions' own.
    parser = _ArgumentParser(
        prog="polybridge",
        description=(
            "Translate a symbolic polynomial expression into a "
            "coefficient-assignment script (leading coefficient first), a "
            "coefficient vector, or an explicit-operator expression."
        ),
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument(
        "input",
        nargs="?",
        default="-",
        metavar="INPUT",
        help="input file, or '-' for stdin (default)",
    )
    parser.add_argument("-o", "--output", help="output file (default: stdout)")
    parser.add_argument("--var", dest="main_var", metavar="VAR", help="main variable (default: x)")
    parser.add_argument("--format", choices=list(FORMATS), help="output format (default: script)")
    parser.add_argument(
        "--name", dest="array_name", metavar="NAME", help="target array name (default: P)"
    )
    parser.add_argument(
        "--no-greek-defaults",
        dest="greek_defaults",
        action="store_false",
        help="do not apply the built-in Greek-to-ASCII rename table",
    )
    parser.add_argument("--rename-file", help="file of FROM=TO rename rules (one per line)")
    parser.add_argument(
        "--rename",
        dest="inline_renames",
        action="append",
        metavar="FROM=TO",
        help="extra rename rule; repeatable, later rules win",
    )
    parser.add_argument(
        "--simplify",
        dest="simplify_level",
        type=int,
        choices=[0, 1],
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

    options = CliOptions(**vars(ns))
    options.inline_renames = tuple(options.inline_renames)
    return run(options)


if __name__ == "__main__":
    raise SystemExit(main())
