"""Symbol renaming: the user's rules, else the default Greek-to-ASCII names.

User rules (from a rename file or inline) map whole identifiers, and a later
rule for a symbol replaces an earlier one. The defaults map every bare Greek
letter to its English name (β -> beta, Ω -> Omega) and rename longer
identifiers by replacing only the Greek head, inserting an underscore when
the tail does not already start with one (γ_b -> gamma_b, Ωb -> Omega_b).
"""

from __future__ import annotations

from .expr import Expr, SymbolRef, substitute, symbols_of
from .greek import LETTER_TO_NAME
from .parser import is_ascii_identifier, parse_identifier


class RenameCollision(Exception):
    """Two distinct symbols would merge into one target identifier."""

    def __init__(self, target: str, sources: tuple[str, ...]):
        super().__init__(
            f"rename collision: {', '.join(repr(s) for s in sources)} "
            f"would all become '{target}'"
        )
        self.target = target
        self.sources = sources


class RenameError(ValueError):
    """A rename file or inline rule is malformed."""


def _greek_name(symbol: str) -> str | None:
    """The default name of a symbol with a Greek head, or None."""
    name = LETTER_TO_NAME.get(symbol[:1])
    tail = symbol[1:]
    if name is None or not tail:
        return name
    return name + ("" if tail.startswith("_") else "_") + tail


def resolve_renames(symbols: set[str], rules: dict[str, str], greek: bool) -> dict[str, str]:
    """Effective symbol-to-symbol map: a symbol's rule in `rules`, else its
    Greek default name if `greek` is set, else the symbol itself.

    Raises RenameCollision if two distinct symbols end up with the same
    target (identity mappings count: renaming β to beta while a symbol
    beta already exists would silently merge two quantities).
    """
    mapping: dict[str, str] = {}
    for symbol in sorted(symbols):
        target = rules.get(symbol)
        if target is None and greek:
            target = _greek_name(symbol)
        mapping[symbol] = target or symbol

    by_target: dict[str, list[str]] = {}
    for source, target in mapping.items():
        by_target.setdefault(target, []).append(source)
    for target, sources in sorted(by_target.items()):
        if len(sources) > 1:
            raise RenameCollision(target, tuple(sorted(sources)))
    return mapping


def apply_renames(e: Expr, rules: dict[str, str], greek: bool) -> Expr:
    """Rename every symbol as `resolve_renames` maps it, in one simultaneous pass."""
    mapping = resolve_renames(symbols_of(e), rules, greek)
    targets = {s: SymbolRef(t) for s, t in mapping.items() if s != t}
    return substitute(e, targets)


def parse_rename_entry(text: str) -> tuple[str, str]:
    """Parse one `from=to` rule; `to` must be a pure-ASCII identifier."""
    left, sep, right = text.partition("=")
    if not sep:
        raise RenameError(f"rename rule {text!r} is missing '='")
    source = parse_identifier(left.strip())
    if source is None:
        raise RenameError(f"rename source {left.strip()!r} is not an identifier")
    target = right.strip()
    if not is_ascii_identifier(target):
        raise RenameError(
            f"rename target {target!r} is not an ASCII identifier"
        )
    return source, target


def parse_rename_file(text: str) -> dict[str, str]:
    """Parse a rename file: one `from=to` per line, `#` comments allowed."""
    rules: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            source, target = parse_rename_entry(line)
        except RenameError as err:
            raise RenameError(f"line {lineno}: {err}") from None
        if source in rules:
            raise RenameError(f"line {lineno}: duplicate rename for {source!r}")
        rules[source] = target
    return rules


def load_rename_file(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_rename_file(fh.read())
    except UnicodeDecodeError:
        raise RenameError(f"rename file {path!r} is not valid UTF-8") from None
    except OSError as err:
        raise RenameError(f"cannot read {path!r}: {err.strerror or err}") from None
