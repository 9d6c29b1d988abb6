"""Identifier replacement maps, including the default Greek-to-ASCII table.

The defaults map every bare Greek letter to its English name (β -> beta,
Ω -> Omega) and rename longer identifiers by replacing only the Greek
head, inserting an underscore when the tail does not already start with
one (γ_b -> gamma_b, Ωb -> Omega_b). User maps (file or inline) match
whole identifiers only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True)
class RenameSpec:
    """An ordered batch of identifier renames from one source."""

    entries: tuple[tuple[str, str], ...]
    source: str  # "defaults" | "file" | "inline"

    @cached_property
    def _exact(self) -> dict[str, str]:
        """The entries as a whole-identifier lookup, built on first use."""
        return dict(self.entries)


_DEFAULT_GREEK = RenameSpec(tuple(sorted(LETTER_TO_NAME.items())), "defaults")


def default_greek_map() -> RenameSpec:
    return _DEFAULT_GREEK


def _target_for(spec: RenameSpec, symbol: str) -> str | None:
    hit = spec._exact.get(symbol)
    if hit is not None:
        return hit
    if spec.source == "defaults" and len(symbol) > 1:
        head, tail = symbol[0], symbol[1:]
        name = LETTER_TO_NAME.get(head)
        if name is not None:
            sep = "" if tail.startswith("_") else "_"
            return name + sep + tail
    return None


def resolve_renames(symbols: set[str], specs: tuple[RenameSpec, ...]) -> dict[str, str]:
    """Effective symbol-to-symbol map; later specs override earlier ones.

    Raises RenameCollision if two distinct symbols end up with the same
    target (identity mappings count: renaming β to beta while a symbol
    beta already exists would silently merge two quantities).
    """
    mapping: dict[str, str] = {}
    for symbol in sorted(symbols):
        target = symbol
        for spec in specs:
            hit = _target_for(spec, symbol)
            if hit is not None:
                target = hit
        mapping[symbol] = target

    by_target: dict[str, list[str]] = {}
    for source, target in mapping.items():
        by_target.setdefault(target, []).append(source)
    for target, sources in sorted(by_target.items()):
        if len(sources) > 1:
            raise RenameCollision(target, tuple(sorted(sources)))
    return mapping


def apply_renames(e: Expr, *specs: RenameSpec) -> Expr:
    """Rename every matching symbol in one simultaneous pass."""
    mapping = resolve_renames(symbols_of(e), specs)
    rules = {s: SymbolRef(t) for s, t in mapping.items() if s != t}
    return substitute(e, rules)


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


def inline_rename_spec(rule: str) -> RenameSpec:
    return RenameSpec((parse_rename_entry(rule),), "inline")


def parse_rename_file(text: str) -> RenameSpec:
    """Parse a rename file: one `from=to` per line, `#` comments allowed."""
    entries: list[tuple[str, str]] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            source, target = parse_rename_entry(line)
        except RenameError as err:
            raise RenameError(f"line {lineno}: {err}") from None
        if source in seen:
            raise RenameError(f"line {lineno}: duplicate rename for {source!r}")
        seen.add(source)
        entries.append((source, target))
    return RenameSpec(tuple(entries), "file")


def load_rename_file(path: str) -> RenameSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_rename_file(fh.read())
    except UnicodeDecodeError:
        raise RenameError(f"rename file {path!r} is not valid UTF-8") from None
    except OSError as err:
        raise RenameError(f"cannot read {path!r}: {err.strerror or err}") from None
