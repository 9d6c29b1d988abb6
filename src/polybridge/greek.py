"""Greek alphabet tables shared by the lexer and the rename defaults."""

from __future__ import annotations

# The 24 canonical letters of each case; final sigma and variant forms are
# deliberately absent so every lexable Greek letter has an ASCII name.
LOWER_LETTERS = "αβγδεζηθικλμνξοπρστυφχψω"
UPPER_LETTERS = "ΑΒΓΔΕΖΗΘΙΚΛΜΝΞΟΠΡΣΤΥΦΧΨΩ"

NAMES = (
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta",
    "eta", "theta", "iota", "kappa", "lambda", "mu",
    "nu", "xi", "omicron", "pi", "rho", "sigma",
    "tau", "upsilon", "phi", "chi", "psi", "omega",
)

LOWER_TO_NAME = dict(zip(LOWER_LETTERS, NAMES))
UPPER_TO_NAME = {ch: name.capitalize() for ch, name in zip(UPPER_LETTERS, NAMES)}
LETTER_TO_NAME = LOWER_TO_NAME | UPPER_TO_NAME

# \[Beta] names the lowercase letter, \[CapitalBeta] the capital one.
ESCAPE_TO_LETTER = {name.capitalize(): ch for ch, name in zip(LOWER_LETTERS, NAMES)}
ESCAPE_TO_LETTER.update(
    {"Capital" + name.capitalize(): ch for ch, name in zip(UPPER_LETTERS, NAMES)}
)
