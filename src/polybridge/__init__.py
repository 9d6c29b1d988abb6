"""polybridge: turn symbolic polynomial expressions into coefficient scripts.

The pipeline is parse -> rename -> collect -> simplify -> emit: a textual
expression is parsed into a tree, Greek identifiers are renamed to ASCII,
the expression is collected as a polynomial in one main variable with
exact rational-function coefficients, and the result is emitted as an
explicit-operator coefficient script, coefficient vector, or plain
expression that a numerical environment can consume directly.

The package exports the documented operations and the errors a caller
catches; everything else lives in its submodule (`algebra`, `emitter`,
`expr`, `parser`, `rename`), and the command line in `cli`.
"""

from .algebra import (
    AlgebraError,
    collect_main_var,
    normalize,
    simplify,
)
from .emitter import emit_coeff_script, emit_coeff_vector, emit_expr
from .expr import substitute
from .parser import SourceError, parse
from .rename import RenameCollision, RenameError, apply_renames

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "RenameCollision",
    "RenameError",
    "SourceError",
    "apply_renames",
    "collect_main_var",
    "emit_coeff_script",
    "emit_coeff_vector",
    "emit_expr",
    "normalize",
    "parse",
    "simplify",
    "substitute",
]
