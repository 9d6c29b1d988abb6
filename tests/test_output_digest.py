"""The CLI's output, byte for byte, on two fixed seeded corpora.

Every input of the main corpus runs through `cli.run` in-process in the
script, vector and expr formats at `--simplify 0` and `1`. Every input of the
option corpus runs in the three formats under each of `OPTION_SETS` (array
names, main variables, renames, no Greek defaults). The (exit code, stdout,
stderr) of an input's cases hash to one digest per input, which must equal
the one recorded in `fixtures/output_digest.json`. A change that alters output
on purpose runs this test first to list the inputs whose output changed,
checks each of them, then rewrites the file on the change with

    PYTHONPATH=src python tests/test_output_digest.py --write

and names the changed outputs in its description. The corpus is the det3x3
fixture, `genlib` random trees and main-variable polynomials (some carrying
exponents above 255, so that packed fields of 16 bits and more are used)
and hand-picked edge cases. The option corpus is the edge cases and random
trees over symbols that are the array name, Matlab keywords or Greek.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from random import Random

from polybridge.expr import IntegerLit, Power, Product, Quotient, SymbolRef

from genlib import fully_parenthesized, rand_expr_tree, rand_main_var_poly_expr, run_cli

FIXTURES = Path(__file__).resolve().parent / "fixtures"
DIGEST = FIXTURES / "output_digest.json"

EDGE_CASES = (
    "x^300/x^299*a^300",
    "a^70000*x",
    "a^256*x+b",
    "(a*b)^40/(a*b)^39",
    "x/x",
    "-x/(-2*a)",
    "a*x^300/x^299",
    "x^2/x",
    "(x+1)/x",
    "x-x+a",
    "x^100000000000",
    "x^3*a/(x*b)",
    "(x^3+a*x^2)/(b*x^2)",
    "(a*x^2+x^3)/(x^2+b*x^2)",
    "a^70000*x^2/(x*b^3)",
    "x*b^300/b^299",
    "c^4*t*x-c^4*u*x+c^4",
    "(t^2-1)/(t-1)*x+(t^3+t^2-t-1)/(t^2+2*t+1)",
    "(a^2-b^2)/(a-b)*x",
    "a/(t-u)+b/(t-u)+c/(t-u)+x",
    "x/(u-t)",
    "2*x/(4*a)",
    "x^4095*a^65536+x^4096",
    "(x+1)^5/7",
    "β*x^2+γ_b*x+1",
    "0",
    "x^y",
    "1/(x-x)",
    "2*x+",
)

FORMATS = ("script", "vector", "expr")

# CliOptions fields of the option corpus's cases, each run in every format.
OPTION_SETS = (
    {"array_name": "Q"},
    {"array_name": "end"},
    {"array_name": "9P"},
    {"greek_defaults": False},
    {"main_var": "P"},
    {"main_var": "end"},
    {"inline_renames": ("P=p0",)},
)


def corpus() -> list[str]:
    """The input texts, in a fixed order."""
    texts = [(FIXTURES / "det3x3.txt").read_text(encoding="utf-8"), *EDGE_CASES]
    rng = Random(20261019)
    for i in range(240):
        tree = rand_expr_tree(rng, 3, ("a", "b", "t", "x"))
        if i % 4 == 0:
            # Exponents of 256 and above take the wider packed fields.
            name = rng.choice(("a", "b", "x"))
            top = rng.choice((255, 256, 300, 1000, 4096))
            high = Power(SymbolRef(name), IntegerLit(top))
            tree = Product((tree, Quotient(high, Power(SymbolRef(name), IntegerLit(top - 1)))))
            if i % 8 == 0:
                tree = Product((tree, high))
        texts.append(fully_parenthesized(tree))
    for _ in range(230):
        texts.append(fully_parenthesized(rand_main_var_poly_expr(rng)[0]))
    return texts


def option_corpus() -> list[str]:
    """The option corpus's input texts, in a fixed order."""
    rng = Random(20261020)
    names = ("a", "b", "P", "Q", "end", "for", "t", "x", "β", "γ_b")
    trees = [fully_parenthesized(rand_expr_tree(rng, 3, names)) for _ in range(40)]
    return [*EDGE_CASES, *trees]


def outputs(text: str) -> list[tuple[int, str, str]]:
    """The cases of `text` in each format and simplify level."""
    return [run_cli(text, format=f, simplify_level=level) for f in FORMATS for level in (0, 1)]


def option_outputs(text: str) -> list[tuple[int, str, str]]:
    """The cases of `text` in each format under each of `OPTION_SETS`."""
    return [run_cli(text, format=fmt, **fields) for fields in OPTION_SETS for fmt in FORMATS]


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


CORPORA = {"default": (corpus, outputs), "options": (option_corpus, option_outputs)}


def measure() -> dict:
    record = {}
    for name, (texts_of, cases_of) in CORPORA.items():
        texts = texts_of()
        results = [cases_of(text) for text in texts]
        record[name] = {
            "inputs": len(texts),
            "cases": sum(map(len, results)),
            "corpus": digest(texts),
            "outputs": [digest(r) for r in results],
        }
    return record


def check_recorded(name: str) -> None:
    texts_of, cases_of = CORPORA[name]
    want = json.loads(DIGEST.read_text(encoding="utf-8"))[name]
    texts = texts_of()
    assert (len(texts), digest(texts)) == (want["inputs"], want["corpus"]), (
        "the corpus changed; regenerate the digest on the commit before the change"
    )
    assert want["cases"] >= {"default": 3000, "options": 1000}[name]
    changed = [
        i for i, (text, recorded) in enumerate(zip(texts, want["outputs"]))
        if digest(cases_of(text)) != recorded
    ]
    if changed:
        first = texts[changed[0]]
        raise AssertionError(
            f"output of {len(changed)} inputs changed, at indices {changed[:20]}; the first is"
            f" {first[:200]!r} -> {cases_of(first)}"
        )


def test_output_matches_recorded_digest():
    check_recorded("default")


def test_option_output_matches_recorded_digest():
    check_recorded("options")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_output_digest.py --write")
    DIGEST.write_text(json.dumps(measure(), indent=0) + "\n", encoding="utf-8")
