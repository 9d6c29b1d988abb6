import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

import pytest

import polybridge
from polybridge.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = [
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
]


def test_public_names():
    assert sorted(polybridge.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(polybridge, name) is not None


def test_readme_library_snippet_prints_its_comments():
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(snippet, {})
    # Each comment, in order, is one line the snippet prints.
    comments = re.findall(r"#\s*(.*)", snippet)
    assert out.getvalue().splitlines() == comments


def readme_shell_examples() -> list[tuple[str, list[str], str]]:
    """Each `$ echo '…' | polybridge ARGS` line of the README's `sh` blocks,
    as (stdin, ARGS, the output lines shown below it up to a blank line)."""
    examples = []
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for command, shown in re.findall(r"^\$ (.*)\n((?:.+\n)*)", block, re.M):
            stdin, args = re.fullmatch(r"echo '([^']*)' \| polybridge(.*)", command).groups()
            examples.append((stdin + "\n", shlex.split(args), shown))
    return examples


SHELL_EXAMPLES = readme_shell_examples()


@pytest.mark.parametrize(
    "stdin, args, shown", SHELL_EXAMPLES, ids=[f"example{i}" for i in range(len(SHELL_EXAMPLES))]
)
def test_readme_shell_example_prints_what_it_shows(stdin, args, shown, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert main(args) == 0
    assert capsys.readouterr() == (shown, "")


def test_readme_lists_the_public_names():
    # The paragraph from "`import polybridge` exports N names." up to
    # "Everything else" names each export once, in backticks.
    text = " ".join(README.read_text(encoding="utf-8").split())
    count, listed = re.search(
        r"`import polybridge` exports (\d+) names\.(.*?)Everything else", text
    ).groups()
    assert int(count) == len(polybridge.__all__)
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(polybridge.__all__)
