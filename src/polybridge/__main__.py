"""Command-line entry point: ``python -m polybridge [options] [INPUT]``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
