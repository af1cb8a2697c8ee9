"""``python -m rankdual``: the command-line interface of ``rankdual.cli``."""

from .cli import main

main()
