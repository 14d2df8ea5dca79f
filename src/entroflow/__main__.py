"""``python -m entroflow``: the ``entroflow`` command line."""

from .cli import main

main()
