"""``python -m trident``: the same command line as the ``trident`` script."""

from .cli import main

main()
