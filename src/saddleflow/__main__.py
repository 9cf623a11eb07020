"""``python -m saddleflow``: the ``saddleflow`` command line (``cli.main``), exiting with its code."""

import sys

from .cli import main

__all__ = ["main"]

if __name__ == "__main__":
    sys.exit(main())
