"""`python -m everettsim`: the same command line as the `everettsim` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
