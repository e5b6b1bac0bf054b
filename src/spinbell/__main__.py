"""`python -m spinbell`: the command line interface of spinbell.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
