"""``python -m shiftbound``: the command-line interface of ``shiftbound.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
