"""`python -m geosketch`: the geosketch command line (see geosketch.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
