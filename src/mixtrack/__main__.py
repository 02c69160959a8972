"""``python -m mixtrack run|sweep|verify``: the command-line interface."""

import sys

from .harness import main

if __name__ == "__main__":
    sys.exit(main())
