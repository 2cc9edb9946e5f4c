"""``python -m twistroots``: the command-line interface of ``twistroots.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
