"""``python -m cliffdyn``: the same command line as the ``cliffdyn`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
