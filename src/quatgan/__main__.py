"""``python -m quatgan``: the same command line as the ``quatgan`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
