"""`python -m hsd`: the same entry point as the `hsd` console script."""

import sys

from hsd.cli import main

if __name__ == "__main__":
    sys.exit(main())
