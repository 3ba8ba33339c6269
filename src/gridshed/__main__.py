"""``python -m gridshed``: the ``gridshed`` command."""

import sys

from .cli_driver import main

if __name__ == "__main__":
    sys.exit(main())
