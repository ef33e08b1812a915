"""``python -m primecycles``: the ``primecycles`` command line."""

import sys

from primecycles.cli import main

if __name__ == "__main__":
    sys.exit(main())
