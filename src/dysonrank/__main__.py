"""Allow running the command-line interface as ``python -m dysonrank``."""

import sys

from .cli import run

if __name__ == "__main__":
    sys.exit(run())
