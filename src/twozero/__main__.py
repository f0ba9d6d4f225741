"""Entry point of ``python -m twozero`` and of the installed ``twozero`` script."""

import os
import sys


def run() -> int:
    # Every numpy call in twozero is integer work that never reaches BLAS, so
    # the OpenBLAS worker threads that ``import numpy`` starts would only
    # spin.  This runs before anything imports numpy; an explicit setting
    # still wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main

    return main()


if __name__ == "__main__":
    sys.exit(run())
