"""The ``mortforecast`` console script: the CLI with BLAS on one thread.

Every matrix the package factors is small, at most about 111 ages by 85
years, so BLAS threads only add start-up and hand-off cost. BLAS reads
its thread count when numpy first loads it, so the count is set here,
before ``mortforecast`` is imported: the package's ``__init__`` loads
numpy. This module lies outside the package for that reason. A value the
user set wins, and ``python -m mortforecast.cli`` and library imports
keep BLAS's own default.
"""

import os


def main():
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    from mortforecast.cli import main as cli_main

    return cli_main()
