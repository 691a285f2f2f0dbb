"""Make the src layout importable without an install, and pin the BLAS
libraries to one thread before anything imports numpy.

The oracle's products and the engine's small LAPACK calls gain nothing
from a second thread at these sizes, and on a two-core host with the
other core busy two BLAS threads wait on each other: the oracle's tests
ran about ten times slower that way.  A value already set in the
environment is kept."""
import os
import sys
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
