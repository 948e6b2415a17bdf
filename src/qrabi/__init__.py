"""Numerical toolkit for the quantum Rabi model with and without the
diamagnetic A^2 term: energy spectra, ground-state Wigner distributions,
and entanglement-entropy sweeps in a truncated qubit (x) Fock basis.

The public names are the ``__all__`` lists of the four library modules,
``entanglement``, ``model``, ``spectra`` and ``wigner``; the writers in
``output``, ``plotting`` and ``cli`` are not imported with the package.

Importing qrabi loads numpy's OpenBLAS with one thread, because every
matrix it solves is a parity block of only n_max rows.  This holds only
when numpy is not yet imported and none of ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` and ``OMP_NUM_THREADS`` is set; set one of them, or
import numpy first, to keep OpenBLAS's own thread count.  ``os.environ``
is left as it was found."""


def _load_numpy_single_threaded() -> None:
    """Import numpy with ``OPENBLAS_NUM_THREADS=1`` unless the user chose a
    thread count or numpy is already loaded.  OpenBLAS reads the variable
    once, when it loads, so it is removed again straight after the import
    and child processes and later imports see the user's environment."""
    import os
    import sys

    chosen = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    if "numpy" in sys.modules or any(name in os.environ for name in chosen):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # loads OpenBLAS, which reads the variable now
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


_load_numpy_single_threaded()
del _load_numpy_single_threaded

from .entanglement import *
from .model import *
from .spectra import *
from .wigner import *

__version__ = "0.1.0"
