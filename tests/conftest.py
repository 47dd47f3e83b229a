"""The test log names the numpy build and the OpenBLAS kernel that runs: the LQR and
TS-LA loop goldens and the short benchmark golden hold last bits that depend on it."""

import ctypes
import glob
import os

import numpy


def openblas_core() -> str:
    """The core name that numpy's bundled OpenBLAS runs, or "unknown"."""
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    for path in libs:
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def pytest_report_header(config):
    coretype = os.environ.get("OPENBLAS_CORETYPE")
    forced = f", OPENBLAS_CORETYPE={coretype}" if coretype else ""
    return f"numpy {numpy.__version__}{forced}, OpenBLAS core: {openblas_core()}"
