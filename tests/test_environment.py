"""The test session runs NumPy on the BLAS thread count it asks for."""

from __future__ import annotations

import ctypes
import os
from pathlib import Path

import numpy as np
import pytest


def _openblas_threads() -> int | None:
    """OpenBLAS's thread count as NumPy's bundled library reports it."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob(
            "*openblas*"):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def test_openblas_uses_the_thread_count_conftest_sets():
    threads = _openblas_threads()
    if threads is None:
        pytest.skip("NumPy does not bundle OpenBLAS here")
    assert threads == int(os.environ["OPENBLAS_NUM_THREADS"])
