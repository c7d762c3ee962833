"""The numeric environment in every test report: numpy's version, the BLAS
it links and, for numpy's bundled OpenBLAS, its thread count, which
decides the summation order of large products."""

import ctypes

import numpy as np

from stiefel_cayley import linalg


def _environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    get = linalg._openblas_function("get_num_threads", ctypes.c_int)
    threads = "unknown (not numpy's bundled OpenBLAS)" if get is None else get()
    return (f"numpy {np.__version__}, BLAS {blas['name']} {blas.get('version', '')}, "
            f"OpenBLAS threads: {threads}")


def pytest_report_header(config):
    return _environment()


def pytest_terminal_summary(terminalreporter, config):
    # -q prints no header, so a quiet run records the line at its end
    if config.option.verbose < 0:
        terminalreporter.write_line(_environment())
