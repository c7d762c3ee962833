"""Solver-race benchmark for the stiefel_cayley package (see README.md)."""

#: Thread-count variables of the BLAS builds numpy may load; the benchmark
#: sets each to 1 before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
