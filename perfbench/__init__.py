"""End-to-end benchmark of the BDS reproduction (see README.md)."""

#: Thread-pool variables the benchmark pins to 1 before numpy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
