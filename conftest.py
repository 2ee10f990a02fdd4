"""Run BLAS and OpenMP on one thread, as the benchmark and CI do: on a small
shared host a multi-threaded BLAS turns the tests' small products into
thread handoffs.  A variable already set in the environment wins.  This
file sits at the root so that it serves tests/ and perfbench/ alike.

The variables only count if they are set before numpy loads.  pytest
imports the class of every filterwarnings entry in pyproject.toml before it
loads this file, so those entries name no numpy or scipy class: a bare
"error" there turns every warning into an error."""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

