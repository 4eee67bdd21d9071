"""Test-session setup, loaded before any test module imports numpy.

BLAS runs on one thread, as in scripts/rerecord.py and perfbench/run.py:
some BLAS sums round differently on two threads, and the cached runs
under acceptance_runs/ were recorded on one.
"""
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
