import os

# Pin BLAS to one thread before numpy loads: keeps runs deterministic and
# honest about the single-core time budget used by the acceptance suite.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), peak bytes it allocated), the peak as tracemalloc
    counts it from the call's start."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
