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


def graph_arrays(root):
    """(held, captured) for the autodiff graph that ends at tensor `root`,
    each a dict of id -> ndarray.

    `held` are the arrays the graph's objects (tensors and nodes) keep in
    their slots; `captured` are those its backward closures capture, nested
    closures included. A tensor a closure captures counts as a graph object,
    so its value is held, not captured.
    """
    import numpy as np

    held, captured, seen = {}, {}, set()
    todo = [(root, False)]
    while todo:
        obj, in_closure = todo.pop()
        if (id(obj), in_closure) in seen:
            continue
        seen.add((id(obj), in_closure))
        if isinstance(obj, np.ndarray):
            (captured if in_closure else held)[id(obj)] = obj
        elif isinstance(obj, (tuple, list)):
            todo.extend((v, in_closure) for v in obj)
        elif hasattr(obj, "__code__"):
            todo.extend((cell.cell_contents, True) for cell in obj.__closure__ or ())
        elif type(obj).__module__ == "diarnet.autodiff":
            todo.extend((getattr(obj, slot, None), False) for slot in type(obj).__slots__)
    return held, captured
