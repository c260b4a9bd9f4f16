"""Peak memory of one call, as tracemalloc sees it (numpy reports its array buffers to it)."""

import tracemalloc

MIB = 2**20


def traced_peak(fn) -> int:
    """Bytes traced at the peak of fn(), counted from zero at its start."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
