import tracemalloc

import pytest


@pytest.fixture
def peak_traced_bytes():
    """``peak(fn, *args)``: the peak bytes traced by tracemalloc while
    ``fn(*args)`` runs. numpy reports its buffers to tracemalloc."""

    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
