import math
import tracemalloc

import pytest

from shiftbound import nn


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


@pytest.fixture
def float32_cpus(monkeypatch):
    """``set_cpus(count)``: ``nn`` sees ``count`` available CPUs, at most 8,
    and picks the float32 pass's workers by its rules. With
    ``rules=False``, the cap and the size rules of ``nn._workers32`` are
    lifted too, so min(count, blocks) workers run."""

    def set_cpus(count, rules=True):
        assert 1 <= count <= 8
        monkeypatch.setattr(nn, "_available_cpus", lambda: count)
        if not rules:
            monkeypatch.setattr(nn, "MAX_WORKERS32", count)
            monkeypatch.setattr(nn, "MIN_PRODUCT32", 0)
            monkeypatch.setattr(nn, "BLAS_THREADED_PRODUCT", math.inf)

    return set_cpus
