"""Importing rasterquery keeps large freed arrays on the heap for reuse."""

import platform
import resource

import numpy as np
import pytest

import rasterquery  # noqa: F401  (importing it sets the allocator)

pytestmark = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="the allocator setting applies to glibc only")


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def test_large_arrays_reuse_freed_pages():
    faults = []
    for _ in range(4):
        before = _minor_faults()
        a = np.ones(12 << 17)  # 12 MiB, above the first dynamic thresholds
        a.sum()
        del a
        faults.append(_minor_faults() - before)
    # The first array may grow the heap; the next ones reuse its pages. With
    # glibc's dynamic threshold the second is mapped and faulted in anew.
    assert max(faults[1:]) < 64, faults
