"""Cost claims of the device as tracemalloc peaks at two cutoffs.

Peaks are measured warm: the call runs once untraced, so the per-process
caches (compiled patches, row tables, checked spaces) are already built,
and the traced call shows what each further call allocates.  Unlike wall
time, a peak repeats exactly from run to run.
"""

import tracemalloc

import pytest

from qoverlap import PHYSICAL, ProductState, coherent, ginibre_mixed, hs_distance, overlap, sweep_visibility, thermal


def warm_peak(call) -> int:
    """The tracemalloc peak, in bytes, of the second of two calls."""
    call()
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("pipeline, copies", [(overlap, 1.2), (hs_distance, 3.2)], ids=["overlap", "hs_distance"])
def test_ideal_pipelines_on_products_hold_a_few_factor_copies(pipeline, copies):
    # A product is never expanded: the ideal device reads Tr(a b) from the
    # factors, and hs_distance's reduced post-states are Tr(a) a.  One copy
    # is one d x d complex factor; a d^2 x d^2 joint would be d^2 copies.
    peaks = {}
    for d in (256, 512):
        a, b = thermal(2.0, d), coherent(3.0, d)
        peaks[d] = warm_peak(lambda: pipeline(a, b))
        assert peaks[d] <= copies * 16 * d**2, d
    # O(d^2): doubling the cutoff multiplies the peak by about 4
    assert peaks[512] <= 4.4 * peaks[256]


def test_reduced_post_state_of_an_unsafe_product_holds_order_d_cubed():
    # Full-rank Ginibre factors reach every incomplete sector, so the
    # correction streams over all of them, one sector of rows at a time.
    peaks = {}
    for d in (16, 32):
        factor = ginibre_mixed(d, d, 1)
        rho = ProductState(factor, factor)
        peaks[d] = warm_peak(lambda: sweep_visibility(rho, mode=PHYSICAL).reduced_post_state)
        assert peaks[d] <= 6 * 16 * d**3, d
    # O(d^3) gives about 8 per doubling; a d^4 array would give about 16
    assert peaks[32] <= 9 * peaks[16]
