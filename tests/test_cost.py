"""Cost claims of the device as tracemalloc peaks at two cutoffs.

Peaks are measured warm: the call runs once untraced, so the per-process
caches (compiled patches, sector tables, checked spaces) are already built,
and the traced call shows what each further call allocates.  Unlike wall
time, a peak repeats exactly from run to run.
"""

import tracemalloc

import pytest

from qoverlap import (
    PHYSICAL,
    MeasurementSettings,
    ProductState,
    coherent,
    ginibre_mixed,
    hs_distance,
    overlap,
    sweep_visibility,
    thermal,
)
from qoverlap.protocol import _compile
from conftest import embed_mode_state

PIPELINES = pytest.mark.parametrize("pipeline, copies", [(overlap, 1.2), (hs_distance, 3.2)], ids=["overlap", "hs_distance"])


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


def assert_factor_copies(call_at, copies):
    """The warm peak of ``call_at(d)()`` holds at most ``copies`` factors at d = 256 and 512."""
    peaks = {}
    for d in (256, 512):
        peaks[d] = warm_peak(call_at(d))
        assert peaks[d] <= copies * 16 * d**2, d
    # O(d^2): doubling the cutoff multiplies the peak by about 4
    assert peaks[512] <= 4.4 * peaks[256]


@PIPELINES
def test_ideal_pipelines_on_products_hold_a_few_factor_copies(pipeline, copies):
    # A product is never expanded: the ideal device reads Tr(a b) from the
    # factors, and hs_distance's reduced post-states are Tr(a) a.  One copy
    # is one d x d complex factor; a d^2 x d^2 joint would be d^2 copies.
    def call_at(d):
        a, b = thermal(2.0, d), coherent(3.0, d)
        return lambda: pipeline(a, b)

    assert_factor_copies(call_at, copies)


@PIPELINES
def test_safe_products_at_the_default_time_cost_what_the_ideal_device_costs(pipeline, copies):
    # Levels below d/2 keep every total photon number below d, where the
    # physical sandwich is the exact swap: no patch is compiled or read.
    physical = MeasurementSettings(mode=PHYSICAL)

    def call_at(d):
        a = embed_mode_state(thermal(2.0, d // 2), d)
        b = embed_mode_state(coherent(3.0, d // 2), d)
        return lambda: pipeline(a, b, physical)

    misses = _compile.cache_info().misses
    assert_factor_copies(call_at, copies)
    assert _compile.cache_info().misses == misses


def test_reduced_post_state_of_an_unsafe_product_holds_order_d_cubed():
    # Full-rank Ginibre factors reach every incomplete sector, so the
    # correction streams over all of them, one sector of rows at a time,
    # against a d^3 table of the branch's rows that each read builds.
    peaks = {}
    for d in (16, 32):
        factor = ginibre_mixed(d, d, 1)
        rho = ProductState(factor, factor)
        peaks[d] = warm_peak(lambda: sweep_visibility(rho, mode=PHYSICAL).reduced_post_state)
        assert peaks[d] <= 6 * 16 * d**3, d
    # O(d^3) gives about 8 per doubling; a d^4 array would give about 16
    assert peaks[32] <= 9 * peaks[16]
