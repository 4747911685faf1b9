"""High-level measurement pipelines with independent direct-trace oracles.

Each pipeline drives the interferometric device to produce ``device_value``
and computes ``oracle_value`` by direct matrix algebra on the inputs; reports
carry both, so exact-mode runs double as end-to-end consistency checks.

With ``settings.shots`` set, per-phase probabilities are sampled and the
device value comes from the counting-statistics estimator; the reported
``std_error`` is the propagated binomial error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import gates, protocol
from .linalg import (
    DensityMatrix,
    ProductState,
    as_single_subsystem,
    partial_transpose,
)
from .protocol import IDEAL, DeviceInput, DeviceMode, ProtocolRun

# Exact-mode witness verdict threshold; shot-noise runs use 3 standard errors.
WITNESS_EXACT_THRESHOLD = 1e-9


@dataclass(frozen=True)
class MeasurementSettings:
    """How the device is driven: realization, phase grid, statistics."""

    mode: DeviceMode = IDEAL
    phase_count: int = 8
    shots: int | None = None  # None runs with exact probabilities
    seed: int = 0


EXACT = MeasurementSettings()


@dataclass(frozen=True)
class ObservableReport:
    """Device value next to its direct-trace oracle."""

    name: str
    device_value: float
    oracle_value: float
    abs_error: float
    shots_used: int | None
    std_error: float | None = None
    verdict: str | None = None


@dataclass(frozen=True)
class MeasurementDetail:
    """Raw sweep behind a report, for record keeping."""

    run: ProtocolRun
    counts: np.ndarray | None
    shots_per_phase: int | None


def _report(name, device, oracle, settings, std_error=None, verdict=None) -> ObservableReport:
    return ObservableReport(
        name=name,
        device_value=float(device),
        oracle_value=float(oracle),
        abs_error=abs(float(device) - float(oracle)),
        shots_used=settings.shots,
        std_error=std_error,
        verdict=verdict,
    )


def _measure_visibility(rho_joint: DeviceInput, settings: MeasurementSettings):
    """Run one sweep; returns (value, std_error, detail)."""
    run = protocol.sweep_visibility(rho_joint, settings.phase_count, settings.mode)
    if settings.shots is None:
        return run.visibility, None, MeasurementDetail(run, None, None)
    counts = protocol.sample_shots(run, settings.shots, settings.seed)
    v_hat, se = protocol.estimate_visibility(counts, run.phases)
    return v_hat, se, MeasurementDetail(run, counts, settings.shots)


def _maybe_detail(report, detail, return_detail):
    return (report, detail) if return_detail else report


# ---------------------------------------------------------------------------
# direct-trace oracles

def overlap_direct(rho_a: DensityMatrix, rho_b: DensityMatrix) -> float:
    """Tr(rho_a rho_b)."""
    return float(np.trace(rho_a.mat @ rho_b.mat).real)


def purity_direct(rho: DensityMatrix) -> float:
    """Tr(rho^2)."""
    return overlap_direct(rho, rho)


def hs_distance_direct(rho_a: DensityMatrix, rho_b: DensityMatrix) -> float:
    """Squared Hilbert-Schmidt distance Tr[(rho_a - rho_b)^2] / 2."""
    diff = rho_a.mat - rho_b.mat
    return float(0.5 * np.trace(diff @ diff).real)


def flip_expectation(rho_joint: DensityMatrix) -> float:
    """Tr(rho S) with S the flip operator on the two equal subsystems."""
    d = _equal_local_dim(rho_joint)
    return float(np.trace(rho_joint.mat @ gates.flip_operator(d)).real)


def max_entangled_vector(d: int) -> np.ndarray:
    """Unnormalized maximally entangled vector sum_j |j>|j> (computational basis)."""
    v = np.zeros(d * d, dtype=complex)
    v[np.arange(d) * d + np.arange(d)] = 1.0
    return v


def witness_oracle(rho_joint: DensityMatrix) -> float:
    """<L| rho^T2 |L> with |L> the unnormalized maximally entangled vector.

    Computed through the partial transpose of the second subsystem; equals
    the flip expectation, which is what the calibrated device measures.
    """
    d = _equal_local_dim(rho_joint)
    pt = partial_transpose(rho_joint, 1)
    lam = max_entangled_vector(d)
    return float((lam.conj() @ pt @ lam).real)


def _equal_local_dim(rho_joint: DensityMatrix) -> int:
    dims = rho_joint.space.dims
    if len(dims) != 2 or dims[0] != dims[1]:
        raise ValueError(f"expected a bipartite state with equal local dimensions, got {dims}")
    return dims[0]


# ---------------------------------------------------------------------------
# pipelines

def overlap(
    rho_a: DensityMatrix,
    rho_b: DensityMatrix,
    settings: MeasurementSettings = EXACT,
    *,
    return_detail: bool = False,
):
    """Overlap Tr(rho_a rho_b), measured as the visibility of the device fringe."""
    if rho_a.space.dim != rho_b.space.dim:
        raise ValueError("overlap requires states of equal dimension")
    pair = ProductState(as_single_subsystem(rho_a), as_single_subsystem(rho_b))
    value, se, detail = _measure_visibility(pair, settings)
    report = _report("overlap", value, overlap_direct(rho_a, rho_b), settings, se)
    return _maybe_detail(report, detail, return_detail)


def fidelity_with_pure(
    rho: DensityMatrix,
    pure_psi: np.ndarray,
    settings: MeasurementSettings = EXACT,
    *,
    return_detail: bool = False,
):
    """Fidelity <psi|rho|psi> of a state against a normalized pure state."""
    psi = np.asarray(pure_psi, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
        raise ValueError("pure state must be normalized to within 1e-8")
    if psi.size != rho.space.dim:
        raise ValueError("pure state dimension does not match the density matrix")
    single = as_single_subsystem(rho)
    rho_b = DensityMatrix(single.space, np.outer(psi, psi.conj()))
    value, se, detail = _measure_visibility(ProductState(single, rho_b), settings)
    oracle = float((psi.conj() @ rho.mat @ psi).real)
    report = _report("fidelity", value, oracle, settings, se)
    return _maybe_detail(report, detail, return_detail)


def purity(
    rho: DensityMatrix,
    settings: MeasurementSettings = EXACT,
    *,
    return_detail: bool = False,
):
    """Purity Tr(rho^2): overlap of the state with an independent copy.

    The two ensemble copies enter the device as the two 'modes'; any internal
    tensor structure of ``rho`` is irrelevant to the overlap and is flattened
    away.
    """
    single = as_single_subsystem(rho)
    value, se, detail = _measure_visibility(ProductState(single, single), settings)
    report = _report("purity", value, purity_direct(rho), settings, se)
    return _maybe_detail(report, detail, return_detail)


def linear_entropy(
    rho: DensityMatrix,
    settings: MeasurementSettings = EXACT,
    *,
    return_detail: bool = False,
):
    """Linear entropy 1 - Tr(rho^2)."""
    base = purity(rho, settings, return_detail=True)
    p_report, detail = base
    report = _report(
        "linear_entropy",
        1.0 - p_report.device_value,
        1.0 - p_report.oracle_value,
        settings,
        p_report.std_error,
    )
    return _maybe_detail(report, detail, return_detail)


def hs_distance(
    rho_a: DensityMatrix,
    rho_b: DensityMatrix,
    settings: MeasurementSettings = EXACT,
    *,
    return_detail: bool = False,
):
    """Squared Hilbert-Schmidt distance assembled from three device runs.

    Measures the two purities first, reuses each run's (nondemolition)
    unconditional post-state as the ensemble for the overlap measurement, and
    assembles (P_A + P_B)/2 - O_AB.  The overlap run reads only mode 0 of
    each post-state, :attr:`~qoverlap.protocol.ProtocolRun.reduced_post_state`,
    which is streamed sector by sector without the d^2 x d^2 state.  In
    shot-noise mode the per-phase budget is split equally across the three
    sub-measurements (sub-seeds seed, seed+1, seed+2) and errors combine in
    quadrature.
    """
    if rho_a.space.dim != rho_b.space.dim:
        raise ValueError("hs_distance requires states of equal dimension")
    if settings.shots is None:
        subs = [settings] * 3
    else:
        per = max(1, settings.shots // 3)
        subs = [replace(settings, shots=per, seed=settings.seed + i) for i in range(3)]

    pa_report, pa_detail = purity(rho_a, subs[0], return_detail=True)
    pb_report, pb_detail = purity(rho_b, subs[1], return_detail=True)
    recycled_a = pa_detail.run.reduced_post_state
    recycled_b = pb_detail.run.reduced_post_state
    o_report, o_detail = overlap(recycled_a, recycled_b, subs[2], return_detail=True)

    device = 0.5 * (pa_report.device_value + pb_report.device_value) - o_report.device_value
    if settings.shots is None:
        se = None
    else:
        se = float(
            np.sqrt(
                0.25 * pa_report.std_error**2
                + 0.25 * pb_report.std_error**2
                + o_report.std_error**2
            )
        )
    report = _report("hs_distance", device, hs_distance_direct(rho_a, rho_b), settings, se)
    return _maybe_detail(report, o_detail, return_detail)


def witness(
    rho_joint: DensityMatrix,
    settings: MeasurementSettings = EXACT,
    *,
    return_detail: bool = False,
):
    """Entanglement witness: calibrated probability difference with verdict.

    Negative values certify entanglement.  The verdict is "entangled" when
    the measured value is below -1e-9 (exact mode) or below minus three
    standard errors (shot-noise mode), otherwise "inconclusive".  In
    shot-noise mode the standard error is that of the plus-four proportion
    (ups + 2)/(shots + 4), which stays positive when every shot lands on
    one detector.
    """
    _equal_local_dim(rho_joint)
    run = protocol.sweep_visibility(rho_joint, settings.phase_count, settings.mode)
    delta = run.delta
    if settings.shots is None:
        se = None
        verdict = "entangled" if delta < -WITNESS_EXACT_THRESHOLD else "inconclusive"
    else:
        # One counting run at the calibrated phase, where p_up = (1 + delta)/2.
        p_up = min(max(0.5 * (1.0 + delta), 0.0), 1.0)
        rng = np.random.Generator(np.random.Philox(key=[int(settings.seed) % 2**64, 0]))
        ups = int(rng.binomial(settings.shots, p_up))
        delta = 2.0 * ups / settings.shots - 1.0
        # Plus-four proportion: stays inside (0, 1), so the error is never 0
        # when every shot lands on one detector.
        p_tilde = (ups + 2) / (settings.shots + 4)
        se = 2.0 * float(np.sqrt(p_tilde * (1.0 - p_tilde) / (settings.shots + 4)))
        verdict = "entangled" if delta < -3.0 * se else "inconclusive"
    report = _report("witness", delta, witness_oracle(rho_joint), settings, se, verdict)
    return _maybe_detail(report, MeasurementDetail(run, None, None), return_detail)


def povm_expectation(rho_joint: DensityMatrix) -> float:
    """|Tr(rho (Pi_plus - Pi_minus))|, the projector-pair form of the visibility."""
    d = _equal_local_dim(rho_joint)
    pair = gates.povm_projectors(d)
    return abs(float(np.trace(rho_joint.mat @ (pair.pi_plus - pair.pi_minus)).real))
