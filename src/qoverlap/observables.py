"""High-level measurement pipelines with independent direct-trace oracles.

Each pipeline drives the interferometric device to produce ``device_value``
and computes ``oracle_value`` by direct matrix algebra on the inputs; reports
carry both, so exact-mode runs double as end-to-end consistency checks.
The overlap, purity and HS-distance oracles are O(d^2) sums over entries:
for Hermitian factors Tr(a b) = sum_ij a_ij conj(b_ij), and the HS
distance is half the squared Frobenius norm of a - b.  The fidelity
oracle <psi|rho|psi> is O(d^2); the witness oracle reads the d^2 entries
of the partial transpose that the maximally entangled vector touches,
O(d^2), without copying the joint state.

With ``settings.shots`` set, per-phase probabilities are sampled and the
device value comes from the counting-statistics estimator; the reported
``std_error`` is the propagated binomial error.

Every report keeps the sweep behind it: ``report.run`` is the
:class:`~qoverlap.protocol.ProtocolRun` (phases and exact fringes) and
``report.counts`` the sampled (K, 2) up/down counts, ``None`` in exact mode
and for ``witness``, whose one counting run is at the calibrated phase.
``hs_distance`` carries its overlap sub-run and ``linear_entropy`` its purity
run.  Neither field takes part in equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import gates, protocol
from .linalg import ATOL_ALGEBRA, CompositeSpace, DensityMatrix, ProductState, _integer
from .protocol import IDEAL, DeviceInput, DeviceMode, ProtocolRun, _count
from .states import _keyed

# Exact-mode witness verdict threshold; shot-noise runs use 3 standard errors.
WITNESS_EXACT_THRESHOLD = 1e-9


@dataclass(frozen=True)
class MeasurementSettings:
    """How the device is driven: realization, phase grid, statistics.

    ``phase_count`` is an integer >= 3, ``shots`` ``None`` or an integer
    >= 1 and ``seed`` any integer.  Numpy integers are stored as ``int``;
    bools, floats and strings raise ``TypeError``, counts out of range
    ``ValueError``.
    """

    mode: DeviceMode = IDEAL
    phase_count: int = 8
    shots: int | None = None  # None runs with exact probabilities
    seed: int = 0

    def __post_init__(self):
        # numpy would truncate a fractional shot count and run True as one shot
        object.__setattr__(self, "phase_count", _count("phase_count", self.phase_count, 3))
        if self.shots is not None:
            object.__setattr__(self, "shots", _count("shots", self.shots, 1))
        # a numpy seed would overflow in hs_distance's seed + i
        object.__setattr__(self, "seed", _integer("seed", self.seed))


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
    run: ProtocolRun | None = field(default=None, repr=False, compare=False)
    counts: np.ndarray | None = field(default=None, repr=False, compare=False)


def _report(name, device, oracle, settings, std_error=None, verdict=None, run=None,
            counts=None) -> ObservableReport:
    return ObservableReport(
        name=name,
        device_value=float(device),
        oracle_value=float(oracle),
        abs_error=abs(float(device) - float(oracle)),
        shots_used=settings.shots,
        std_error=std_error,
        verdict=verdict,
        run=run,
        counts=counts,
    )


def _measure_visibility(name: str, rho_joint: DeviceInput, oracle: float,
                        settings: MeasurementSettings) -> ObservableReport:
    """Run one sweep and report its visibility against ``oracle``."""
    run = protocol.sweep_visibility(rho_joint, settings.phase_count, settings.mode)
    if settings.shots is None:
        return _report(name, run.visibility, oracle, settings, run=run)
    counts = protocol.sample_shots(run, settings.shots, settings.seed)
    v_hat, se = protocol.estimate_visibility(counts, run.phases)
    return _report(name, v_hat, oracle, settings, se, run=run, counts=counts)


# ---------------------------------------------------------------------------
# direct-trace oracles

def overlap_direct(rho_a: DensityMatrix, rho_b: DensityMatrix) -> float:
    """Tr(rho_a rho_b) = sum_ij a_ij conj(b_ij), as b is Hermitian: O(d^2)."""
    return float(np.vdot(rho_b.mat, rho_a.mat).real)


def purity_direct(rho: DensityMatrix) -> float:
    """Tr(rho^2)."""
    return overlap_direct(rho, rho)


def hs_distance_direct(rho_a: DensityMatrix, rho_b: DensityMatrix) -> float:
    """Squared Hilbert-Schmidt distance Tr[(rho_a - rho_b)^2] / 2.

    Half the squared Frobenius norm of rho_a - rho_b, which is Hermitian: O(d^2).
    """
    diff = rho_a.mat - rho_b.mat
    return float(0.5 * np.vdot(diff, diff).real)


def flip_expectation(rho_joint: DensityMatrix) -> float:
    """Tr(rho S) with S the flip operator on the two equal subsystems.

    Builds the d^2 x d^2 flip operator and a d^2 x d^2 product; it serves
    as a reference in the tests, and no pipeline uses it.
    """
    d = protocol._require_mode_pair(rho_joint.space)
    return float(np.trace(rho_joint.mat @ gates.flip_operator(d)).real)


def max_entangled_vector(d: int) -> np.ndarray:
    """Unnormalized maximally entangled vector sum_j |j>|j> (computational basis)."""
    v = np.zeros(d * d, dtype=complex)
    v[np.arange(d) * d + np.arange(d)] = 1.0
    return v


def witness_oracle(rho_joint: DensityMatrix) -> float:
    """<L| rho^T2 |L> with |L> the unnormalized maximally entangled vector.

    |L> = sum_j |j>|j>, so the functional is sum_{i,j} rho^T2[(i,i),(j,j)]:
    the d^2 entries of the partial transpose of the second subsystem that
    |L> touches, read from its 4-index view without copying rho, in O(d^2).
    It equals the flip expectation, which is what the calibrated device
    measures.
    """
    d = protocol._require_mode_pair(rho_joint.space)
    # rho^T2[(a, b), (c, e)] = rho[(a, e), (c, b)]
    pt = np.swapaxes(rho_joint.mat.reshape(d, d, d, d), 1, 3)
    return float(np.einsum("iijj->", pt).real)


# ---------------------------------------------------------------------------
# pipelines

def overlap(
    rho_a: DensityMatrix, rho_b: DensityMatrix, settings: MeasurementSettings = EXACT
) -> ObservableReport:
    """Overlap Tr(rho_a rho_b), measured as the visibility of the device fringe."""
    if rho_a.space.dim != rho_b.space.dim:
        raise ValueError("overlap requires states of equal dimension")
    pair = ProductState(rho_a, rho_b)
    return _measure_visibility("overlap", pair, overlap_direct(rho_a, rho_b), settings)


def fidelity_with_pure(
    rho: DensityMatrix, pure_psi: np.ndarray, settings: MeasurementSettings = EXACT
) -> ObservableReport:
    """Fidelity <psi|rho|psi> of a state against a pure state.

    ``pure_psi`` must be normalized to |<psi|psi> - 1| <= 1e-10, the trace
    tolerance of the projector |psi><psi| as a density matrix.  It is used
    as given, not renormalized.
    """
    psi = np.asarray(pure_psi, dtype=complex).reshape(-1)
    projector = psi[:, None] * psi.conj()  # |psi><psi|
    if abs(projector.trace().real - 1.0) > ATOL_ALGEBRA:
        raise ValueError("pure state must be normalized: |<psi|psi> - 1| exceeds 1e-10")
    if psi.size != rho.space.dim:
        raise ValueError("pure state dimension does not match the density matrix")
    rho_b = DensityMatrix(CompositeSpace((psi.size,)), projector)
    oracle = float((psi.conj() @ rho.mat @ psi).real)
    return _measure_visibility("fidelity", ProductState(rho, rho_b), oracle, settings)


def purity(rho: DensityMatrix, settings: MeasurementSettings = EXACT) -> ObservableReport:
    """Purity Tr(rho^2): overlap of the state with an independent copy.

    The two ensemble copies enter the device as the two 'modes'; any internal
    tensor structure of ``rho`` is irrelevant to the overlap, and
    :class:`ProductState` flattens it away.
    """
    return _measure_visibility("purity", ProductState(rho, rho), purity_direct(rho), settings)


def linear_entropy(rho: DensityMatrix, settings: MeasurementSettings = EXACT) -> ObservableReport:
    """Linear entropy 1 - Tr(rho^2)."""
    p = purity(rho, settings)
    return _report("linear_entropy", 1.0 - p.device_value, 1.0 - p.oracle_value, settings,
                   p.std_error, run=p.run, counts=p.counts)


def hs_distance(
    rho_a: DensityMatrix, rho_b: DensityMatrix, settings: MeasurementSettings = EXACT
) -> ObservableReport:
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

    pa = purity(rho_a, subs[0])
    pb = purity(rho_b, subs[1])
    o = overlap(pa.run.reduced_post_state, pb.run.reduced_post_state, subs[2])

    device = 0.5 * (pa.device_value + pb.device_value) - o.device_value
    if settings.shots is None:
        se = None
    else:
        se = math.sqrt(0.25 * pa.std_error**2 + 0.25 * pb.std_error**2 + o.std_error**2)
    return _report("hs_distance", device, hs_distance_direct(rho_a, rho_b), settings, se,
                   run=o.run, counts=o.counts)


def witness(rho_joint: DensityMatrix, settings: MeasurementSettings = EXACT) -> ObservableReport:
    """Entanglement witness: calibrated probability difference with verdict.

    Negative values certify entanglement.  The verdict is "entangled" when
    the measured value is below -1e-9 (exact mode) or below minus three
    standard errors (shot-noise mode), otherwise "inconclusive".  In
    shot-noise mode the standard error is that of the plus-four proportion
    (ups + 2)/(shots + 4), which stays positive when every shot lands on
    one detector.  The counts are drawn from the Philox stream keyed by
    (seed mod 2**64, 0), the stream of phase 0 in :func:`protocol.sample_shots`.
    """
    run = protocol.sweep_visibility(rho_joint, settings.phase_count, settings.mode)
    delta = run.delta
    if settings.shots is None:
        se = None
        verdict = "entangled" if delta < -WITNESS_EXACT_THRESHOLD else "inconclusive"
    else:
        # One counting run at the calibrated phase, where p_up = (1 + delta)/2.
        p_up = min(max(0.5 * (1.0 + delta), 0.0), 1.0)
        ups = int(_keyed(settings.seed).binomial(settings.shots, p_up))
        delta = 2.0 * ups / settings.shots - 1.0
        # Plus-four proportion: stays inside (0, 1), so the error is never 0
        # when every shot lands on one detector.
        p_tilde = (ups + 2) / (settings.shots + 4)
        se = 2.0 * math.sqrt(p_tilde * (1.0 - p_tilde) / (settings.shots + 4))
        verdict = "entangled" if delta < -3.0 * se else "inconclusive"
    return _report("witness", delta, witness_oracle(rho_joint), settings, se, verdict, run=run)


def povm_expectation(rho_joint: DensityMatrix) -> float:
    """|Tr(rho (Pi_plus - Pi_minus))|, the projector-pair form of the visibility.

    Builds the two d^2 x d^2 projectors and a d^2 x d^2 product; it serves
    as a reference in the tests, and no pipeline uses it.
    """
    d = protocol._require_mode_pair(rho_joint.space)
    pair = gates.povm_projectors(d)
    return abs(float(np.trace(rho_joint.mat @ (pair.pi_plus - pair.pi_minus)).real))
