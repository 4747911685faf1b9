"""End-to-end execution of the ancilla-interferometric overlap measurement.

The device prepares the ancilla in |up>, applies the ancilla rotation, the
phase gate with phase psi, a controlled mode swap (ideal, gate-composed, or
Hamiltonian-compiled), a final ancilla rotation, and reads out the ancilla.

Every supported controlled step has the exact form ``P_up (x) W + P_dn (x) I``
with a mode-only unitary W (W is the exact flip for the ideal device and the
coupler/phase/coupler sandwich otherwise).  Commuting the ancilla gates
through that structure collapses the whole sequence into two Kraus operators
acting on the modes alone,

    M_up(psi) = (exp(i psi) W - I) / 2,
    M_dn(psi) = (exp(i psi) W + I) / 2,

which is how the engine evaluates the circuit.  A test cross-checks this
factored evaluation against literal full-space matrix conjugation.

Consequences used throughout (W unitary, rho Hermitian, Tr rho = 1):

* p_dn(psi) = (1 + Re[exp(i psi) Tr(W rho)]) / 2 and p_up + p_dn = 1.
* For the ideal W = flip, Tr(W rho) is real, the fringe is a pure cosine and
  its contrast (visibility) is |Tr(rho W)|.
* The unconditional post-state (ancilla traced out) is (rho + W rho W^dag)/2,
  independent of psi.

Cost model.  The device input is either a dense joint ``DensityMatrix`` or a
:class:`~qoverlap.linalg.ProductState` ``a (x) b`` kept as its factors; the
input's type picks the path.  Fringes, visibility, calibration and delta need
only the number c = Tr(W rho), computed once per run and never with a
d^2 x d^2 matrix product: O(d^2) for the ideal device on a product
(Tr(a b)), O(d^4) otherwise (one pass over W or over rho).  Compiling a
non-ideal W is separate and costs d^2 x d^2 matrix work.  The unconditional
post-state is the only d^2 x d^2 output of a sweep; it is built on first
read of :attr:`ProtocolRun.post_state_unconditional` (O(d^4) for the ideal
device, O(d^6) for a compiled W).  :func:`run_device` returns the
conditional post-states as well and therefore always works with dense
d^2 x d^2 matrices.  The ion layout turns a product input into a dense joint
on entry.

Detector convention: with the asymmetric ancilla rotation used here, the
"dn" detector carries the (1 + cos)-type fringe for positive overlap; only
convention-free quantities (visibility, calibrated probability difference)
are exposed by the high-level pipelines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import gates
from .linalg import (
    CompositeSpace,
    DensityMatrix,
    ProductState,
    as_single_subsystem,
    dag,
    tensor,
    tensor_states,
)

if TYPE_CHECKING:  # pragma: no cover
    from .dynamics import HamiltonianSpec

# Conditioning probabilities below this are reported as undefined outcomes.
MIN_CONDITION_PROB = 1e-12

# What the device accepts: a dense joint state, or a product kept as factors.
DeviceInput = DensityMatrix | ProductState


@dataclass(frozen=True)
class DeviceMode:
    """Which realization of the controlled swap the device runs.

    ``ideal`` uses the exact finite-dimensional controlled swap, ``physical``
    composes coupler / controlled phase / inverse coupler from the gate
    module, and ``hamiltonian`` compiles one of the gates from an interaction
    Hamiltonian carried in ``hamiltonian``.
    """

    kind: str
    hamiltonian: "HamiltonianSpec | None" = None

    def __post_init__(self):
        if self.kind not in ("ideal", "physical", "hamiltonian"):
            raise ValueError(f"unknown device mode kind {self.kind!r}")
        if (self.kind == "hamiltonian") != (self.hamiltonian is not None):
            raise ValueError("hamiltonian mode requires a HamiltonianSpec, others none")


IDEAL = DeviceMode("ideal")
PHYSICAL = DeviceMode("physical")


def hamiltonian_mode(spec: "HamiltonianSpec") -> DeviceMode:
    return DeviceMode("hamiltonian", spec)


@dataclass(frozen=True)
class PhaseResult:
    """Single-phase device output: detector probabilities and post-states."""

    psi: float
    p_up: float
    p_down: float
    post_up: DensityMatrix | None
    post_down: DensityMatrix | None
    post_unconditional: DensityMatrix


@dataclass(frozen=True)
class ProtocolRun:
    """Phase sweep summary: fringes, extracted visibility, calibrated delta.

    ``post_state_unconditional`` is a d^2 x d^2 state that most pipelines
    never read, so a sweep stores how to build it and builds it on first
    read; later reads return the same object.
    """

    phases: np.ndarray
    p_up: np.ndarray
    p_down: np.ndarray
    visibility: float
    delta: float
    _post_state: DensityMatrix | Callable[[], DensityMatrix] = field(repr=False, compare=False)

    @property
    def post_state_unconditional(self) -> DensityMatrix:
        if not isinstance(self._post_state, DensityMatrix):
            # Replacing the callable also drops what it holds (the input, W).
            object.__setattr__(self, "_post_state", self._post_state())
        return self._post_state


_SWAP = object()  # sentinel: ideal flip, applied by index reshuffling


def _require_mode_pair(space: CompositeSpace) -> int:
    if space.n_subsystems != 2:
        raise ValueError(f"device input must live on two modes, got dims {space.dims}")
    d0, d1 = space.dims
    if d0 != d1:
        raise ValueError(f"both modes must share one cutoff, got {d0} and {d1}")
    return d0


def _dense_mat(rho: DeviceInput) -> np.ndarray:
    """The d^2 x d^2 matrix of the input, unvalidated for a product."""
    if isinstance(rho, ProductState):
        return tensor(rho.a.mat, rho.b.mat)
    return rho.mat


def _flip(mat: np.ndarray, d: int, both: bool = False) -> np.ndarray:
    """flip @ mat, or flip @ mat @ flip with ``both``, as a fresh array.

    Permutes the tensor factors of rows (and columns) instead of multiplying.
    """
    out = np.empty(mat.shape, dtype=mat.dtype)
    axes = (1, 0, 3, 2) if both else (1, 0, 2, 3)
    out.reshape(d, d, d, d)[...] = mat.reshape(d, d, d, d).transpose(axes)
    return out


def _mode_swap_operator(mode: DeviceMode, space: CompositeSpace):
    """Resolve the mode-side unitary W of the controlled step.

    Returns the sentinel ``_SWAP`` for the ideal device, otherwise a dense
    (d^2, d^2) matrix.  The controlled phase always targets mode 1 (module
    docstring of :mod:`qoverlap.gates`).
    """
    d = _require_mode_pair(space)
    if mode.kind == "ideal":
        return _SWAP
    parity_on_1 = tensor(np.eye(d), gates.number_phase(math.pi, d).mat)
    if mode.kind == "physical":
        b = gates.beamsplitter(d).mat
        return dag(b) @ parity_on_1 @ b
    # Hamiltonian-compiled gates; import deferred to avoid a cycle at import
    # time (dynamics imports this module for the result types).
    from . import dynamics

    spec = mode.hamiltonian
    if spec.cutoff != d:
        raise ValueError(f"Hamiltonian cutoff {spec.cutoff} does not match mode cutoff {d}")
    if spec.kind == "linear_coupling":
        b = dynamics.realize_gate(spec).mat
        return dag(b) @ parity_on_1 @ b
    if spec.kind == "dispersive_cps":
        phase = tensor(np.eye(d), dynamics.controlled_phase_branch(spec))
        b = gates.beamsplitter(d).mat
        return dag(b) @ phase @ b
    raise ValueError(f"device mode does not support Hamiltonian kind {spec.kind!r}")


def _is_ion_mode(mode: DeviceMode) -> bool:
    return mode.kind == "hamiltonian" and mode.hamiltonian.kind == "ion_qnd"


def _fringe_coefficient(rho: DeviceInput, w, d: int) -> complex:
    """Tr(W rho), without any d^2 x d^2 matrix product."""
    if isinstance(rho, ProductState):
        a, b = rho.a.mat, rho.b.mat
        if w is None:
            return complex(np.trace(a) * np.trace(b))
        if w is _SWAP:
            return complex(np.sum(a * b.T))  # Tr(flip (a x b)) = Tr(a b)
        # Tr(W (a x b)) = sum W[(i,j),(k,l)] a[k,i] b[l,j]: contract b, then a.
        w_b = np.tensordot(w.reshape(d, d, d, d), b, axes=([1, 3], [1, 0]))
        return complex(np.sum(w_b * a.T))
    if w is None:
        return complex(np.trace(rho.mat))
    if w is _SWAP:
        return complex(np.einsum("ijji", rho.mat.reshape(d, d, d, d)))
    return complex(np.sum(w * rho.mat.T))


def _post_state(rho: DeviceInput, w, d: int) -> DensityMatrix:
    """Unconditional post-state (rho + W rho W^dag)/2, made exactly Hermitian.

    Built from the input and W alone, updating fresh arrays in place.
    """
    mat = _dense_mat(rho)
    mixed = _flip(mat, d, both=True) if w is _SWAP else (w @ mat) @ dag(w)
    mixed += mat
    mixed += dag(mixed)
    mixed *= 0.25
    return DensityMatrix(rho.space, mixed)


class _DeviceKernel:
    """Factored evaluation of one device run around a fixed W (see module doc).

    ``w`` is ``_SWAP`` (ideal flip), a dense (d^2, d^2) unitary, or None for
    the interferometer without the controlled step; None serves calibration
    and supports :meth:`probabilities` only.
    """

    def __init__(self, rho: DeviceInput, w):
        self.rho = rho
        self.d = _require_mode_pair(rho.space)
        self.w = w
        self.c = _fringe_coefficient(rho, w, self.d)

    def probabilities(self, psi: float) -> tuple[float, float]:
        # Tr(W rho W^dag) = 1 because W is unitary.
        cross = (np.exp(1j * psi) * self.c).real
        return max(0.5 * (1.0 - cross), 0.0), max(0.5 * (1.0 + cross), 0.0)

    def post_unconditional(self) -> DensityMatrix:
        return _post_state(self.rho, self.w, self.d)

    def phase_result(self, psi: float) -> PhaseResult:
        rho = _dense_mat(self.rho)
        if self.w is _SWAP:
            wr, wrw = _flip(rho, self.d), _flip(rho, self.d, both=True)
        else:
            wr = self.w @ rho
            wrw = wr @ dag(self.w)
        cross = np.exp(1j * psi) * wr
        cross += dag(cross)
        num_up = 0.25 * (wrw + rho - cross)
        num_dn = 0.25 * (wrw + rho + cross)
        p_up = float(np.trace(num_up).real)
        p_dn = float(np.trace(num_dn).real)

        def _hermitian(m: np.ndarray) -> DensityMatrix:
            return DensityMatrix(self.rho.space, 0.5 * (m + dag(m)))

        def _conditional(num: np.ndarray, p: float) -> DensityMatrix | None:
            # Normalized by its own trace, so the state's trace is 1 even
            # when p is tiny and known only to a large relative error.
            return _hermitian(num / p) if p > MIN_CONDITION_PROB else None

        return PhaseResult(
            psi=float(psi),
            p_up=max(p_up, 0.0),
            p_down=max(p_dn, 0.0),
            post_up=_conditional(num_up, p_up),
            post_down=_conditional(num_dn, p_dn),
            post_unconditional=_hermitian(num_up + num_dn),
        )


def fourier_coefficient(values: np.ndarray, phases: np.ndarray) -> complex:
    """First-harmonic coefficient ``(4/K) sum_k values_k exp(-i psi_k)``.

    For samples of ``(1 + Re[exp(i psi) c]) / 2`` on a uniform grid of K >= 3
    phases, this returns ``c`` exactly.
    """
    k = len(phases)
    return complex((4.0 / k) * np.sum(np.asarray(values) * np.exp(-1j * np.asarray(phases))))


def visibility_minmax(p_values: np.ndarray) -> float:
    """Literal fringe contrast (p_max - p_min)/(p_max + p_min), for cross-checks."""
    p = np.asarray(p_values, dtype=float)
    hi, lo = p.max(), p.min()
    if hi + lo == 0.0:
        return 0.0
    return float((hi - lo) / (hi + lo))


def _uniform_phases(phase_count: int) -> np.ndarray:
    if phase_count < 3:
        raise ValueError("phase sweep needs at least 3 phases")
    return 2.0 * math.pi * np.arange(phase_count) / phase_count


def run_device(rho_joint: DeviceInput, psi: float, mode: DeviceMode = IDEAL) -> PhaseResult:
    """Run the device once at ancilla phase ``psi``.

    ``rho_joint`` is a dense two-mode state or a :class:`ProductState`.
    Returns detector probabilities, the conditional post-states (None when
    the outcome probability is below 1e-12), and the unconditional
    post-state of the modes.
    """
    if _is_ion_mode(mode):
        from . import dynamics

        if isinstance(rho_joint, ProductState):
            rho_joint = tensor_states(rho_joint.a, rho_joint.b)
        return dynamics.ion_protocol_run(rho_joint, psi, mode.hamiltonian)
    kernel = _DeviceKernel(rho_joint, _mode_swap_operator(mode, rho_joint.space))
    return kernel.phase_result(psi)


def calibrate_phase(rho_joint: DeviceInput, mode: DeviceMode = IDEAL, phase_count: int = 8) -> float:
    """Phase at which the no-controlled-swap interferometer gives p_up = 1.

    Runs the device with the controlled step replaced by the identity (the
    two couplers cancel exactly), sweeps the grid, and returns the exact
    maximizer of the resulting pure cosine fringe, obtained as minus the
    argument of its first-harmonic Fourier coefficient.  The fringe depends
    only on the ancilla gates, so the result is state independent; the same
    holds for the rotated-basis ion layout, whose no-gate fringe is the same
    cosine.
    """
    phases = _uniform_phases(phase_count)
    kernel = _DeviceKernel(rho_joint, None)
    p_up = np.array([kernel.probabilities(psi)[0] for psi in phases])
    coeff = fourier_coefficient(p_up, phases)
    return float((-np.angle(coeff)) % (2.0 * math.pi))


def sweep_visibility(
    rho_joint: DeviceInput, phase_count: int = 8, mode: DeviceMode = IDEAL
) -> ProtocolRun:
    """Sweep a uniform phase grid and extract visibility and delta.

    ``rho_joint`` is a dense two-mode state or a :class:`ProductState`.  The
    visibility is the magnitude of the first-harmonic Fourier
    coefficient of the p_down fringe, which reproduces the contrast
    (p_max - p_min)/(p_max + p_min) exactly for noiseless cosine fringes on
    any uniform grid of at least 3 phases.  ``delta`` is p_up - p_down at
    the calibrated phase, and the unconditional post-state is taken from the
    calibrated-phase run (it is phase independent) and built on first read.
    """
    phases = _uniform_phases(phase_count)
    psi_star = calibrate_phase(rho_joint, mode, phase_count)
    if _is_ion_mode(mode):
        joint = rho_joint
        if isinstance(joint, ProductState):  # built once, not once per phase
            joint = tensor_states(joint.a, joint.b)
        results = [run_device(joint, psi, mode) for psi in phases]
        p_up = np.array([r.p_up for r in results])
        p_dn = np.array([r.p_down for r in results])
        star = run_device(joint, psi_star, mode)
        delta = star.p_up - star.p_down
        post = star.post_unconditional
    else:
        kernel = _DeviceKernel(rho_joint, _mode_swap_operator(mode, rho_joint.space))
        pairs = [kernel.probabilities(psi) for psi in phases]
        p_up = np.array([p[0] for p in pairs])
        p_dn = np.array([p[1] for p in pairs])
        star_up, star_dn = kernel.probabilities(psi_star)
        delta = star_up - star_dn
        post = kernel.post_unconditional  # the kernel holds the input, W and c only
    visibility = abs(fourier_coefficient(p_dn, phases))
    return ProtocolRun(phases, p_up, p_dn, float(visibility), float(delta), post)


def witness_delta(rho_joint: DeviceInput, mode: DeviceMode = IDEAL) -> float:
    """Calibrated probability difference p_up - p_down.

    Negative values certify entanglement of the two-mode input; for a
    product input this equals the overlap of the factors and is never
    negative.
    """
    psi_star = calibrate_phase(rho_joint, mode)
    result = run_device(rho_joint, psi_star, mode)
    return result.p_up - result.p_down


def sample_shots(run: ProtocolRun, shots_per_phase: int, seed: int) -> np.ndarray:
    """Simulate finite counting statistics for a swept run.

    For each phase k an independent Philox stream keyed by (seed, k) draws
    ``shots_per_phase`` Bernoulli trials with success probability p_up; the
    per-phase keying makes the result independent of evaluation order.

    Returns an integer array of shape (K, 2) with columns (count_up,
    count_down).
    """
    if shots_per_phase < 1:
        raise ValueError("shots_per_phase must be at least 1")
    key = int(seed) % 2**64
    counts = np.empty((len(run.phases), 2), dtype=np.int64)
    for k, p in enumerate(run.p_up):
        rng = np.random.Generator(np.random.Philox(key=[key, k]))
        up = int(rng.binomial(shots_per_phase, min(max(float(p), 0.0), 1.0)))
        counts[k, 0] = up
        counts[k, 1] = shots_per_phase - up
    return counts


def estimate_visibility(counts: np.ndarray, phases: np.ndarray) -> tuple[float, float]:
    """Visibility estimate and standard error from per-phase counts.

    Applies the same first-harmonic estimator as :func:`sweep_visibility` to
    the empirical p_down frequencies.  The standard error propagates the
    binomial variance of each frequency through the estimator (delta
    method); at a fringe null, where the gradient degenerates, a
    conservative isotropic scale is reported instead.  ``counts`` may be
    float-valued frequencies; rows must sum to a positive total.
    """
    counts = np.asarray(counts, dtype=float)
    phases = np.asarray(phases, dtype=float)
    k = len(phases)
    if k < 3 or counts.shape != (k, 2):
        raise ValueError("need counts of shape (K, 2) for K >= 3 phases")
    spacing = np.diff(phases)
    if not np.allclose(spacing, 2.0 * math.pi / k, atol=1e-9):
        raise ValueError("phase grid is not uniform")
    totals = counts.sum(axis=1)
    if np.any(totals <= 0):
        raise ValueError("every phase needs a positive total count")
    p_dn = counts[:, 1] / totals
    coeff = fourier_coefficient(p_dn, phases)
    v_hat = abs(coeff)
    var_p = p_dn * (1.0 - p_dn) / totals
    if v_hat > 1e-12:
        grad = (4.0 / k) * (np.conj(coeff) * np.exp(-1j * phases)).real / v_hat
        var_v = float(np.sum(grad**2 * var_p))
    else:
        var_v = float((8.0 / k**2) * np.sum(var_p))
    return float(v_hat), math.sqrt(var_v)


def repeat_measurement_check(
    rho_a: DensityMatrix, rho_b: DensityMatrix, mode: DeviceMode = IDEAL
) -> tuple[float, float]:
    """Visibility before and after one measurement pass.

    The first sweep runs on the product ``rho_a (x) rho_b``; the second runs
    on the (dense) unconditional post-state of the first.  The measurement is
    nondemolition for the overlap, so both values agree in ideal mode.
    """
    pair = ProductState(as_single_subsystem(rho_a), as_single_subsystem(rho_b))
    first = sweep_visibility(pair, mode=mode)
    second = sweep_visibility(first.post_state_unconditional, mode=mode)
    return first.visibility, second.visibility
