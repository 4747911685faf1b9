"""End-to-end execution of the ancilla-interferometric overlap measurement.

The device prepares the ancilla in |up>, applies the ancilla rotation, the
phase gate with phase psi, a controlled step (ideal, gate-composed, or
Hamiltonian-compiled), a final ancilla rotation, and reads out the ancilla.

Every supported controlled step has the exact form
``P_up (x) W_up + P_dn (x) W_dn`` with mode-only unitaries.  W_dn is the
identity for every mode but the trapped-ion layout.  W_up is the exact flip
for the ideal device; every other branch is X^dag exp(i phi n_m) X, a coupler
X at angle theta around a phase phi per photon on mode m (:func:`_sandwich`).
Commuting the ancilla gates through that structure collapses the whole
sequence into two Kraus operators acting on the modes alone,

    M_up(psi) = (exp(i psi) W_up - W_dn) / 2,
    M_dn(psi) = (exp(i psi) W_up + W_dn) / 2,

which is how the engine evaluates the circuit.  Tests cross-check this
factored evaluation against literal full-space matrix conjugation.

The ``ion_qnd`` interaction is diagonal in the ancilla's sigma_x basis, so
its layout prepares and reads the ancilla in the |+/-> basis with |->
playing the role of |up>.  On |-/+> the interaction is exp(+/- i omega t n);
followed by a pi/2-per-photon phase on the driven mode 0, between couplers
taken the other way round, W_up, W_dn = B exp(i (pi/2 +/- omega t) n_0) B^dag.
At the default time W_dn is the identity; at other times it is not.  Both
share B, so W_rel = W_dn^dag W_up = B exp(2 i omega t n_0) B^dag.

Consequences used throughout (W_up, W_dn unitary, rho Hermitian, Tr rho = 1),
with c = Tr(W_dn^dag W_up rho) = Tr(W_rel rho):

* p_dn(psi) = (1 + Re[exp(i psi) c]) / 2 and p_up + p_dn = 1.
* The fringe's contrast (visibility) is |c|; for the ideal W_up = flip, c is
  real and equals the flip expectation.
* Without the controlled step p_up = (1 - cos psi) / 2 for every state and
  mode, so the calibrated phase is pi and the calibrated probability
  difference p_up - p_dn is Re c.
* The unconditional post-state (ancilla traced out) is
  (W_up rho W_up^dag + W_dn rho W_dn^dag)/2, independent of psi.

Cost model.  The device input is either a dense joint ``DensityMatrix`` or a
:class:`~qoverlap.linalg.ProductState` ``a (x) b`` kept as its factors; the
input's type picks the path.  Every non-ideal branch unitary is a coupler,
a per-photon phase and the inverse coupler, so it conserves the total
photon number N = n0 + n1 and is kept as its 2d - 1 sector blocks (each at
most d x d, O(d^3) numbers in all); no d^2 x d^2 W is ever formed.
Compiling one costs O(d^4) block products; the sector eigensolves of the
coupler are shared by every coupling angle at a cutoff.  It happens once
per (mode, cutoff) per process: compiled branches are cached
(``_COMPILE_CACHE_SIZE`` entries, read-only arrays), keyed by the mode with
its Hamiltonian spec, interaction time included.  Fringes, visibility and
delta need only the number c, computed once per run: O(d^2) for the ideal
device (Tr(a b) on a product); for a compiled W, block by block against
W_rel from the input's O(d^3) sector entries.  The sectors are the slices
of :func:`qoverlap.gates.number_sectors`, so every sector read is a strided
view (of each factor, for a product).

What a sweep derives from its post-measurement state is built on first
read, each from only the part it needs.
:attr:`ProtocolRun.post_visibility`, the visibility of a second sweep on
the unconditional post-state, reads that state's sector-diagonal blocks,
which follow from the input's: O(d^4).
:attr:`ProtocolRun.reduced_post_state`, the post-state's mode-0 reduced
state, is a partial trace of the input for the ideal device and is
streamed one row sector at a time for a compiled W: O(d^5) time, O(d^3)
memory.  Only :func:`run_device` forms the dense d^2 x d^2 post-states,
applying each branch to rows only (W rho W'^dag as W (W' rho)^dag): O(d^4)
for the ideal device, O(d^5) for a compiled W.
:attr:`ProtocolRun.post_state_unconditional` is its unconditional
post-state; no pipeline reads it.

Detector convention: with the asymmetric ancilla rotation used here, the
"dn" detector carries the (1 + cos)-type fringe for positive overlap; only
convention-free quantities (visibility, calibrated probability difference)
are exposed by the high-level pipelines.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import gates
from .dynamics import HamiltonianSpec
from .linalg import (
    CompositeSpace,
    DensityMatrix,
    ProductState,
    as_single_subsystem,
    dag,
    tensor,
)

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
    hamiltonian: HamiltonianSpec | None = None

    def __post_init__(self):
        if self.kind not in ("ideal", "physical", "hamiltonian"):
            raise ValueError(f"unknown device mode kind {self.kind!r}")
        if (self.kind == "hamiltonian") != (self.hamiltonian is not None):
            raise ValueError("hamiltonian mode requires a HamiltonianSpec, others none")


IDEAL = DeviceMode("ideal")
PHYSICAL = DeviceMode("physical")


def hamiltonian_mode(spec: HamiltonianSpec) -> DeviceMode:
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

    The run keeps its device kernel (the input, the branch unitaries and c),
    and the quantities derived from the post-measurement state are built on
    first read; later reads return the same object.
    ``post_state_unconditional`` is the full d^2 x d^2 state;
    ``reduced_post_state`` is its mode-0 reduced state and ``post_visibility``
    the visibility a second sweep on it would extract, both computed without
    the d^2 x d^2 matrix.
    """

    phases: np.ndarray
    p_up: np.ndarray
    p_down: np.ndarray
    visibility: float
    delta: float
    _kernel: _DeviceKernel = field(repr=False, compare=False)

    @functools.cached_property
    def post_state_unconditional(self) -> DensityMatrix:
        return self._kernel.phase_result(0.0).post_unconditional

    @functools.cached_property
    def reduced_post_state(self) -> DensityMatrix:
        return self._kernel.reduced_post()

    @functools.cached_property
    def post_visibility(self) -> float:
        return self._kernel.post_visibility()


_SWAP = object()  # sentinel: ideal flip, applied by index reshuffling

# A branch unitary is _SWAP, None for the identity, or a compiled unitary kept
# as a tuple of blocks: block k acts on the states gates.number_sectors(d)[k]
# and entries between sectors are 0.  Compiled blocks are cached and shared,
# so they are read-only.

# Compiled (mode, cutoff) pairs kept per process.  The device_modes benchmark
# cycles through 15 pairs; an entry holds O(d^3) numbers (~90 KB at d = 20).
_COMPILE_CACHE_SIZE = 32


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


def _left(w, mat: np.ndarray, d: int) -> np.ndarray:
    """w @ mat for a branch unitary w (the identity returns ``mat`` itself)."""
    if w is None:
        return mat
    if w is _SWAP:
        # row |n0, n1> of the result is row |n1, n0> of mat
        return mat.reshape(d, d, -1).transpose(1, 0, 2).reshape(mat.shape)
    out = np.empty(mat.shape, dtype=complex)
    for sector, block in zip(gates.number_sectors(d), w):
        out[sector.idx] = block @ mat[sector.idx]
    return out


def _sandwich(d: int, theta: float, phi: float, on_mode: int) -> tuple[np.ndarray, ...]:
    """Sector blocks of X^dag exp(i phi n_m) X, X the coupler at ``theta``.

    n_m is the photon number of mode ``on_mode``; the phase is diagonal on
    each sector, D_N, so the block is X_N^dag D_N X_N.
    """
    phases = np.exp(1j * phi * np.arange(d))
    blocks = []
    for sector, x in zip(gates.number_sectors(d), gates.coupler_blocks(d, theta)):
        block = dag(x) @ (phases[(sector.n0, sector.n1)[on_mode]][:, None] * x)
        block.flags.writeable = False
        blocks.append(block)
    return tuple(blocks)


@functools.lru_cache(maxsize=_COMPILE_CACHE_SIZE)
def _mode_swap_operator(mode: DeviceMode, d: int):
    """Resolve the branch unitaries (W_up, W_dn, W_rel) of the controlled step.

    W_up is the sentinel ``_SWAP`` for the ideal device, otherwise the
    sector blocks of a coupler / per-photon phase / inverse coupler
    sandwich (:func:`_sandwich`); W_dn is None (the identity) except for
    ``ion_qnd``.  W_rel = W_dn^dag W_up, the one unitary that c reads, is
    W_up itself unless W_dn is compiled.  The controlled phase targets
    mode 1 (module docstring of :mod:`qoverlap.gates`), the ion interaction
    mode 0.  Cached per (mode, cutoff); the mode's Hamiltonian spec,
    interaction time included, is part of the key.
    """
    if mode.kind == "ideal":
        return _SWAP, None, _SWAP
    if mode.kind == "physical":
        w_up = _sandwich(d, math.pi / 4, math.pi, 1)
        return w_up, None, w_up
    spec = mode.hamiltonian
    if spec.cutoff != d:
        raise ValueError(f"Hamiltonian cutoff {spec.cutoff} does not match mode cutoff {d}")
    angle = spec.coupling * spec.interaction_time
    if spec.kind == "linear_coupling":
        # evolving under i xi (a0^dag a1 - a1^dag a0) for t is the coupler at xi t
        w_up = _sandwich(d, angle, math.pi, 1)
    elif spec.kind == "dispersive_cps":
        # the |up> block of exp(-i kappa t n (x) |up><up|)
        w_up = _sandwich(d, math.pi / 4, -angle, 1)
    elif spec.kind == "ion_qnd":
        # W_up, W_dn and W_rel of the module docstring; the coupler at -pi/4 is B^dag
        return (
            _sandwich(d, -math.pi / 4, math.pi / 2 + angle, 0),
            _sandwich(d, -math.pi / 4, math.pi / 2 - angle, 0),
            _sandwich(d, -math.pi / 4, 2 * angle, 0),
        )
    else:
        raise ValueError(f"device mode does not support Hamiltonian kind {spec.kind!r}")
    return w_up, None, w_up


def _sector_block(rho: DeviceInput, sector: gates.Sector) -> np.ndarray:
    """The input's diagonal block on one sector, read through views (of both factors for a product)."""
    if isinstance(rho, ProductState):
        return rho.a.mat[sector.n0, sector.n0] * rho.b.mat[sector.n1, sector.n1]
    return rho.mat[sector.idx, sector.idx]


def _sector_rows(rho: DeviceInput, sector: gates.Sector) -> np.ndarray:
    """The input's rows on one sector, one per state (a[n0] (x) b[n1] for a product)."""
    if isinstance(rho, ProductState):
        rows = rho.a.mat[sector.n0, :, None] * rho.b.mat[sector.n1, None, :]
        return rows.reshape(len(rows), -1)
    return rho.mat[sector.idx]


def _sector_conj(w, k: int, block: np.ndarray) -> np.ndarray:
    """W_N block W_N^dag on sector k for a branch unitary w."""
    if w is None:
        return block
    if w is _SWAP:
        # number_sectors orders n0 upward, so the flip is the anti-identity J
        return block[::-1, ::-1]
    return w[k] @ block @ dag(w[k])


def _sector_trace(w_rel, k: int, block: np.ndarray) -> complex:
    """Tr(W_rel,N block) on sector k."""
    if w_rel is _SWAP:
        return np.trace(block[::-1])  # Tr(J block)
    return (w_rel[k] * block.T).sum()


def _fringe_coefficient(rho: DeviceInput, w_rel, d: int) -> complex:
    """c = Tr(W_rel rho), without any d^2 x d^2 matrix product."""
    if w_rel is _SWAP:
        if isinstance(rho, ProductState):
            return complex(np.sum(rho.a.mat * rho.b.mat.T))  # Tr(flip (a x b)) = Tr(a b)
        return complex(np.einsum("ijji", rho.mat.reshape(d, d, d, d)))
    c = 0j
    for k, sector in enumerate(gates.number_sectors(d)):
        c += _sector_trace(w_rel, k, _sector_block(rho, sector))
    return complex(c)


def _reduced_branch(rho: DeviceInput, w, d: int) -> np.ndarray:
    """Tr_1(W rho W^dag) for a branch unitary w, as a fresh d x d array.

    The identity and the flip leave a partial trace of the input (Tr(b) a
    and Tr(a) b on a product).  A compiled W is streamed one row sector of
    W rho at a time: row |i, j> of W rho W^dag meets column |k, j> as the
    dot product of that row with row |k, j> of W, which lives on the sector
    of total photon number k + j.  O(d^5) time and O(d^3) memory.
    """
    if w is None or w is _SWAP:
        if isinstance(rho, ProductState):
            a, b = (rho.a.mat, rho.b.mat) if w is None else (rho.b.mat, rho.a.mat)
            return np.trace(b) * a
        return np.einsum("ijkj->ik" if w is None else "jijk->ik", rho.mat.reshape(d, d, d, d))
    sectors = gates.number_sectors(d)
    # w_rows[k, j, p]: conjugate of row |k, j> of W at column |p, k + j - p>, 0 off its sector
    w_rows = np.zeros((d * d, d), dtype=complex)
    for sector, block in zip(sectors, w):
        w_rows[sector.idx, sector.n0] = block.conj()
    w_rows = w_rows.reshape(d, d, d)
    out = np.zeros((d, d), dtype=complex)
    for sector, block in zip(sectors, w):
        w_rho = block @ _sector_rows(rho, sector)
        # Row r of w_rho is row |i, j> of W rho, with j = top - r; its column
        # |p, k + j - p> sits at flat index k + j + p (d - 1).  picked[r, k, p]
        # reads it as a strided view; where no such state exists it reads
        # another state's entry, which meets a 0 of w_rows.
        top, (row, item) = sector.n1.start, w_rho.strides
        picked = np.ndarray((len(w_rho), d, d), complex, w_rho, top * item, (row - item, item, (d - 1) * item))
        mine = w_rows[:, sector.n1].transpose(1, 0, 2)  # mine[r] = w_rows[:, top - r]
        out[sector.n0] += np.einsum("rkp,rkp->rk", picked, mine)
    return out


class _DeviceKernel:
    """Factored evaluation of one device run around fixed branches (see module doc)."""

    def __init__(self, rho: DeviceInput, mode: DeviceMode):
        self.rho = rho
        self.d = _require_mode_pair(rho.space)
        self.w_up, self.w_dn, self.w_rel = _mode_swap_operator(mode, self.d)
        self.c = _fringe_coefficient(rho, self.w_rel, self.d)

    def reduced_post(self) -> DensityMatrix:
        """Mode-0 state of the unconditional post-state (W_up rho W_up^dag + W_dn rho W_dn^dag)/2."""
        mixed = _reduced_branch(self.rho, self.w_up, self.d)
        mixed += _reduced_branch(self.rho, self.w_dn, self.d)
        mixed += dag(mixed)
        mixed *= 0.25
        return DensityMatrix(CompositeSpace((self.d,)), mixed)

    def post_visibility(self) -> float:
        """|c| of the unconditional post-state, from its sector-diagonal blocks.

        W_up and W_dn conserve the photon number, so the post-state's block
        on sector N is (W_up,N rho_NN W_up,N^dag + W_dn,N rho_NN W_dn,N^dag)/2
        and needs only the input's block rho_NN: O(d^4) in all.
        """
        c = 0j
        for k, sector in enumerate(gates.number_sectors(self.d)):
            block = _sector_block(self.rho, sector)
            mixed = _sector_conj(self.w_up, k, block) + _sector_conj(self.w_dn, k, block)
            c += _sector_trace(self.w_rel, k, mixed)
        return float(abs(0.5 * c))

    def phase_result(self, psi: float) -> PhaseResult:
        rho, d = _dense_mat(self.rho), self.d
        # By rows only: W rho W'^dag = W (W' rho)^dag, as rho is Hermitian.
        up_rho = _left(self.w_up, rho, d)
        both = _left(self.w_up, dag(up_rho), d) + _left(self.w_dn, dag(_left(self.w_dn, rho, d)), d)
        cross = np.exp(1j * psi) * dag(_left(self.w_dn, dag(up_rho), d))
        cross += dag(cross)
        num_up = 0.25 * (both - cross)
        num_dn = 0.25 * (both + cross)
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
            post_unconditional=_hermitian(0.5 * both),
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
    return _DeviceKernel(rho_joint, mode).phase_result(psi)


def calibrate_phase(rho_joint: DeviceInput, mode: DeviceMode = IDEAL, phase_count: int = 8) -> float:
    """Phase at which the no-controlled-swap interferometer gives p_up = 1.

    With the controlled step replaced by the identity (the two couplers
    cancel exactly) the fringe is p_up = (1 - cos psi)/2 for every state and
    every mode, the rotated-basis ion layout included, so the maximizer is
    pi on any grid.  The input must still live on two equal modes and the
    grid must have at least 3 phases.
    """
    _uniform_phases(phase_count)
    _require_mode_pair(rho_joint.space)
    return math.pi


def sweep_visibility(
    rho_joint: DeviceInput, phase_count: int = 8, mode: DeviceMode = IDEAL
) -> ProtocolRun:
    """Sweep a uniform phase grid and extract visibility and delta.

    ``rho_joint`` is a dense two-mode state or a :class:`ProductState`.  The
    fringes are the closed form (1 -/+ Re[exp(i psi) c])/2 on the grid.  The
    visibility is |c|, the first-harmonic Fourier coefficient of the p_down
    fringe, which equals the contrast (p_max - p_min)/(p_max + p_min) on
    any uniform grid of at least 3 phases.  ``delta`` is p_up - p_down at
    the calibrated phase pi, i.e. Re c.  The unconditional post-state is
    phase independent and built on first read.
    """
    phases = _uniform_phases(phase_count)
    kernel = _DeviceKernel(rho_joint, mode)
    cross = (np.exp(1j * phases) * kernel.c).real
    p_up = np.maximum(0.5 * (1.0 - cross), 0.0)
    p_dn = np.maximum(0.5 * (1.0 + cross), 0.0)
    return ProtocolRun(phases, p_up, p_dn, abs(kernel.c), kernel.c.real, kernel)


def witness_delta(rho_joint: DeviceInput, mode: DeviceMode = IDEAL) -> float:
    """Calibrated probability difference p_up - p_down, which is Re c.

    Negative values certify entanglement of the two-mode input; for a
    product input this equals the overlap of the factors and is never
    negative.
    """
    return _DeviceKernel(rho_joint, mode).c.real


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

    The first sweep runs on the product ``rho_a (x) rho_b``; the second value
    is the visibility of a sweep on the first's unconditional post-state,
    :attr:`ProtocolRun.post_visibility`, which reads only that state's
    sector-diagonal blocks.  The measurement is nondemolition for the
    overlap, so both values agree in ideal mode.
    """
    pair = ProductState(as_single_subsystem(rho_a), as_single_subsystem(rho_b))
    first = sweep_visibility(pair, mode=mode)
    return first.visibility, first.post_visibility
