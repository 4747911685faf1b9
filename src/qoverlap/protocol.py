"""End-to-end execution of the ancilla-interferometric overlap measurement.

The device prepares the ancilla in |up>, applies the ancilla rotation, the
phase gate with phase psi, a controlled step (ideal, gate-composed, or
Hamiltonian-compiled), a final ancilla rotation, and reads out the ancilla.

Every supported controlled step has the exact form
``P_up (x) W_up + P_dn (x) W_dn`` with mode-only unitaries.  W_dn is the
identity for every mode but the trapped-ion layout away from its default
time.  W_up is the exact flip for the ideal device; every other branch is
X^dag exp(i phi n_m) X, a coupler X at angle theta around a phase phi per
photon on mode m (:func:`_compile`).
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

Cost model.  The device input is a dense joint ``DensityMatrix`` or a
:class:`~qoverlap.linalg.ProductState` ``a (x) b`` kept as its factors.
The run makes the same five reads of either: the flip trace Tr(S rho), the
patched sectors the input reaches, Tr(patch rho_NN) on a sector, the
populations and, for the unconditional post-state only, the dense matrix.
A dense joint answers through views; a product from its factors, in O(d^2)
for all but the dense matrix, and only it answers the reduced post-state's
two: a sector's rows and the base partial trace.  Every branch conserves
the total photon number N = n0 + n1 and has one form (:class:`_Branch`): a
base B, the flip S for W_up and W_rel and the identity for W_dn, plus
patches Delta_N = W_N - B_N on a set P of sectors, the slices of
:func:`qoverlap.gates.number_sectors`; no d^2 x d^2 W is ever formed.  So
every mode is the ideal device plus patches, and the ideal device has none.
At its default time, which :mod:`qoverlap.dynamics` decides, a coupler,
per-photon phase and inverse coupler is the exact swap on every complete
sector N <= d - 1, so ``physical`` and each Hamiltonian mode at its default
time resolve on one branch, patched on the d - 1 incomplete sectors N >= d
only; any other interaction time patches all 2d - 1.

Every quantity is the ideal closed form plus a sum over P.  The fringe
number is c = Tr(S rho) + sum_{N in P} Tr(Delta_N rho_NN).  A patched
sector whose input block is all 0 adds exactly nothing and is skipped.
Patches are compiled on the first run that needs one, for their sectors
only: O(d^4) block products and one eigensolve per sector, shared by every
coupling angle at a cutoff, cached per process (``_COMPILE_CACHE_SIZE``
entries, read-only arrays).  A safe input (no population above total
photon number d - 1) in a default-time mode therefore compiles nothing and
costs what the ideal device costs, at every cutoff; any other input pays
O(d^3) for c.

A sweep computes c; all else is built on first read.  The fringes p_up and
p_down, closed forms of c read by the sampler and the record, are never
built by an exact pipeline.  What a sweep derives from its post-measurement
state is built from only the part it needs.
:attr:`ProtocolRun.post_visibility`, the visibility of a second sweep on
the unconditional post-state, is |c| and costs nothing (see there).
:attr:`ProtocolRun.reduced_post_state`, the post-state's mode-0 reduced
state, reads a product only (a dense input raises ``TypeError``), such as
the a (x) a that ``hs_distance`` passes: Tr(a) a plus, per branch, a
correction streamed over the patched sectors' nonzero input rows: O(d^3)
memory, and O(d^5) time when every sector is reached.  When no patched
sector has a nonzero input row (the ideal device, and every safe input at
the default time) there is no correction, and it costs O(d^2).
Neither post-state re-runs the ``DensityMatrix`` checks: both are derived
from the checked input as a real multiple of M + M^dag, Hermitian in every
bit.  Only
:attr:`ProtocolRun.post_state_unconditional` forms the dense d^2 x d^2
post-state, applying each branch to rows only (W rho W^dag as
W (W rho)^dag): the base reshuffles rows in O(d^4), and each patched
sector with nonzero rows adds its patch times them.  No pipeline reads it.
Conditional post-states are not formed at all; the tests' literal circuit
has them.

Detector convention: with the asymmetric ancilla rotation used here, the
"dn" detector carries the (1 + cos)-type fringe for positive overlap; only
convention-free quantities (visibility, calibrated probability difference)
are exposed by the high-level pipelines.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import gates
from .dynamics import HamiltonianSpec
from .linalg import (
    CompositeSpace,
    DensityMatrix,
    ProductState,
    _checked_space,
    _count,
    _derived_state,
    dag,
)
from .states import _streams

# What the device accepts: a dense joint state, or a product kept as factors.
DeviceInput = DensityMatrix | ProductState


@dataclass(frozen=True)
class DeviceMode:
    """Which realization of the controlled swap the device runs.

    ``ideal`` is the exact finite-dimensional controlled swap.  ``physical``
    is a 50:50 coupler, a pi-per-photon phase on mode 1 and the inverse
    coupler; ``hamiltonian`` realizes one of those steps as the evolution
    under the interaction Hamiltonian carried in ``hamiltonian``.  Both are
    written in closed form as a coupler, a phase per photon and the inverse
    coupler (:func:`_mode_swap_operator`): nothing is composed from
    :mod:`qoverlap.gates` matrices or evolved from a Hamiltonian.
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
class _Branch:
    """A branch unitary W: a base B, the flip S or the identity, plus patches.

    W equals B outside the sectors ``patched`` (indices into
    ``gates.number_sectors(d)``).  On each patched sector W is the block
    X^dag exp(i phi n_m) X given by ``sandwich = (theta, phi, m)``, X the
    coupler at theta and n_m the photon number of mode m; :func:`_compile`
    builds the patches Delta_N = W_N - B_N on first use.
    """

    flip: bool
    patched: range = range(0)
    sandwich: tuple[float, float, int] = ()


_FLIP = _Branch(True)
_IDENTITY = _Branch(False)

# Compiled branches kept per process, keyed by (branch, cutoff), and as many
# resolved modes.  A default-time branch holds its d - 1 incomplete-sector
# patches, (d - 1) d (2 d - 1) / 6 real numbers (~20 KB at d = 20, 45 MB at
# d = 256); a branch patched on every sector holds (2 d^2 + 1) d / 3 numbers
# (~85 KB at d = 20 when complex).  Safe inputs at the default time compile
# nothing.
_COMPILE_CACHE_SIZE = 32

# Phase grids are kept per process for phase counts up to this bound, one per
# K, 40 K bytes each (83 KB for all of them); larger grids are built per call.
_GRID_MAX_CACHED = 64
_GRIDS: dict[int, _Grid] = {}

# The largest shot count numpy's binomial draws: its n is a C int64.
MAX_SHOTS = 2**63 - 1

# Row tables kept per process: the two branches of one run.  A table holds
# d^3 complex numbers (128 KB at d = 20, 268 MB at d = 256).
_ROW_TABLE_CACHE_SIZE = 2


def _require_mode_pair(space: CompositeSpace) -> int:
    if space.n_subsystems != 2:
        raise ValueError(f"device input must live on two modes, got dims {space.dims}")
    d0, d1 = space.dims
    if d0 != d1:
        raise ValueError(f"both modes must share one cutoff, got {d0} and {d1}")
    return d0


@functools.lru_cache(maxsize=_COMPILE_CACHE_SIZE)
def _mode_swap_operator(mode: DeviceMode, d: int) -> tuple[_Branch, _Branch, _Branch]:
    """Resolve the branch unitaries (W_up, W_dn, W_rel) of the controlled step.

    Every mode is the ideal device, W_up = S and W_dn = 1, plus patches; c
    reads W_rel = W_dn^dag W_up, whose base is S.  At its default time
    (:attr:`HamiltonianSpec.at_default`) a sandwich is the exact swap on every
    complete sector N <= d - 1, so ``physical`` and every Hamiltonian mode at
    its default time take one branch: W_up = W_rel patched on the incomplete
    sectors N >= d only, W_dn = 1.  Any other time patches every sector.  The
    controlled phase targets mode 1 (:mod:`qoverlap.gates`), the ion mode 0.
    Nothing is compiled here; a Hamiltonian spec must match the cutoff d.
    """
    if mode.kind == "ideal":
        return _FLIP, _IDENTITY, _FLIP
    spec = mode.hamiltonian
    if spec is not None and spec.cutoff != d:
        raise ValueError(f"Hamiltonian cutoff {spec.cutoff} does not match mode cutoff {d}")
    incomplete, every = range(d, 2 * d - 1), range(2 * d - 1)
    ion = spec is not None and spec.kind == "ion_qnd"
    if spec is None or spec.at_default:
        # the physical sandwich on mode 1, or the ion's on mode 0 (the coupler at -pi/4 is B^dag)
        w_up = _Branch(True, incomplete, (-math.pi / 4, math.pi, 0) if ion else (math.pi / 4, math.pi, 1))
        return w_up, _IDENTITY, w_up
    angle = spec.coupling * spec.interaction_time
    if ion:
        # W_up, W_dn and W_rel of the module docstring
        return (
            _Branch(True, every, (-math.pi / 4, math.pi / 2 + angle, 0)),
            _Branch(False, every, (-math.pi / 4, math.pi / 2 - angle, 0)),
            _Branch(True, every, (-math.pi / 4, 2 * angle, 0)),
        )
    if spec.kind == "linear_coupling":
        # evolving under i xi (a0^dag a1 - a1^dag a0) for t is the coupler at xi t
        w_up = _Branch(True, every, (angle, math.pi, 1))
    else:
        # dispersive_cps: the |up> block of exp(-i kappa t n (x) |up><up|)
        w_up = _Branch(True, every, (math.pi / 4, -angle, 1))
    return w_up, _IDENTITY, w_up


@functools.lru_cache(maxsize=_COMPILE_CACHE_SIZE)
def _compile(w: _Branch, d: int) -> dict[int, np.ndarray]:
    """The patches Delta_N = W_N - B_N of branch w, keyed by sector index.

    W_N is X_N^T D_N X_N, with X_N the real coupler block and D_N the phase
    exp(i phi n_m) on the sector's states; a pi-per-photon phase is (-1)^n
    exactly, so every default-time patch is real.  B_N is the anti-identity
    J for the flip (number_sectors orders n0 upward) and 1 for the identity.
    Cached per (branch, cutoff), as read-only arrays.
    """
    theta, phi, on_mode = w.sandwich
    levels = np.arange(d)
    phases = (-1.0) ** levels if phi == math.pi else np.exp(1j * phi * levels)
    patches = {}
    for k, x in zip(w.patched, gates.coupler_blocks(d, theta, w.patched)):
        sector = gates.number_sectors(d)[k]
        patch = x.T @ (phases[(sector.n0, sector.n1)[on_mode]][:, None] * x)
        patch -= np.eye(len(x))[::-1] if w.flip else np.eye(len(x))
        patch.flags.writeable = False
        patches[k] = patch
    return patches


@functools.lru_cache(maxsize=_ROW_TABLE_CACHE_SIZE)
def _row_table(w: _Branch, d: int) -> np.ndarray:
    """rows[k, j, p]: conjugate of row |k, j> of W + B at column |p, k + j - p>.

    W + B is 2 B plus the patches, and row |k, j> of the base B is 1 at
    p = j (the flip) or p = k (the identity).  Entries off the row's sector
    are 0.  Built once per compiled branch and kept for the last
    ``_ROW_TABLE_CACHE_SIZE`` branches, read-only.
    """
    rows = np.zeros((d, d, d), dtype=complex)
    diag = np.arange(d)
    if w.flip:
        rows[:, diag, diag] = 2.0
    else:
        rows[diag, :, diag] = 2.0
    flat = rows.reshape(d * d, d)
    for k, patch in _compile(w, d).items():
        sector = gates.number_sectors(d)[k]
        flat[sector.idx, sector.n0] += patch.conj()
    rows.flags.writeable = False
    return rows


def _live_sectors(rho: DeviceInput, patched: range, d: int) -> list[int]:
    """The sectors in ``patched`` the input reaches (either input's ``live_sectors``).

    On every other sector a patch meets exact zeros, so it is skipped.
    When every sector is patched the input reaches some, so all are
    compiled anyway and none is checked.
    """
    if len(patched) in (0, 2 * d - 1):
        return list(patched)
    return rho.live_sectors(patched, gates.number_sectors(d))


def _left(w: _Branch, mat: np.ndarray, d: int) -> np.ndarray:
    """w @ mat for a branch unitary w (the unpatched identity returns ``mat`` itself).

    The base reshuffles rows; a patched sector adds its patch times its
    rows of ``mat``, unless those are all 0.
    """
    sectors = gates.number_sectors(d)
    live = [k for k in w.patched if mat[sectors[k].idx].any()]
    if w.flip:
        # row |n0, n1> of the result is row |n1, n0> of mat
        out = mat.reshape(d, d, -1).transpose(1, 0, 2).reshape(mat.shape)
    elif live:
        out = mat.copy()
    else:
        return mat
    patches = _compile(w, d) if live else {}
    for k in live:
        out[sectors[k].idx] += patches[k] @ mat[sectors[k].idx]
    return out


def _fringe_coefficient(rho: DeviceInput, w_rel: _Branch, live: list[int], d: int) -> complex:
    """c = Tr(W_rel rho), without any d^2 x d^2 matrix product.

    Tr(S rho), the ideal device's c, plus Tr(Delta_N rho_NN) on each
    patched sector the input reaches, ``live``.
    """
    c = rho.flip_trace()
    patches = _compile(w_rel, d) if live else {}
    for k in live:
        c += rho.sector_trace(patches[k], gates.number_sectors(d)[k])
    return complex(c)


def _reduced_branch(rho: ProductState, w: _Branch, d: int) -> np.ndarray:
    """Tr_1(W rho W^dag) up to an anti-Hermitian part, as a fresh d x d array.

    With Delta = W - B, Tr_1(W rho W^dag) = Tr_1(B rho B^dag) +
    Tr_1(Delta rho B^dag) + Tr_1(Delta rho W^dag)^dag; the caller keeps the
    Hermitian part, so the last term may enter undaggered, and the two
    Delta terms are Tr_1(Delta rho (W + B)^dag).  The base term is a
    partial trace of the input.  Delta rho lives on the patched sectors'
    rows that are not all 0 and is streamed one row sector at a time: row
    |i, j> meets column |k, j> of (W + B)^dag as the dot product with row
    |k, j> of W + B, which lives on the sector of total photon number k + j
    (:func:`_row_table`).  O(d^3) memory, and O(d^3) time per row.
    """
    out = rho.base_partial_trace(w.flip)
    live = _live_sectors(rho, w.patched, d)
    if not live:
        return out
    patches, w_rows = _compile(w, d), _row_table(w, d)
    for k in live:
        sector = gates.number_sectors(d)[k]
        rows = rho.sector_rows(sector)
        delta_rho = patches[k] @ rows
        # Row r of delta_rho is row |i, j> of Delta rho, with j = top - r; its
        # column |p, k + j - p> sits at flat index k + j + p (d - 1).
        # picked[r, k, p] reads it as a strided view; where no such state
        # exists it reads another state's entry, which meets a 0 of w_rows.
        top, (row, item) = sector.n1.start, delta_rho.strides
        picked = np.ndarray((len(rows), d, d), complex, delta_rho, top * item, (row - item, item, (d - 1) * item))
        mine = w_rows[:, sector.n1].transpose(1, 0, 2)  # mine[r] = w_rows[:, top - r]
        out[sector.n0] += np.einsum("rkp,rkp->rk", picked, mine)
    return out


class ProtocolRun:
    """One device run: the input ``rho``, the branch unitaries of ``mode`` and c.

    The constructor reads c = Tr(W_rel rho) (module docstring), refuses an
    input that is not positive and sweeps ``grid``: ``phases``, the
    ``visibility`` |c| and the calibrated ``delta`` Re c; the closed-form
    fringes ``p_up`` and ``p_down`` are built on first read.
    ``unsafe_population`` is the input's population above
    total photon number d - 1, 0.0 on the ideal device; at the default time
    the patches on those sectors are the device's whole truncation error,
    |c - Tr(S rho)| <= 2 * unsafe_population.

    The quantities derived from the post-measurement state are built on
    first read; later reads return the same object.
    ``post_state_unconditional`` is the full d^2 x d^2 state;
    ``reduced_post_state`` is its mode-0 reduced state, computed without the
    d^2 x d^2 matrix from a product input only, and ``post_visibility`` the
    visibility a second sweep on it would extract.  Both post-states are
    derived from the checked input and not checked again (:class:`DensityMatrix`):
    Hermitian in every bit, their trace is the input's up to rounding, or
    Tr(a) Tr(b) for a product a (x) b, up to about 2e-10 from 1.
    """

    def __init__(self, rho: DeviceInput, mode: DeviceMode, grid: _Grid):
        self.rho = rho
        self._d = d = _require_mode_pair(rho.space)
        self._w_up, self._w_dn, w_rel = _mode_swap_operator(mode, d)
        live = _live_sectors(rho, w_rel.patched, d)
        self.c = c = _fringe_coefficient(rho, w_rel, live, d)
        # every non-ideal W_rel patches each sector N >= d, so the live ones hold all the unsafe population
        unsafe = [gates.number_sectors(d)[k].idx for k in live if k >= d]
        self.unsafe_population = 0.0
        if unsafe:
            populations = rho.populations().ravel()
            self.unsafe_population = float(sum(populations[idx].sum() for idx in unsafe))
        # |Tr(W_rel rho)| <= Tr rho for every positive state; the fringes'
        # floor at 0 and the sampler's clamp into [0, 1] only absorb rounding.
        # DensityMatrix does not check positivity, so a non-positive input
        # stops here.  Tr rho is 1 up to the trace tolerance and is read only
        # when |c| exceeds 1, so the bound applied is max(1, Tr rho) + 1e-12.
        if abs(c) > 1.0 + 1e-12:
            trace = float(rho.populations().sum())
            if abs(c) > trace + 1e-12:
                raise ValueError(
                    f"input is not positive: |Tr(W_rel rho)| = {abs(c)!r} exceeds its trace {trace!r}"
                )
        self._grid = grid
        self.phases = grid.phases
        self.visibility = abs(c)
        self.delta = c.real

    @functools.cached_property
    def _cross(self) -> np.ndarray:  # Re[exp(i psi) c], shared by both fringes
        return (self._grid.forward * self.c).real

    @functools.cached_property
    def p_up(self) -> np.ndarray:
        return np.maximum(0.5 * (1.0 - self._cross), 0.0)

    @functools.cached_property
    def p_down(self) -> np.ndarray:
        return np.maximum(0.5 * (1.0 + self._cross), 0.0)

    @functools.cached_property
    def reduced_post_state(self) -> DensityMatrix:
        """Mode-0 state of the unconditional post-state (W_up rho W_up^dag + W_dn rho W_dn^dag)/2.

        The sum of the branches' partial traces plus its conjugate transpose
        is Hermitian in every bit.  Read from a :class:`ProductState` only.
        """
        if not isinstance(self.rho, ProductState):  # a dense input: Tr_1 of post_state_unconditional
            raise TypeError(f"reduced_post_state reads a ProductState input, not {type(self.rho).__name__}")
        mixed = _reduced_branch(self.rho, self._w_up, self._d)
        mixed += _reduced_branch(self.rho, self._w_dn, self._d)
        mixed += dag(mixed)
        mixed *= 0.25
        return _derived_state(_checked_space((self._d,)), mixed)

    @functools.cached_property
    def post_state_unconditional(self) -> DensityMatrix:
        """The unconditional post-state (W_up rho W_up^dag + W_dn rho W_dn^dag)/2.

        By rows only: W rho W^dag = W (W rho)^dag, as rho is Hermitian.
        """
        mat, d = self.rho.dense(), self._d
        up = _left(self._w_up, dag(_left(self._w_up, mat, d)), d)
        both = up + _left(self._w_dn, dag(_left(self._w_dn, mat, d)), d)
        return _derived_state(self.rho.space, 0.25 * (both + dag(both)))

    @property
    def post_visibility(self) -> float:
        """|c'| of the unconditional post-state, which equals the visibility.

        A second sweep on (W_up rho W_up^dag + W_dn rho W_dn^dag)/2 reads
        c' = Tr(Pi rho), Pi = (W_up^dag W_rel W_up + W_dn^dag W_rel W_dn)/2.
        In every mode the three branches commute: W_dn is the identity, or
        (the ion) all three are functions of B n_0 B^dag.  So Pi = W_rel and
        c' = c: the measurement is nondemolition for the overlap.
        """
        return self.visibility


class _Grid(NamedTuple):
    """A uniform phase grid psi_k = 2 pi k / K and its two rotations."""

    phases: np.ndarray
    forward: np.ndarray  # exp(+i psi)
    backward: np.ndarray  # exp(-i psi)


def _grid(phase_count: int) -> _Grid:
    """The grid of ``phase_count`` phases as read-only arrays.

    Grids of up to ``_GRID_MAX_CACHED`` phases are kept in ``_GRIDS``.
    """
    if type(phase_count) is not int:  # 8.0 and True would find the grids of 8 and 1
        phase_count = _count("phase_count", phase_count, 3)
    grid = _GRIDS.get(phase_count)
    if grid is not None:
        return grid
    if phase_count < 3:
        raise ValueError("phase sweep needs at least 3 phases")
    phases = 2.0 * math.pi * np.arange(phase_count) / phase_count
    grid = _Grid(phases, np.exp(1j * phases), np.exp(-1j * phases))
    for array in grid:
        array.flags.writeable = False
    if phase_count <= _GRID_MAX_CACHED:
        _GRIDS[phase_count] = grid
    return grid


def sweep_visibility(
    rho_joint: DeviceInput, phase_count: int = 8, mode: DeviceMode = IDEAL
) -> ProtocolRun:
    """Sweep a uniform phase grid and extract visibility and delta.

    ``rho_joint`` is a dense two-mode state or a :class:`ProductState`, and
    ``phase_count`` an integer >= 3 (a numpy one passes; a bool or a float,
    even 8.0, raises ``TypeError``).  The visibility is |c|, the
    first-harmonic Fourier coefficient of the p_down fringe, which equals
    the contrast (p_max - p_min)/(p_max + p_min) on any uniform grid of at
    least 3 phases.  ``delta`` is p_up - p_down at the calibrated phase pi,
    i.e. Re c.  The fringes, the closed form (1 -/+ Re[exp(i psi) c])/2 on
    the grid, and the phase-independent unconditional post-state are built
    on first read.  ``run.phases`` is read-only; up to ``_GRID_MAX_CACHED``
    phases it is the one grid shared by every sweep of ``phase_count``
    phases.
    """
    return ProtocolRun(rho_joint, mode, _grid(phase_count))


def witness_delta(rho_joint: DeviceInput, mode: DeviceMode = IDEAL) -> float:
    """Calibrated probability difference p_up - p_down, which is Re c.

    Negative values certify entanglement of the two-mode input; for a
    product input this equals the overlap of the factors and is never
    negative.
    """
    return sweep_visibility(rho_joint, mode=mode).delta


def sample_shots(run: ProtocolRun, shots_per_phase: int, seed: int) -> np.ndarray:
    """Simulate finite counting statistics for a swept run.

    For each phase k the Philox stream keyed by (seed mod 2**64, k) draws
    ``shots_per_phase`` Bernoulli trials with success probability p_up;
    the per-phase keying makes the result independent of evaluation order,
    and negative seeds are streams of their own.  The streams are the
    thread's one generator, fetched once and re-keyed at counter 0 for each
    phase (:func:`qoverlap.states._streams`), so each draws what a fresh
    generator per phase would.

    ``shots_per_phase`` is an integer in [1, ``MAX_SHOTS``] and ``seed`` an
    integer; numpy integers pass, bools and floats raise ``TypeError``.

    Returns an integer array of shape (K, 2) with columns (count_up,
    count_down).
    """
    shots_per_phase = _count("shots_per_phase", shots_per_phase, 1, MAX_SHOTS)
    ups = [rng.binomial(shots_per_phase, min(max(p, 0.0), 1.0))
           for p, rng in zip(run.p_up.tolist(), _streams(seed))]
    counts = np.empty((len(ups), 2), dtype=np.int64)
    counts[:, 0] = ups
    counts[:, 1] = shots_per_phase - counts[:, 0]
    return counts


def estimate_visibility(counts: np.ndarray, phases: np.ndarray) -> tuple[float, float]:
    """Visibility estimate and standard error from per-phase counts.

    Applies the same first-harmonic estimator as :func:`sweep_visibility` to
    the empirical p_down frequencies.  The standard error propagates the
    binomial variance of each frequency through the estimator (delta
    method); at a fringe null, where the gradient degenerates, a
    conservative isotropic scale is reported instead.  ``counts`` may be
    float-valued frequencies, finite and nonnegative; rows must sum to a
    positive total.
    ``phases`` must step by 2 pi / K: every spacing within
    1e-9 + 1e-5 (2 pi / K) of it, the bound ``np.allclose`` would apply
    with ``atol=1e-9``; a NaN phase is rejected.  A sweep's own
    ``run.phases``, when it is the kept grid of K phases, is uniform by
    construction, so it skips that check and reuses the grid's rotation
    exp(-i psi).  Any other array is checked and rotated afresh; one equal
    to the grid gives the same bits.
    """
    counts = np.asarray(counts, dtype=float)
    k = len(phases)
    if k < 3 or counts.shape != (k, 2):
        raise ValueError("need counts of shape (K, 2) for K >= 3 phases")
    if not 0.0 <= counts.min() <= counts.max() < math.inf:  # NaN fails it too
        raise ValueError("counts must be finite and nonnegative")
    grid = _GRIDS.get(k)
    if grid is not None and phases is grid.phases:  # a sweep's own grid: uniform, its rotation known
        rotation = grid.backward
    else:
        phases = np.asarray(phases, dtype=float)
        step = 2.0 * math.pi / k
        # allclose's test with rtol 1e-5 and atol 1e-9, written so that NaN fails it
        if not np.abs(np.diff(phases) - step).max() <= 1e-9 + 1e-5 * step:
            raise ValueError("phase grid is not uniform")
        rotation = np.exp(-1j * phases)
    totals = counts.sum(axis=1)
    if (totals <= 0).any():
        raise ValueError("every phase needs a positive total count")
    p_dn = counts[:, 1] / totals
    # The first-harmonic coefficient (4/K) sum_k p_k exp(-i psi_k): for samples
    # of (1 + Re[exp(i psi) c]) / 2 on a uniform grid of K >= 3 phases it is
    # c exactly.  One rotation serves it and its gradient.
    coeff = complex((4.0 / k) * (p_dn * rotation).sum())
    v_hat = abs(coeff)
    var_p = p_dn * (1.0 - p_dn) / totals
    if v_hat > 1e-12:
        grad = (4.0 / k) * (coeff.conjugate() * rotation).real / v_hat
        var_v = float((grad**2 * var_p).sum())
    else:
        var_v = float((8.0 / k**2) * var_p.sum())
    return float(v_hat), math.sqrt(var_v)


def repeat_measurement_check(
    rho_a: DensityMatrix, rho_b: DensityMatrix, mode: DeviceMode = IDEAL
) -> tuple[float, float]:
    """Visibility before and after one measurement pass.

    The first sweep runs on the product ``rho_a (x) rho_b``; the second value
    is the visibility of a sweep on the first's unconditional post-state,
    :attr:`ProtocolRun.post_visibility`.  The measurement is nondemolition
    for the overlap, so both values agree in every mode.
    """
    first = sweep_visibility(ProductState(rho_a, rho_b), mode=mode)
    return first.visibility, first.post_visibility
