import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import Phase, settings

from qoverlap import (
    CompositeSpace,
    DensityMatrix,
    ProductState,
    controlled_swap_ideal,
    cps,
    ginibre_mixed,
    linear_coupling,
    realize_gate,
    tensor,
)

# The same examples on every run, and no example database on disk.  The
# explain phase only annotates a failure, at a cost of every red run; it
# changes no example and no verdict.
settings.register_profile("deterministic", derandomize=True, database=None,
                          phases=[phase for phase in Phase if phase is not Phase.explain])
settings.load_profile("deterministic")


def embed_mode_state(dm: DensityMatrix, cutoff: int) -> DensityMatrix:
    """Pad a single-mode state with zero rows/columns up to a larger cutoff."""
    d = dm.space.dim
    assert d <= cutoff
    m = np.zeros((cutoff, cutoff), dtype=complex)
    m[:d, :d] = dm.mat
    return DensityMatrix(CompositeSpace((cutoff,)), m)


def embed_joint_state(dm: DensityMatrix, cutoff: int) -> DensityMatrix:
    """Pad a two-mode state with zero rows/columns up to a larger cutoff per mode."""
    d = dm.space.dims[0]
    assert dm.space.dims == (d, d) and d <= cutoff
    m = np.zeros((cutoff,) * 4, dtype=complex)
    m[:d, :d, :d, :d] = dm.mat.reshape(d, d, d, d)
    return DensityMatrix(CompositeSpace((cutoff, cutoff)), m.reshape(cutoff**2, cutoff**2))


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_joint_state(d: int, seed: int, rank: int | None = None) -> DensityMatrix:
    """Random correlated state on two d-dimensional subsystems."""
    return ginibre_mixed(d * d, rank or d * d, seed, dims=(d, d))


def assert_unitary(u: np.ndarray, atol: float = 1e-10):
    """max|U^dag U - I| <= atol."""
    assert np.abs(u.conj().T @ u - np.eye(len(u))).max() <= atol


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every subsystem not listed in ``keep`` (an index or indices, kept in order)."""
    if isinstance(keep, int):
        keep = (keep,)
    keep = tuple(sorted(set(int(k) for k in keep)))
    dims = rho.space.dims
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"subsystem index out of range for {len(dims)} subsystems: {keep}")
    tensor_form = rho.mat.reshape(dims + dims)
    remaining = list(range(len(dims)))
    for ax in sorted(set(remaining) - set(keep), reverse=True):
        pos = remaining.index(ax)
        tensor_form = np.trace(tensor_form, axis1=pos, axis2=pos + len(remaining))
        remaining.pop(pos)
    d = math.prod(dims[k] for k in keep)
    reduced = tensor_form.reshape(d, d)
    return DensityMatrix(CompositeSpace(tuple(dims[k] for k in keep)), 0.5 * (reduced + reduced.conj().T))


def flip_operator(d: int) -> np.ndarray:
    """The swap S|x, y> = |y, x> on two d-level systems: the |up> block of the ideal controlled swap."""
    return controlled_swap_ideal(d).mat[: d * d, : d * d]


def partial_transpose(rho: DensityMatrix, subsystem: int) -> np.ndarray:
    """Transpose the indices of one subsystem only, as a bare matrix (it may fail to be positive)."""
    n = rho.space.n_subsystems
    if subsystem < 0 or subsystem >= n:
        raise ValueError(f"subsystem index {subsystem} out of range for {n} subsystems")
    swapped = np.swapaxes(rho.mat.reshape(rho.space.dims * 2), subsystem, subsystem + n)
    return np.ascontiguousarray(swapped.reshape(rho.space.dim, rho.space.dim))


def max_entangled_vector(d: int) -> np.ndarray:
    """Unnormalized maximally entangled vector sum_j |j>|j> (computational basis)."""
    v = np.zeros(d * d, dtype=complex)
    v[np.arange(d) * (d + 1)] = 1.0
    return v


def hadamard() -> np.ndarray:
    """Ancilla rotation: |up> -> (|up>+|dn>)/sqrt(2), |dn> -> (|dn>-|up>)/sqrt(2).

    Note the asymmetry: the |dn> column carries -|up>.  This makes the gate a
    proper rotation (determinant +1) rather than the symmetric Hadamard, and
    fixes which detector shows which fringe downstream.
    """
    return np.array([[1.0, -1.0], [1.0, 1.0]], dtype=complex) / math.sqrt(2)


def phase_shift(psi: float) -> np.ndarray:
    """Ancilla phase gate ``diag(exp(i psi), 1)`` in (|up>, |dn>) order."""
    return np.diag([np.exp(1j * psi), 1.0]).astype(complex)


def embed_on_modes(gate_2d: np.ndarray, d: int) -> np.ndarray:
    """Lift an (ancilla, mode) gate to (ancilla, mode0, mode1) acting on mode 1."""
    g = gate_2d.reshape(2, d, 2, d)
    full = np.einsum("anbm,ij->ainbjm", g, np.eye(d))
    return full.reshape(2 * d * d, 2 * d * d)


class LiteralRun(NamedTuple):
    p_up: float
    p_down: float
    post_up: np.ndarray | None
    post_down: np.ndarray | None
    post_unconditional: np.ndarray


def _literal_controlled_step(mode, d: int) -> np.ndarray:
    """The controlled step on (ancilla, mode0, mode1), composed gate by gate."""
    def on_modes(m):
        return tensor(np.eye(2), m)

    if mode.kind == "ideal":
        return controlled_swap_ideal(d).mat
    coupler = realize_gate(linear_coupling(1.0, d)).mat  # from the dense d^2 x d^2 generator
    if mode.kind == "physical":
        return on_modes(coupler.conj().T) @ cps(d).mat @ on_modes(coupler)
    spec = mode.hamiltonian
    gate = realize_gate(spec).mat
    if spec.kind == "linear_coupling":
        return on_modes(gate.conj().T) @ cps(d).mat @ on_modes(gate)
    if spec.kind == "dispersive_cps":
        return on_modes(coupler.conj().T) @ embed_on_modes(gate, d) @ on_modes(coupler)
    # ion_qnd: the gate acts on (ancilla, mode 0) and is followed by a
    # pi/2-per-photon phase on mode 0; the couplers close the other way round.
    phase_fix = on_modes(tensor(np.diag(np.exp(0.5j * np.pi * np.arange(d))), np.eye(d)))
    return on_modes(coupler) @ phase_fix @ tensor(gate, np.eye(d)) @ on_modes(coupler.conj().T)


def _ancilla_basis(mode) -> np.ndarray:
    """Columns: the ancilla states read as "up" and "dn" (|-> and |+> for the ion layout)."""
    if mode.kind == "hamiltonian" and mode.hamiltonian.kind == "ion_qnd":
        return np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2)
    return np.eye(2)


def literal_branches(mode, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The dense d^2 x d^2 branches (W_up, W_dn) of the literal controlled step.

    The step is P_up (x) W_up + P_dn (x) W_dn in the layout's ancilla basis,
    so each branch is the step's block between one basis state and itself.
    """
    blocks = _literal_controlled_step(mode, d).reshape(2, d * d, 2, d * d)
    return tuple(np.einsum("a,aibj,b->ij", v.conj(), blocks, v) for v in _ancilla_basis(mode).T)


def literal_device_run(rho_joint, psi: float, mode, controlled_step: bool = True) -> LiteralRun:
    """One device run by literal conjugation of the full ancilla (x) modes state.

    Builds the whole circuit rotation . step . phase . rotation as one
    (2 d^2) x (2 d^2) unitary, conjugates ancilla (x) input by it and
    projects the ancilla.  The ``ion_qnd`` layout prepares and reads the
    ancilla in the |+/-> basis, |-> in the role of |up>, with the rotation
    and phase gate conjugated into that basis.  ``controlled_step=False``
    replaces the step by the identity (the gate-free interferometer).
    Conditional post-states are None at probability <= 1e-12.
    """
    mat = tensor(rho_joint.a.mat, rho_joint.b.mat) if isinstance(rho_joint, ProductState) else rho_joint.mat
    d = rho_joint.space.dims[0]
    basis = _ancilla_basis(mode)
    rot = basis @ hadamard() @ basis.conj().T
    phase = basis @ phase_shift(psi) @ basis.conj().T
    step = _literal_controlled_step(mode, d) if controlled_step else np.eye(2 * d * d)
    ident = np.eye(d * d)
    u = tensor(rot, ident) @ step @ tensor(phase, ident) @ tensor(rot, ident)
    prep = basis[:, 0]
    out = u @ tensor(np.outer(prep, prep.conj()), mat) @ u.conj().T
    blocks = out.reshape(2, d * d, 2, d * d)
    num_up, num_dn = (np.einsum("a,aibj,b->ij", v.conj(), blocks, v) for v in basis.T)
    p_up, p_dn = float(np.trace(num_up).real), float(np.trace(num_dn).real)
    return LiteralRun(
        p_up,
        p_dn,
        num_up / p_up if p_up > 1e-12 else None,
        num_dn / p_dn if p_dn > 1e-12 else None,
        num_up + num_dn,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
