from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

from qoverlap import (
    CompositeSpace,
    DensityMatrix,
    ProductState,
    annihilation,
    controlled_swap_ideal,
    cps,
    exp_unitary,
    ginibre_mixed,
    hadamard,
    number_phase,
    phase_shift,
    realize_gate,
    tensor,
)

# The same examples on every run, and no example database on disk.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def embed_mode_state(dm: DensityMatrix, cutoff: int) -> DensityMatrix:
    """Pad a single-mode state with zero rows/columns up to a larger cutoff."""
    d = dm.space.dim
    assert d <= cutoff
    m = np.zeros((cutoff, cutoff), dtype=complex)
    m[:d, :d] = dm.mat
    return DensityMatrix(CompositeSpace((cutoff,)), m)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_joint_state(d: int, seed: int, rank: int | None = None) -> DensityMatrix:
    """Random correlated state on two d-dimensional subsystems."""
    return ginibre_mixed(d * d, rank or d * d, seed, dims=(d, d))


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


def dense_coupler(d: int) -> np.ndarray:
    """The 50:50 coupler exp[(pi/4)(a0^dag a1 - a1^dag a0)] from the dense d^2 x d^2 generator."""
    a = annihilation(d)
    ad = a.conj().T
    return exp_unitary(1j * (tensor(ad, a) - tensor(a, ad)), np.pi / 4).mat


def _literal_controlled_step(mode, d: int) -> np.ndarray:
    """The controlled step on (ancilla, mode0, mode1), composed gate by gate."""
    def on_modes(m):
        return tensor(np.eye(2), m)

    if mode.kind == "ideal":
        return controlled_swap_ideal(d).mat
    coupler = dense_coupler(d)
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
    phase_fix = on_modes(tensor(number_phase(np.pi / 2, d).mat, np.eye(d)))
    return on_modes(coupler) @ phase_fix @ tensor(gate, np.eye(d)) @ on_modes(coupler.conj().T)


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
    ion = mode.kind == "hamiltonian" and mode.hamiltonian.kind == "ion_qnd"
    # columns: the ancilla states read as "up" and "dn"
    basis = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2) if ion else np.eye(2)
    rot = basis @ hadamard().mat @ basis.conj().T
    phase = basis @ phase_shift(psi).mat @ basis.conj().T
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
