"""Literal full-space gates, the reference the device's closed forms are checked against.

The device (:mod:`qoverlap.protocol`) writes every branch in closed form on
the number sectors, so no device call forms a dense gate.  This module
builds them as dense matrices, for the tests and the acceptance checks: the
coupler on (mode 0, mode 1), the controlled gates on (ancilla, mode 0,
mode 1) in the conventions of :mod:`qoverlap.gates`, the evolution under a
spec's dense Hamiltonian and the projector-pair form of the visibility.  No
device module imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import HamiltonianSpec
from .gates import coupler_blocks, number_sectors
from .linalg import (ATOL_ALGEBRA, CompositeSpace, DensityMatrix, _as_square_matrix, _count,
                     _refuse_non_finite, dag, tensor)
from .protocol import _require_mode_pair

_P_UP = np.diag([1.0, 0.0])
_P_DN = np.diag([0.0, 1.0])


def _as_complex_matrix(m) -> np.ndarray:
    mat = _as_square_matrix(m)
    _refuse_non_finite(mat)
    return mat


@dataclass(frozen=True)
class UnitaryGate:
    """Square complex matrix, every entry finite, tagged with the composite space it acts on."""

    space: CompositeSpace
    mat: np.ndarray

    def __post_init__(self):
        mat = _as_complex_matrix(self.mat)
        object.__setattr__(self, "mat", mat)
        if mat.shape[0] != self.space.dim:
            raise ValueError(f"matrix dimension {mat.shape[0]} does not match space {self.space.dims}")


def exp_unitary(h: np.ndarray, t: float, space: CompositeSpace | None = None) -> UnitaryGate:
    """``exp(-i h t)`` of a generator Hermitian within 1e-10 (else ``ValueError``), by eigendecomposition.

    ``h`` is in angular-frequency units (hbar absorbed), so only h t
    matters: ``sigma_z`` for time ``pi`` gives ``diag(exp(-i pi), exp(+i pi)) = -I``.
    ``space`` tags the gate; by default it is one subsystem of h's dimension.
    """
    h = _as_complex_matrix(h)
    if np.abs(h - dag(h)).max() > ATOL_ALGEBRA:
        raise ValueError("exp_unitary requires a Hermitian generator within 1e-10")
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w * float(t))) @ dag(v)
    return UnitaryGate(space or CompositeSpace((h.shape[0],)), u)


def realize_gate(spec: HamiltonianSpec) -> UnitaryGate:
    """Evolve under the spec's dense interaction Hamiltonian for its time.

    The generators are ``i xi (a^dag (x) a - a (x) a^dag)`` on two modes
    (``linear_coupling``), ``kappa |up><up| (x) n`` (``dispersive_cps``) and
    ``omega sigma_x (x) n`` (``ion_qnd``) on (ancilla, mode), with
    ``a|n> = sqrt(n)|n-1>`` truncated and n = a^dag a.  At the default times
    this is the 50:50 coupler and the controlled phase shift exactly.
    """
    d = spec.cutoff
    if spec.kind == "linear_coupling":
        a = np.diag(np.sqrt(np.arange(1.0, d)), 1)
        h, dims = 1j * spec.coupling * (tensor(a.T, a) - tensor(a, a.T)), (d, d)
    else:
        ancilla = _P_UP if spec.kind == "dispersive_cps" else np.array([[0.0, 1.0], [1.0, 0.0]])
        h, dims = spec.coupling * tensor(ancilla, np.diag(np.arange(d))), (2, d)
    return exp_unitary(h, spec.interaction_time, CompositeSpace(dims))


def beamsplitter(cutoff: int) -> UnitaryGate:
    """50:50 coupler ``exp[(pi/4)(a0^dag a1 - a1^dag a0)]``, its sector blocks written into one d^2 x d^2 matrix.

    The blocks are ``gates.coupler_blocks(cutoff, pi/4)``, so it is exactly
    unitary on the truncated space and agrees with the untruncated coupler on
    every sector of total photon number <= cutoff - 1.
    """
    d = _count("cutoff", cutoff, 2)
    m = np.zeros((d * d, d * d), dtype=complex)
    for sector, block in zip(number_sectors(d), coupler_blocks(d, math.pi / 4)):
        m[sector.idx, sector.idx] = block
    return UnitaryGate(CompositeSpace((d, d)), m)


def _controlled(d: int, active: np.ndarray) -> UnitaryGate:
    """``|up><up| (x) active + |dn><dn| (x) 1`` on (ancilla, mode 0, mode 1)."""
    return UnitaryGate(CompositeSpace((2, d, d)), tensor(_P_UP, active) + tensor(_P_DN, np.eye(d * d)))


def cps(cutoff: int, target_mode: int = 1) -> UnitaryGate:
    """Controlled phase shift: (-1)^n on Fock level n of ``target_mode`` when the ancilla is |up>.

    Mode 1, the default, is the target for which the coupler sandwich is the
    exact controlled swap (see :mod:`qoverlap.gates`).
    """
    d = _count("cutoff", cutoff, 2)
    if target_mode not in (0, 1):
        raise ValueError("target_mode must be 0 or 1")
    parity, ident = np.diag((-1.0) ** np.arange(d)), np.eye(d)
    return _controlled(d, tensor(parity, ident) if target_mode == 0 else tensor(ident, parity))


def controlled_swap_ideal(cutoff: int) -> UnitaryGate:
    """Exact controlled swap |dn>|a,b> -> |dn>|a,b>, |up>|a,b> -> |up>|b,a>, on every truncated level."""
    d = _count("cutoff", cutoff, 2)
    return _controlled(d, np.eye(d * d).reshape(d, d, d * d).swapaxes(0, 1).reshape(d * d, d * d))


def povm_projectors(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Projectors (Pi_plus, Pi_minus) onto the symmetric / antisymmetric subspaces of two d-level systems.

    Built from the vectors |n,n> and (|n,m> +/- |m,n>)/sqrt(2), n > m, not
    from the flip S, so ``Pi_plus - Pi_minus = S`` stays a real check.
    """
    d = _count("dimension", d, 2)
    e = np.eye(d * d)
    pairs = [(n * d + m, m * d + n) for n in range(d) for m in range(n)]
    plus = np.array([e[n * (d + 1)] for n in range(d)] + [(e[i] + e[j]) / math.sqrt(2) for i, j in pairs])
    minus = np.array([(e[i] - e[j]) / math.sqrt(2) for i, j in pairs])
    return (plus.T @ plus).astype(complex), (minus.T @ minus).astype(complex)


def povm_expectation(rho_joint: DensityMatrix) -> float:
    """|Tr(rho (Pi_plus - Pi_minus))|, the projector-pair form of the visibility."""
    pi_plus, pi_minus = povm_projectors(_require_mode_pair(rho_joint.space))
    return abs(float(np.trace(rho_joint.mat @ (pi_plus - pi_minus)).real))
