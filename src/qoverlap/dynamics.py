"""Gate realization by time evolution under interaction Hamiltonians.

Three effective interactions are supported, each with its prescribed
interaction time (couplings are angular frequencies, hbar absorbed, so only
the dimensionless coupling*time product matters):

* ``linear_coupling``: H = i*xi*(a0^dag a1 - a1^dag a0) on two modes; at
  t = pi/(4 xi) this compiles the 50:50 coupler.
* ``dispersive_cps``: H = kappa * n (x) |up><up| on ancilla + one mode; at
  t = pi/kappa it compiles the controlled phase shift (exp(-i pi n) and
  exp(+i pi n) coincide on integer spectra).
* ``ion_qnd``: H = omega * n * sigma_x on ancilla + one vibrational mode; at
  t = pi/(2 omega) the evolution is diagonal in the sigma_x eigenbasis with
  branch phases exp(-/+ i pi n / 2).  Following it with a pi/2-per-photon
  phase on the same mode turns the pair exactly into a controlled phase
  shift whose active ancilla state is |->; the modified protocol therefore
  prepares and reads the ancilla in the |+/-> basis.

Each of these evolutions is a phase per photon on the number basis, or on the
ancilla's sigma_x basis, so the device writes its branches in closed form
(see :mod:`qoverlap.protocol`); :func:`realize_gate` evolves the dense
Hamiltonian and serves as the literal reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gates
from .linalg import CompositeSpace, UnitaryGate, _integer, dag, exp_unitary, tensor

_KINDS = ("linear_coupling", "dispersive_cps", "ion_qnd")


@dataclass(frozen=True)
class HamiltonianSpec:
    """One interaction Hamiltonian plus cutoff and interaction time.

    The coupling and the time must be finite and positive (NaN is refused),
    the cutoff an integer >= 2; a numpy integer is stored as ``int``.
    """

    kind: str
    coupling: float
    cutoff: int
    interaction_time: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown Hamiltonian kind {self.kind!r}")
        if not 0 < self.coupling < math.inf:  # NaN fails it too
            raise ValueError(f"coupling constant must be finite and positive, got {self.coupling!r}")
        if not 0 < self.interaction_time < math.inf:
            raise ValueError(f"interaction time must be finite and positive, got {self.interaction_time!r}")
        object.__setattr__(self, "cutoff", _integer("cutoff", self.cutoff))
        if self.cutoff < 2:
            raise ValueError("cutoff must be at least 2")


def linear_coupling(xi: float, cutoff: int, interaction_time: float | None = None) -> HamiltonianSpec:
    """Mode-mixing interaction; default time pi/(4 xi) gives the 50:50 coupler."""
    t = math.pi / (4.0 * xi) if interaction_time is None else interaction_time
    return HamiltonianSpec("linear_coupling", xi, cutoff, t)


def dispersive_cps(kappa: float, cutoff: int, interaction_time: float | None = None) -> HamiltonianSpec:
    """Dispersive ancilla-mode interaction; default time pi/kappa gives the CPS."""
    t = math.pi / kappa if interaction_time is None else interaction_time
    return HamiltonianSpec("dispersive_cps", kappa, cutoff, t)


def ion_qnd(omega: float, cutoff: int, interaction_time: float | None = None) -> HamiltonianSpec:
    """Ion QND-type interaction; default time pi/(2 omega)."""
    t = math.pi / (2.0 * omega) if interaction_time is None else interaction_time
    return HamiltonianSpec("ion_qnd", omega, cutoff, t)


def build_hamiltonian(spec: HamiltonianSpec) -> np.ndarray:
    """Hermitian generator of the interaction, in angular-frequency units.

    Spaces: two modes for ``linear_coupling``; (ancilla, mode) for
    ``dispersive_cps`` and ``ion_qnd`` with the ancilla leftmost.
    """
    d = spec.cutoff
    n = gates.number_op(d)
    if spec.kind == "linear_coupling":
        a = gates.annihilation(d)
        ad = dag(a)
        return 1j * spec.coupling * (tensor(ad, a) - tensor(a, ad))
    if spec.kind == "dispersive_cps":
        p_up = np.diag([1.0, 0.0]).astype(complex)
        return spec.coupling * tensor(p_up, n)
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return spec.coupling * tensor(sigma_x, n)


def realize_gate(spec: HamiltonianSpec) -> UnitaryGate:
    """Evolve under the interaction for its prescribed time.

    With the default times this reproduces the ideal gates exactly: the
    50:50 coupler from ``linear_coupling`` and the controlled phase shift
    from ``dispersive_cps``.
    """
    h = build_hamiltonian(spec)
    d = spec.cutoff
    space = CompositeSpace((d, d) if spec.kind == "linear_coupling" else (2, d))
    return exp_unitary(h, spec.interaction_time, space)

