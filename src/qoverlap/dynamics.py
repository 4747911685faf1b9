"""Interaction Hamiltonians that realize the device's gates by time evolution.

Three effective interactions are supported.  ``_DEFAULT_ANGLE`` is their one
table: each kind's default coupling*time (couplings are angular frequencies,
hbar absorbed, so only that product matters), which over the coupling is the
time a builder sets when given none.  A spec within ``_DEFAULT_ULPS`` = 4
ulps of it is :attr:`HamiltonianSpec.at_default`:

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
(see :mod:`qoverlap.protocol`) and this module holds only the specs;
:func:`qoverlap.reference.realize_gate` evolves the dense Hamiltonian and
serves as the literal reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .linalg import _count

# xi * ((pi / 4) / xi) is pi / 4 only to within an ulp, hence the tolerance.
_DEFAULT_ANGLE = {"linear_coupling": math.pi / 4, "dispersive_cps": math.pi, "ion_qnd": math.pi / 2}
_DEFAULT_ULPS = 4


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
        if self.kind not in _DEFAULT_ANGLE:
            raise ValueError(f"unknown Hamiltonian kind {self.kind!r}")
        _coupling(self.coupling)
        if not 0 < self.interaction_time < math.inf:
            raise ValueError(f"interaction time must be finite and positive, got {self.interaction_time!r}")
        object.__setattr__(self, "cutoff", _count("cutoff", self.cutoff, 2))

    @property
    def at_default(self) -> bool:
        """Whether coupling * time is the kind's default angle, within ``_DEFAULT_ULPS`` ulps."""
        target = _DEFAULT_ANGLE[self.kind]
        return abs(self.coupling * self.interaction_time - target) <= _DEFAULT_ULPS * math.ulp(target)


def _coupling(value: float) -> float:
    """``value``, refused unless finite and positive; :func:`_spec` checks it before dividing by it."""
    if not 0 < value < math.inf:  # NaN fails it too
        raise ValueError(f"coupling constant must be finite and positive, got {value!r}")
    return value


def _spec(kind: str, coupling: float, cutoff: int, interaction_time: float | None) -> HamiltonianSpec:
    """The spec of ``kind``; without a time, the default angle over the coupling."""
    if interaction_time is None:
        interaction_time = _DEFAULT_ANGLE[kind] / _coupling(coupling)
        if interaction_time == math.inf:
            raise ValueError(f"coupling constant {coupling!r} is too small: its default time overflows")
    return HamiltonianSpec(kind, coupling, cutoff, interaction_time)


def linear_coupling(xi: float, cutoff: int, interaction_time: float | None = None) -> HamiltonianSpec:
    """Mode-mixing interaction; default time pi/(4 xi) gives the 50:50 coupler."""
    return _spec("linear_coupling", xi, cutoff, interaction_time)


def dispersive_cps(kappa: float, cutoff: int, interaction_time: float | None = None) -> HamiltonianSpec:
    """Dispersive ancilla-mode interaction; default time pi/kappa gives the CPS."""
    return _spec("dispersive_cps", kappa, cutoff, interaction_time)


def ion_qnd(omega: float, cutoff: int, interaction_time: float | None = None) -> HamiltonianSpec:
    """Ion QND-type interaction; default time pi/(2 omega)."""
    return _spec("ion_qnd", omega, cutoff, interaction_time)
