"""Unitaries and projectors of the interferometric overlap device.

Conventions, fixed once here and relied on everywhere else:

* Ancilla basis order is (|up>, |dn>).  The ancilla "Hadamard" is the
  asymmetric rotation |up> -> (|up> + |dn>)/sqrt(2),
  |dn> -> (|dn> - |up>)/sqrt(2), i.e. a rotation by pi/4, not the symmetric
  Hadamard; applying it twice maps |up> -> |dn> and |dn> -> -|up>.
* The 50:50 mode coupler is ``exp[(pi/4)(a0^dag a1 - a1^dag a0)]``.  With
  this sign, conjugating a pi-per-photon phase on mode 1 by the coupler
  (coupler, phase, inverse coupler) swaps the two modes exactly on every
  total-photon-number sector that survives truncation; putting the phase on
  mode 0 instead leaves an extra (-1)^(total photon number) behind.
* The controlled phase shift multiplies Fock level n of its target mode by
  (-1)^n when the ancilla is |up> and does nothing for |dn>.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    ATOL_ALGEBRA,
    CompositeSpace,
    UnitaryGate,
    dag,
    tensor,
)


def annihilation(cutoff: int) -> np.ndarray:
    """Truncated bosonic annihilation operator ``a|n> = sqrt(n)|n-1>``."""
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    m = np.zeros((cutoff, cutoff), dtype=complex)
    for n in range(1, cutoff):
        m[n - 1, n] = math.sqrt(n)
    return m


def number_op(cutoff: int) -> np.ndarray:
    """Photon number operator ``diag(0, 1, ..., cutoff-1)``."""
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    return np.diag(np.arange(cutoff, dtype=float)).astype(complex)


def hadamard() -> UnitaryGate:
    """Ancilla rotation: |up> -> (|up>+|dn>)/sqrt(2), |dn> -> (|dn>-|up>)/sqrt(2).

    Note the asymmetry: the |dn> column carries -|up>.  This makes the gate a
    proper rotation (determinant +1) rather than the symmetric Hadamard, and
    fixes which detector shows which fringe downstream.
    """
    m = np.array([[1.0, -1.0], [1.0, 1.0]], dtype=complex) / math.sqrt(2)
    return UnitaryGate(CompositeSpace((2,)), m)


def phase_shift(psi: float) -> UnitaryGate:
    """Ancilla phase gate ``diag(exp(i psi), 1)`` in (|up>, |dn>) order."""
    m = np.diag([np.exp(1j * psi), 1.0]).astype(complex)
    return UnitaryGate(CompositeSpace((2,)), m)


def number_sectors(cutoff: int) -> tuple[np.ndarray, ...]:
    """Flat two-mode indices ``n0*cutoff + n1`` of each total-photon-number sector.

    Entry N lists the basis states with n0 + n1 = N (N = 0 .. 2 cutoff - 2)
    in order of increasing n0; sectors hold at most ``cutoff`` states.  Every
    coupler and every Fock-diagonal phase maps each sector into itself.
    """
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    sectors = []
    for total in range(2 * cutoff - 1):
        n0 = np.arange(max(0, total - cutoff + 1), min(total, cutoff - 1) + 1)
        sectors.append(n0 * cutoff + (total - n0))
    return tuple(sectors)


# Cutoffs whose sector eigensystems are kept per process; an entry holds as
# many numbers as one compiled branch, O(cutoff^3).
_EIGENSYSTEM_CACHE_SIZE = 8


@functools.lru_cache(maxsize=_EIGENSYSTEM_CACHE_SIZE)
def _coupler_eigensystems(cutoff: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Eigenpairs ``(w, v)`` of the coupler generator on each number sector.

    The generator does not depend on the coupling angle, so every coupler
    at one cutoff shares them; cached per cutoff, as read-only arrays.
    """
    pairs = []
    for idx in number_sectors(cutoff):
        n0, n1 = np.divmod(idx[:-1], cutoff)
        # Hermitian generator h with exp(-i h theta) = exp[theta (a0^dag a1 - a1^dag a0)]:
        # <n0+1, n1-1| h |n0, n1> = i sqrt((n0+1) n1)
        h = np.diag(1j * np.sqrt((n0 + 1.0) * n1), -1)
        h += dag(h)
        w, v = np.linalg.eigh(h)
        w.flags.writeable = False
        v.flags.writeable = False
        pairs.append((w, v))
    return tuple(pairs)


def coupler_blocks(cutoff: int, theta: float) -> list[np.ndarray]:
    """Coupler ``exp[theta (a0^dag a1 - a1^dag a0)]`` as its sector blocks.

    Block N acts on the states ``number_sectors(cutoff)[N]``; the coupler
    has no entries between sectors.  Each block is the exponential of the
    truncated generator restricted to its sector (tridiagonal, at most
    cutoff x cutoff) from its eigensystem, so it is exactly unitary.  One
    eigensolve per sector serves every ``theta`` at a cutoff (a lossless
    coupler is an SU(2) rotation whose eigenvectors do not depend on the
    angle).  ``-theta`` gives the inverse coupler.
    """
    return [(v * np.exp(-1j * theta * w)) @ dag(v) for w, v in _coupler_eigensystems(cutoff)]


def beamsplitter(cutoff: int) -> UnitaryGate:
    """50:50 coupler ``exp[(pi/4)(a0^dag a1 - a1^dag a0)]`` on two modes.

    Built from :func:`coupler_blocks`, the exponential of the generator
    truncated to ``cutoff`` levels per mode, so it is exactly unitary on the
    truncated space.  It agrees with the untruncated coupler on all sectors
    of total photon number <= cutoff-1 (the generator never leaves such a
    sector); higher sectors see truncation leakage.
    """
    m = np.zeros((cutoff * cutoff, cutoff * cutoff), dtype=complex)
    for idx, block in zip(number_sectors(cutoff), coupler_blocks(cutoff, math.pi / 4)):
        m[np.ix_(idx, idx)] = block
    return UnitaryGate(CompositeSpace((cutoff, cutoff)), m)


def number_phase(theta: float, cutoff: int) -> UnitaryGate:
    """Phase ``exp(i theta n)`` on each Fock level of one mode."""
    m = np.diag(np.exp(1j * theta * np.arange(cutoff))).astype(complex)
    return UnitaryGate(CompositeSpace((cutoff,)), m)


def cps(cutoff: int, target_mode: int = 1) -> UnitaryGate:
    """Controlled phase shift on the full (ancilla, mode 0, mode 1) space.

    Multiplies Fock level n of ``target_mode`` by (-1)^n when the ancilla is
    |up>; acts as the identity when the ancilla is |dn>.  The default target
    is mode 1, the choice for which coupler-conjugation yields the exact
    controlled swap (see module docstring).
    """
    if target_mode not in (0, 1):
        raise ValueError("target_mode must be 0 or 1")
    parity = number_phase(math.pi, cutoff).mat
    ident = np.eye(cutoff)
    phase = tensor(parity, ident) if target_mode == 0 else tensor(ident, parity)
    p_up = np.diag([1.0, 0.0]).astype(complex)
    p_dn = np.diag([0.0, 1.0]).astype(complex)
    m = tensor(p_up, phase) + tensor(p_dn, np.eye(cutoff * cutoff))
    return UnitaryGate(CompositeSpace((2, cutoff, cutoff)), m)


def flip_operator(d: int) -> np.ndarray:
    """Swap (flip) operator on two d-dimensional systems: S(x (x) y) = y (x) x.

    Hermitian and involutive, with eigenvalue +1 on the symmetric subspace
    (dimension d(d+1)/2) and -1 on the antisymmetric one (d(d-1)/2).  Its
    expectation in a product state is the overlap of the factors.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    s = np.zeros((d * d, d * d), dtype=complex)
    idx = np.arange(d * d)
    i, j = np.divmod(idx, d)
    s[idx, j * d + i] = 1.0
    return s


def controlled_swap_ideal(cutoff: int) -> UnitaryGate:
    """Exact controlled swap: |dn>|a,b> -> |dn>|a,b>, |up>|a,b> -> |up>|b,a>.

    This is the exact finite-dimensional idealization of the physical
    coupler / controlled-phase / inverse-coupler sandwich, valid on all Fock
    levels of the truncated space.
    """
    p_up = np.diag([1.0, 0.0]).astype(complex)
    p_dn = np.diag([0.0, 1.0]).astype(complex)
    m = tensor(p_up, flip_operator(cutoff)) + tensor(p_dn, np.eye(cutoff * cutoff))
    return UnitaryGate(CompositeSpace((2, cutoff, cutoff)), m)


@dataclass(frozen=True)
class PovmPair:
    """Projectors onto the symmetric / antisymmetric two-system subspaces.

    ``pi_plus + pi_minus = I`` and ``pi_plus - pi_minus`` equals the flip
    operator, so the dichotomic variable they define has expectation equal
    to the flip expectation.
    """

    pi_plus: np.ndarray
    pi_minus: np.ndarray

    def validate(self, atol: float = ATOL_ALGEBRA) -> "PovmPair":
        d2 = self.pi_plus.shape[0]
        for p in (self.pi_plus, self.pi_minus):
            if np.abs(p - dag(p)).max() > atol or np.abs(p @ p - p).max() > atol:
                raise ValueError("POVM element is not an orthogonal projector")
        if np.abs(self.pi_plus + self.pi_minus - np.eye(d2)).max() > atol:
            raise ValueError("POVM elements do not sum to the identity")
        return self


def povm_projectors(d: int) -> PovmPair:
    """Build the symmetric/antisymmetric projector pair from explicit vectors.

    Off-diagonal symmetric vectors (|n,m> + |m,n>)/sqrt(2) with n > m plus
    the diagonal |n,n> projectors form pi_plus; the antisymmetric
    (|n,m> - |m,n>)/sqrt(2) form pi_minus.  Constructed from the vectors
    rather than from the flip operator so the identity
    ``pi_plus - pi_minus = flip`` stays a real consistency check.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    pi_plus = np.zeros((d * d, d * d), dtype=complex)
    pi_minus = np.zeros((d * d, d * d), dtype=complex)
    for n in range(d):
        v = np.zeros(d * d, dtype=complex)
        v[n * d + n] = 1.0
        pi_plus += np.outer(v, v.conj())
        for m in range(n):
            e_nm = np.zeros(d * d, dtype=complex)
            e_mn = np.zeros(d * d, dtype=complex)
            e_nm[n * d + m] = 1.0
            e_mn[m * d + n] = 1.0
            plus = (e_nm + e_mn) / math.sqrt(2)
            minus = (e_nm - e_mn) / math.sqrt(2)
            pi_plus += np.outer(plus, plus.conj())
            pi_minus += np.outer(minus, minus.conj())
    return PovmPair(pi_plus, pi_minus)
