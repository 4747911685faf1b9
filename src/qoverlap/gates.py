"""The number sectors of two modes and the 50:50 coupler's blocks on them.

Every gate of the device conserves the total photon number, so the device
writes each one sector by sector; the dense full-space gates are built only in
:mod:`qoverlap.reference`, for the tests.  Conventions, fixed once here and
relied on everywhere else:

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
from typing import Iterator, NamedTuple

import numpy as np

from .linalg import _count


class Sector(NamedTuple):
    idx: slice  # flat two-mode indices n0*cutoff + n1
    n0: slice  # mode-0 levels, upward
    n1: slice  # mode-1 levels, downward


# Cutoffs whose sector table and coupler eigensystems are kept per process;
# the eigensystems of all sectors hold (2 cutoff^2 + 1) cutoff / 3 real numbers.
_CUTOFF_CACHE_SIZE = 8


@functools.lru_cache(maxsize=_CUTOFF_CACHE_SIZE, typed=True)  # so 3.0 never finds np.int64(3)
def number_sectors(cutoff: int) -> tuple[Sector, ...]:
    """The states |n0, N - n0> of each total photon number N, as slices.

    Entry N (N = 0 .. 2 cutoff - 2) lists the states in order of increasing
    n0, at most ``cutoff`` of them; their flat indices N + n0 (cutoff - 1)
    step by cutoff - 1, so every read of a sector is a view.  Every coupler
    and every Fock-diagonal phase maps each sector into itself.
    """
    cutoff = _count("cutoff", cutoff, 2)
    sectors = []
    for total in range(2 * cutoff - 1):
        lo, hi = max(0, total - cutoff + 1), min(total, cutoff - 1)
        sectors.append(Sector(
            slice(total + lo * (cutoff - 1), total + hi * (cutoff - 1) + 1, cutoff - 1),
            slice(lo, hi + 1),
            slice(total - lo, total - hi - 1 if total > hi else None, -1),
        ))
    return tuple(sectors)


@functools.lru_cache(maxsize=_CUTOFF_CACHE_SIZE)
def _coupler_eigensystems(cutoff: int) -> list[tuple[np.ndarray, np.ndarray] | None]:
    """One slot per number sector for the coupler generator's eigenpairs.

    :func:`_coupler_eigensystem` solves a sector on first use and fills its
    slot; cached per cutoff.
    """
    return [None] * (2 * cutoff - 1)


def _coupler_eigensystem(cutoff: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs ``(w, v)`` of the coupler generator on number sector k.

    On a sector the Hermitian generator h, with exp(-i h theta) =
    exp[theta (a0^dag a1 - a1^dag a0)], is D T D^dag: D = diag(i^j) and T
    real symmetric tridiagonal, <n0+1, n1-1| T |n0, n1> = sqrt((n0+1) n1).
    ``(w, v)`` are T's, so ``v`` is real.  The generator does not depend on
    the coupling angle, so every coupler at one cutoff shares them; each is
    solved once, on first use, and kept as read-only arrays.
    """
    slots = _coupler_eigensystems(cutoff)
    if slots[k] is None:
        sector = number_sectors(cutoff)[k]
        levels = np.arange(cutoff)
        n0, n1 = levels[sector.n0][:-1], levels[sector.n1][:-1]
        off = np.sqrt((n0 + 1.0) * n1)
        w, v = np.linalg.eigh(np.diag(off, -1) + np.diag(off, 1))
        w.flags.writeable = False
        v.flags.writeable = False
        slots[k] = (w, v)
    return slots[k]


def coupler_blocks(cutoff: int, theta: float, sectors: range | None = None) -> Iterator[np.ndarray]:
    """Coupler ``exp[theta (a0^dag a1 - a1^dag a0)]`` as its sector blocks.

    Block N acts on the states ``number_sectors(cutoff)[N].idx``; the coupler
    has no entries between sectors.  ``sectors`` picks the blocks returned
    (all 2 cutoff - 1 by default), and only those sectors are solved.  Each
    block is the exponential of the truncated generator restricted to its
    sector (tridiagonal, at most cutoff x cutoff) from its eigensystem, so it
    is exactly unitary, and real: the generator is real.  One eigensolve per
    sector serves every ``theta`` at a cutoff (a lossless coupler is an
    SU(2) rotation whose eigenvectors do not depend on the angle).
    ``-theta`` gives the inverse coupler.  Blocks are made one at a time, as
    the caller iterates.
    """
    for k in range(2 * cutoff - 1) if sectors is None else sectors:
        w, v = _coupler_eigensystem(cutoff, k)
        # The real part of D v exp(-i theta w) v^T D^dag, D = diag(i^j): with
        # i^j = (-1)^(j // 2) i^(j % 2) and u = diag((-1)^(j // 2)) v it is
        # u cos(theta w) u^T, plus (j_a % 2 - j_b % 2) u sin(theta w) u^T
        # between states of opposite parity (T couples only those).
        j = np.arange(len(w))
        u = v * (1 - 2 * (j // 2 % 2))[:, None]
        parity = j % 2
        yield (u * np.cos(theta * w)) @ u.T + np.subtract.outer(parity, parity) * ((u * np.sin(theta * w)) @ u.T)
