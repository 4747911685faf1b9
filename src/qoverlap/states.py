"""Constructors for the input states used by the measurement device.

Bosonic states live on a truncated Fock space of per-mode dimension
``cutoff``; coherent and thermal states are renormalized after truncation so
every constructor output is an exact density matrix.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .linalg import CompositeSpace, DensityMatrix, _count, _integer

RNG_ALGORITHM = "philox4x64-10"


# One Philox generator per thread, re-keyed by :func:`_streams`.
_PHILOX = threading.local()


def _keyed(seed: int, k: int = 0) -> np.random.Generator:
    """The Philox stream keyed by (seed mod 2**64, k), at counter 0.

    Counter-based Philox keyed directly by the user seed is reproducible
    across platforms and numpy versions, and independent streams are just
    different keys.  A stream is fixed by its key, so one generator per
    thread is re-keyed on every call: it draws what a fresh
    ``Philox(key=[seed mod 2**64, k])`` would, without building one (most
    of that cost is a ``SeedSequence`` that a keyed generator never reads).
    The generator is valid until the next call in the same thread.
    """
    return next(_streams(seed, k))


def _streams(seed: int, k: int = 0):
    """The streams keyed by (seed mod 2**64, k), (seed mod 2**64, k + 1), ...

    Each is this thread's one generator re-keyed at counter 0, as from
    :func:`_keyed`, and valid until the next one is drawn or another call
    in the same thread re-keys it.  ``seed`` is an integer, a numpy one
    included; bools, floats and strings raise ``TypeError`` at the first
    draw.
    """
    seed = _integer("seed", seed) % 2**64
    try:
        bits, fresh, rng = _PHILOX.stream
    except AttributeError:
        bits = np.random.Philox(key=0)
        fresh = bits.state
        # as plain ints, which the state setter reads faster than array items
        fresh["state"] = {name: words.tolist() for name, words in fresh["state"].items()}
        fresh["buffer"] = fresh["buffer"].tolist()
        rng = np.random.Generator(bits)
        _PHILOX.stream = bits, fresh, rng
    key = fresh["state"]["key"]
    while True:
        key[0], key[1] = seed, k
        bits.state = fresh  # counter 0, empty buffer
        yield rng
        k += 1


def fock_ket(n: int, cutoff: int) -> np.ndarray:
    """Number state |n> as a vector of length ``cutoff``."""
    cutoff = _count("cutoff", cutoff, 2)
    n = _integer("Fock level", n)
    if not 0 <= n < cutoff:
        raise ValueError(f"Fock level n={n} outside [0, {cutoff})")
    v = np.zeros(cutoff, dtype=complex)
    v[n] = 1.0
    return v


def coherent_ket(alpha: complex, cutoff: int) -> np.ndarray:
    """Truncated coherent state, renormalized to unit norm.

    Amplitudes are proportional to ``alpha^n / sqrt(n!)``; the overall scale
    is fixed by normalization on the truncated space rather than the usual
    ``exp(-|alpha|^2/2)`` so the state stays exactly normalized.
    """
    cutoff = _count("cutoff", cutoff, 2)
    v = np.zeros(cutoff, dtype=complex)
    amp = 1.0 + 0j
    v[0] = amp
    for n in range(1, cutoff):
        amp = amp * alpha / math.sqrt(n)
        v[n] = amp
    return v / np.linalg.norm(v)


def pure(vector, dims: tuple[int, ...] | None = None) -> DensityMatrix:
    """Density matrix |v><v| of a state vector, normalized first.

    ``dims`` fixes the subsystem split; by default the vector is treated as a
    single subsystem.
    """
    v = np.asarray(vector, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    if norm == 0 or not math.isfinite(norm):
        raise ValueError("pure state vector must have nonzero finite norm")
    v = v / norm
    space = CompositeSpace(dims if dims is not None else (v.size,))
    if space.dim != v.size:
        raise ValueError(f"vector length {v.size} does not match dims {space.dims}")
    return DensityMatrix(space, v[:, None] * v.conj())  # the outer product


def fock(n: int, cutoff: int) -> DensityMatrix:
    """Number-state density matrix |n><n| on one truncated mode."""
    return pure(fock_ket(n, cutoff))


def coherent(alpha: complex, cutoff: int) -> DensityMatrix:
    """Truncated, renormalized coherent state on one mode."""
    return pure(coherent_ket(alpha, cutoff))


def thermal(nbar: float, cutoff: int) -> DensityMatrix:
    """Truncated thermal state with mean photon number ``nbar``.

    Diagonal weights proportional to ``nbar^n / (1+nbar)^(n+1)``,
    renormalized after truncation.
    """
    cutoff = _count("cutoff", cutoff, 2)
    if nbar < 0:
        raise ValueError("mean photon number must be nonnegative")
    ratio = nbar / (1.0 + nbar)
    w = np.empty(cutoff)
    w[0] = 1.0
    for n in range(1, cutoff):
        w[n] = w[n - 1] * ratio
    w /= w.sum()
    return DensityMatrix(CompositeSpace((cutoff,)), np.diag(w).astype(complex))


def singlet_ket() -> np.ndarray:
    """Two-qubit singlet (|01> - |10>)/sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0 / math.sqrt(2)
    v[2] = -1.0 / math.sqrt(2)
    return v


def bell_singlet() -> DensityMatrix:
    """Projector onto the two-qubit singlet, on a (2, 2) space."""
    return pure(singlet_ket(), dims=(2, 2))


def classical_correlated() -> DensityMatrix:
    """Maximally classically correlated two-qubit state (|01><01| + |10><10|)/2."""
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = 0.5
    m[2, 2] = 0.5
    return DensityMatrix(CompositeSpace((2, 2)), m)


def werner(p: float) -> DensityMatrix:
    """Werner family ``p * singlet + (1-p) * I/4``; entangled iff p > 1/3."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"werner mixing parameter must be in [0, 1], got {p}")
    s = singlet_ket()
    m = p * np.outer(s, s.conj()) + (1.0 - p) * np.eye(4) / 4.0
    return DensityMatrix(CompositeSpace((2, 2)), m)


def ginibre_mixed(dim: int, rank: int, seed: int, dims: tuple[int, ...] | None = None) -> DensityMatrix:
    """Random mixed state ``G G^dag / Tr(G G^dag)`` with G complex Gaussian.

    ``G`` is ``dim x rank`` with independent standard-normal real and
    imaginary parts (real part drawn first), drawn from the Philox stream
    keyed by (seed mod 2**64, 0), re-keyed for each call
    (:func:`_keyed`), so identical seeds give identical states everywhere.
    """
    rank = _count("rank", rank, 1)
    dim = _count("dimension", dim, 2)
    rng = _keyed(seed)
    space = CompositeSpace(dims if dims is not None else (dim,))
    if space.dim != dim:
        raise ValueError(f"dims {space.dims} do not multiply to {dim}")
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    m /= m.trace().real
    return DensityMatrix(space, m)
