"""Dense complex linear algebra for density matrices on composite spaces.

Everything here works on plain ``numpy`` arrays of ``complex128``; the thin
dataclasses only pin down the subsystem structure (which tensor factor is
which) and the invariants a state must satisfy.

Index convention: for a :class:`CompositeSpace` with ``dims = (d0, d1, ...)``
the leftmost subsystem is the slowest-varying index, i.e. the basis vector
``|i0, i1, ...>`` sits at flat index ``i0*d1*... + i1*... + ...`` and tensor
products are plain Kronecker products in the same order.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

# Tolerances used throughout: algebraic identities are held to 1e-10,
# eigensolver-derived quantities to 1e-9.
ATOL_ALGEBRA = 1e-10
ATOL_EIG = 1e-9


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


@dataclass(frozen=True)
class CompositeSpace:
    """Ordered list of subsystem dimensions fixing the tensor index layout.

    The ancilla qubit, when present, is always the leftmost factor with
    dimension 2; bosonic modes carry their Fock cutoff as dimension.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple([_count("subsystem dimension", d, 2) for d in self.dims])
        object.__setattr__(self, "dims", dims)
        if len(dims) == 0:
            raise ValueError("CompositeSpace needs at least one subsystem")

    @property
    def dim(self) -> int:
        """Total dimension (product of subsystem dimensions)."""
        return math.prod(self.dims)

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)


@functools.lru_cache(maxsize=32)  # checked spaces kept per process, one per dims
def _checked_space(dims: tuple[int, ...]) -> CompositeSpace:
    """``CompositeSpace(dims)``, checked once per process for dims of int."""
    return CompositeSpace(dims)


def _integer(name: str, value) -> int:
    """``value`` as an int: numpy integers pass, bools and non-integers raise ``TypeError``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def _count(name: str, value, least: int, most: int | None = None) -> int:
    """``value`` as an int in [``least``, ``most``]; bools and non-integers raise ``TypeError``."""
    count = _integer(name, value)
    if count < least:
        raise ValueError(f"{name} must be at least {least}, got {count}")
    if most is not None and count > most:
        raise ValueError(f"{name} must be at most {most}, got {count}")
    return count


def _as_square_matrix(m) -> np.ndarray:
    mat = np.asarray(m, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def _refuse_non_finite(mat: np.ndarray) -> None:
    if not np.isfinite(mat).all():  # both parts of every entry
        raise ValueError("matrix contains non-finite entries")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive operator on a composite space.

    Construction checks Hermiticity and unit trace (cheap, O(d^2)).  The
    positivity floor (min eigenvalue >= -1e-9) costs a full eigensolve and is
    checked only by :meth:`validate`, which no constructor calls; the tests
    call it on the states the constructors hand out.  The device refuses an
    input whose fringe coefficient |Tr(W_rel rho)| exceeds
    max(1, Tr rho) + 1e-12: the trace is read only when |c| exceeds 1, so an
    input of trace just under 1 keeps the bound 1.

    Two states derived from a checked one skip the checks
    (:func:`_derived_state`): the device's unconditional post-state and its
    mode-0 reduced state, each formed from the checked input as a real
    multiple of M + M^dag.  Such a sum is Hermitian in every bit, and its
    trace is the input's up to rounding; for the reduced state of a product
    that is Tr(a) Tr(b), which may sit up to about twice the trace tolerance
    from 1, so rebuilding it through ``DensityMatrix(...)`` can raise.
    Every matrix from outside, the ``states`` constructors and the parser's
    included, keeps every check.

    A state on two modes of one cutoff d answers a device run's five reads
    (:class:`ProductState` answers them too) through views of ``mat``, with
    no copy: :meth:`flip_trace`, :meth:`live_sectors`, :meth:`sector_trace`,
    :meth:`populations` and :meth:`dense`.  They are valid only on such a
    pair, which ``protocol._require_mode_pair`` checks before any of them;
    ``sectors`` is ``gates.number_sectors(d)``, ``sector`` one of its entries.
    """

    space: CompositeSpace
    mat: np.ndarray

    def __post_init__(self):
        mat = _as_square_matrix(self.mat)
        object.__setattr__(self, "mat", mat)
        # The Hermiticity residual is NaN or inf when an entry is not finite
        # (inf - inf is NaN, hence the errstate), so it doubles as the
        # finiteness test and np.isfinite only picks the message.  The checks
        # keep their order: finiteness, dimension, Hermiticity, trace; the
        # initial 0 lets an empty matrix reach the dimension check.
        with np.errstate(invalid="ignore"):
            hermitian = np.abs(mat - dag(mat)).max(initial=0.0) <= ATOL_ALGEBRA
        if not hermitian:
            _refuse_non_finite(mat)
        if mat.shape[0] != self.space.dim:
            raise ValueError(
                f"matrix dimension {mat.shape[0]} does not match space {self.space.dims}"
            )
        if not hermitian:
            raise ValueError("density matrix is not Hermitian within 1e-10")
        trace = mat.trace()
        if abs(trace.real - 1.0) > ATOL_ALGEBRA or abs(trace.imag) > ATOL_ALGEBRA:
            raise ValueError("density matrix trace differs from 1 by more than 1e-10")

    @property
    def dim(self) -> int:
        return self.space.dim

    def validate(self) -> "DensityMatrix":
        """Full invariant check including the eigenvalue floor; returns self."""
        w = np.linalg.eigvalsh(self.mat)
        if w.min() < -ATOL_EIG:
            raise ValueError(f"density matrix has eigenvalue {w.min():.3e} < -1e-9")
        return self

    def flip_trace(self) -> complex:
        """Tr(S rho), S the swap of the two modes."""
        return np.einsum("ijji", self.mat.reshape(self.space.dims * 2))

    def live_sectors(self, patched: range, sectors) -> list[int]:
        """The sectors k in ``patched`` whose diagonal block is not all 0."""
        return [k for k in patched if self.mat[sectors[k].idx, sectors[k].idx].any()]

    def sector_trace(self, patch: np.ndarray, sector) -> complex:
        """Tr(patch rho_NN) on one sector."""
        return np.dot(patch.T.ravel(), self.mat[sector.idx, sector.idx].ravel())

    def populations(self) -> np.ndarray:
        """The diagonal as an array of the space's shape, p[n0, n1]."""
        return np.diag(self.mat).real.reshape(self.space.dims)

    def dense(self) -> np.ndarray:
        """The d^2 x d^2 matrix: ``mat`` itself."""
        return self.mat


def _derived_state(space: CompositeSpace, mat: np.ndarray) -> DensityMatrix:
    """A DensityMatrix built without ``__post_init__``'s checks.

    Only for the device's two post-states, complex square matrices derived
    from a checked state as a real multiple of M + M^dag (class docstring).
    """
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "space", space)
    object.__setattr__(rho, "mat", mat)
    return rho


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of two or more matrices, leftmost factor slowest."""
    if len(ops) < 2:
        raise ValueError("tensor needs at least two factors")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def tensor_states(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Product state of two density matrices, subsystem lists concatenated."""
    return DensityMatrix(CompositeSpace(a.space.dims + b.space.dims), tensor(a.mat, b.mat))


@dataclass(frozen=True)
class ProductState:
    """Product state ``a (x) b`` kept as its two factors.

    The factors are its two modes: ``space`` is ``(a.dim, b.dim)``, whatever
    subsystems each factor has, so two Werner states are two modes of
    dimension 4 (``tensor_states`` keeps every subsystem).  It answers the
    device run's five reads of :class:`DensityMatrix` from the factors, with
    the same validity: a sector's trace from two factor blocks, the others
    in O(d^2) but :meth:`dense`, the only one to form the d^2 x d^2 matrix.
    Only a product answers the reduced post-state's two reads: a sector's
    rows, O(d^2) per row, and the base partial trace, O(d^2).
    """

    a: DensityMatrix
    b: DensityMatrix

    @functools.cached_property
    def space(self) -> CompositeSpace:
        return _checked_space((self.a.dim, self.b.dim))

    def flip_trace(self) -> complex:
        return (self.a.mat * self.b.mat.T).sum()  # Tr(S (a x b)) = Tr(a b)

    @functools.cached_property
    def _live_pairs(self) -> list[bool]:
        # Row |n0, n1> is a[n0] (x) b[n1], not all 0 only if both factor rows
        # are not.  Entry N says whether sector N has such a row; a nonzero
        # diagonal block needs one, so the sweep and the reduced post-state
        # read the same list.  Populations would not tell it: DensityMatrix
        # does not check positivity.
        return np.convolve(self.a.mat.any(axis=1), self.b.mat.any(axis=1)).tolist()

    def live_sectors(self, patched: range, sectors) -> list[int]:
        pairs = self._live_pairs
        return [k for k in patched if pairs[k]]

    def sector_trace(self, patch: np.ndarray, sector) -> complex:
        return np.einsum("ij,ji,ji->", patch, self.a.mat[sector.n0, sector.n0], self.b.mat[sector.n1, sector.n1])

    def sector_rows(self, sector) -> np.ndarray:
        rows = self.a.mat[sector.n0, :, None] * self.b.mat[sector.n1, None, :]
        return rows.reshape(len(rows), -1)

    def base_partial_trace(self, flip: bool) -> np.ndarray:
        a, b = (self.b.mat, self.a.mat) if flip else (self.a.mat, self.b.mat)
        return b.trace() * a

    def populations(self) -> np.ndarray:
        return self.a.mat.diagonal().real[:, None] * self.b.mat.diagonal().real

    def dense(self) -> np.ndarray:
        return tensor(self.a.mat, self.b.mat)
