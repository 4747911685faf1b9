"""Dense complex linear algebra for density matrices on composite spaces.

Everything here works on plain ``numpy`` arrays of ``complex128``; the thin
dataclasses only pin down the subsystem structure (which tensor factor is
which) and the invariants a state or gate must satisfy.

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
        dims = tuple(map(int, self.dims))
        object.__setattr__(self, "dims", dims)
        if len(dims) == 0:
            raise ValueError("CompositeSpace needs at least one subsystem")
        if min(dims) < 2:
            raise ValueError(f"every subsystem dimension must be >= 2, got {dims}")

    @property
    def dim(self) -> int:
        """Total dimension (product of subsystem dimensions)."""
        return math.prod(self.dims)

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)


def _integer(name: str, value) -> int:
    """``value`` as an int: numpy integers pass, bools and non-integers raise ``TypeError``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def _as_square_matrix(m) -> np.ndarray:
    mat = np.asarray(m, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def _refuse_non_finite(mat: np.ndarray) -> None:
    if not np.isfinite(mat).all():  # both parts of every entry
        raise ValueError("matrix contains non-finite entries")


def _as_complex_matrix(m) -> np.ndarray:
    mat = _as_square_matrix(m)
    _refuse_non_finite(mat)
    return mat


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

    A state on two modes of one cutoff d answers the device kernel's reads
    (:class:`ProductState` answers the same ones), each through views of
    ``mat`` with no copy of it: :meth:`flip_trace`, :meth:`live_sectors`,
    :meth:`sector_trace`, :meth:`sector_rows`, :meth:`base_partial_trace`,
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

    def live_sectors(self, patched: range, sectors, rows: bool = False) -> list[int]:
        """The sectors k in ``patched`` whose diagonal block (with ``rows``, whose rows) is not all 0."""
        return [k for k in patched if self.mat[sectors[k].idx, slice(None) if rows else sectors[k].idx].any()]

    def sector_trace(self, patch: np.ndarray, sector) -> complex:
        """Tr(patch rho_NN) on one sector."""
        return np.dot(patch.T.ravel(), self.mat[sector.idx, sector.idx].ravel())

    def sector_rows(self, sector) -> np.ndarray:
        """The rows of one sector's states, one per state."""
        return self.mat[sector.idx]

    def base_partial_trace(self, flip: bool) -> np.ndarray:
        """Tr_1(B rho B^dag) as a fresh d x d array: mode 1 of rho for the flip B, mode 0 for the identity."""
        return np.einsum("jijk->ik" if flip else "ijkj->ik", self.mat.reshape(self.space.dims * 2))

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


@dataclass(frozen=True)
class UnitaryGate:
    """Square complex matrix tagged with the composite space it acts on."""

    space: CompositeSpace
    mat: np.ndarray

    def __post_init__(self):
        mat = _as_complex_matrix(self.mat)
        object.__setattr__(self, "mat", mat)
        if mat.shape[0] != self.space.dim:
            raise ValueError(
                f"matrix dimension {mat.shape[0]} does not match space {self.space.dims}"
            )

    @property
    def dim(self) -> int:
        return self.space.dim

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
    device kernel's reads of :class:`DensityMatrix` from the factors, with
    the same validity: the flip trace, the live sectors, the populations
    and the base partial trace in O(d^2), a sector's trace from two factor
    blocks, a sector's rows in O(d^2) per row.  Only :meth:`dense` forms
    the d^2 x d^2 matrix.
    """

    a: DensityMatrix
    b: DensityMatrix

    @functools.cached_property
    def space(self) -> CompositeSpace:
        return CompositeSpace((self.a.dim, self.b.dim))

    def flip_trace(self) -> complex:
        return (self.a.mat * self.b.mat.T).sum()  # Tr(S (a x b)) = Tr(a b)

    @functools.cached_property
    def _live_pairs(self) -> list[bool]:
        # Row |n0, n1> is a[n0] (x) b[n1], not all 0 only if both factor rows
        # are not; so the zero rows decide both cases.  Populations would not
        # tell it: DensityMatrix does not check positivity.  Entry N says
        # whether sector N has such a row; the sweep and the reduced
        # post-state read the same list.
        return np.convolve(self.a.mat.any(axis=1), self.b.mat.any(axis=1)).tolist()

    def live_sectors(self, patched: range, sectors, rows: bool = False) -> list[int]:
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


def partial_transpose(rho: DensityMatrix, subsystem: int) -> np.ndarray:
    """Transpose the indices of one subsystem only.

    With row multi-index ``(.., i_k, ..)`` and column multi-index
    ``(.., j_k, ..)``, the entry at ``(i_k, j_k)`` moves to ``(j_k, i_k)`` for
    the chosen subsystem ``k`` while all other indices stay put.  The result
    is Hermitian with the same trace but may fail to be positive, which is
    exactly what the entanglement witness exploits; it is therefore returned
    as a bare matrix, not a DensityMatrix.
    """
    n = rho.space.n_subsystems
    if subsystem < 0 or subsystem >= n:
        raise ValueError(f"subsystem index {subsystem} out of range for {n} subsystems")
    dims = rho.space.dims
    tensor_form = rho.mat.reshape(dims + dims)
    swapped = np.swapaxes(tensor_form, subsystem, subsystem + n)
    return np.ascontiguousarray(swapped.reshape(rho.space.dim, rho.space.dim))


def exp_unitary(h: np.ndarray, t: float, space: CompositeSpace | None = None) -> UnitaryGate:
    """Unitary ``exp(-i h t)`` of a Hermitian generator, via eigendecomposition.

    ``h`` is given in angular-frequency units (hbar absorbed), ``t`` in the
    matching reciprocal units, so only the product matters.  The sign
    convention is ``exp(-i h t)``: evolving ``sigma_z`` for time ``pi`` gives
    ``diag(exp(-i pi), exp(+i pi)) = -I``.

    Parameters
    ----------
    h : ndarray
        Hermitian generator, within 1e-10 entrywise (else ``ValueError``).
    t : float
        Evolution time.
    space : CompositeSpace, optional
        Space tag for the returned gate; defaults to a single subsystem of
        the matrix dimension.
    """
    h = _as_complex_matrix(h)
    if np.abs(h - dag(h)).max() > ATOL_ALGEBRA:
        raise ValueError("exp_unitary requires a Hermitian generator within 1e-10")
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w * float(t))) @ dag(v)
    if space is None:
        space = CompositeSpace((h.shape[0],))
    return UnitaryGate(space, u)
