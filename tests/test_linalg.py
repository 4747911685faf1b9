import numpy as np
import pytest
import scipy.linalg

from qoverlap import (
    CompositeSpace,
    DensityMatrix,
    beamsplitter,
    controlled_swap_ideal,
    cps,
    ginibre_mixed,
    bell_singlet,
    tensor,
    tensor_states,
)
from qoverlap import gates, states
from qoverlap.dynamics import HamiltonianSpec
from qoverlap.reference import UnitaryGate, exp_unitary, povm_projectors
from conftest import flip_operator, partial_trace, partial_transpose


def test_tensor_identity():
    assert np.allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))
    with pytest.raises(ValueError, match="at least two factors"):
        tensor(np.eye(2))


def test_tensor_rank_one_projector():
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    out = tensor(p0, p1)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0  # |0>|1> is flat index 1
    assert np.allclose(out, expected)


def test_tensor_mixed_product_rule(rng):
    # (A (x) B)(C (x) D) = AC (x) BD
    for _ in range(5):
        a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4))
        lhs = tensor(a, b) @ tensor(c, d)
        rhs = tensor(a @ c, b @ d)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_partial_trace_product_state():
    rho_a = ginibre_mixed(3, 2, 0)
    rho_b = ginibre_mixed(4, 3, 1)
    joint = tensor_states(rho_a, rho_b)
    reduced = partial_trace(joint, 0)
    assert np.abs(reduced.mat - rho_a.mat).max() < 1e-12
    reduced_b = partial_trace(joint, 1)
    assert np.abs(reduced_b.mat - rho_b.mat).max() < 1e-12


def test_partial_trace_singlet_marginals():
    rho = bell_singlet()
    for side in (0, 1):
        marg = partial_trace(rho, side)
        assert np.abs(marg.mat - np.eye(2) / 2).max() < 1e-12


def test_partial_trace_linearity():
    a = tensor_states(ginibre_mixed(2, 2, 2), ginibre_mixed(2, 1, 3))
    b = tensor_states(ginibre_mixed(2, 1, 4), ginibre_mixed(2, 2, 5))
    mix = DensityMatrix(a.space, 0.3 * a.mat + 0.7 * b.mat)
    lhs = partial_trace(mix, 0).mat
    rhs = 0.3 * partial_trace(a, 0).mat + 0.7 * partial_trace(b, 0).mat
    assert np.abs(lhs - rhs).max() < 1e-12


def test_partial_trace_preserves_trace():
    for seed in range(5):
        rho = ginibre_mixed(12, 4, seed, dims=(2, 3, 2))
        for keep in ((0,), (1,), (0, 2), (0, 1, 2)):
            out = partial_trace(rho, keep)
            assert abs(np.trace(out.mat) - 1.0) < 1e-12


def test_partial_trace_errors():
    rho = ginibre_mixed(4, 2, 0, dims=(2, 2))
    with pytest.raises(ValueError):
        partial_trace(rho, ())
    with pytest.raises(ValueError):
        partial_trace(rho, 5)


def test_partial_transpose_product_state():
    rho_a = ginibre_mixed(3, 2, 6)
    rho_b = ginibre_mixed(3, 3, 7)
    joint = tensor_states(rho_a, rho_b)
    pt = partial_transpose(joint, 1)
    assert np.abs(pt - tensor(rho_a.mat, rho_b.mat.T)).max() < 1e-12


def test_partial_transpose_singlet_spectrum():
    pt = partial_transpose(bell_singlet(), 1)
    eigs = np.sort(np.linalg.eigvalsh(pt))
    assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_involution_and_hermiticity():
    rho = ginibre_mixed(9, 5, 8, dims=(3, 3))
    pt = partial_transpose(rho, 1)
    assert np.abs(pt - pt.conj().T).max() < 1e-12
    assert abs(np.trace(pt) - 1.0) < 1e-12
    back = partial_transpose(DensityMatrix(rho.space, pt), 1)
    assert np.array_equal(back, rho.mat)


def test_partial_transpose_product_spectrum_is_marginal_products():
    rho_a = ginibre_mixed(2, 2, 9)
    rho_b = ginibre_mixed(2, 2, 10)
    pt = partial_transpose(tensor_states(rho_a, rho_b), 1)
    got = np.sort(np.linalg.eigvalsh(pt))
    wa = np.linalg.eigvalsh(rho_a.mat)
    wb = np.linalg.eigvalsh(rho_b.mat)
    expected = np.sort(np.outer(wa, wb).ravel())
    assert np.abs(got - expected).max() < 1e-10


def test_partial_transpose_invalid_subsystem():
    with pytest.raises(ValueError):
        partial_transpose(bell_singlet(), 2)


# exp_unitary decomposes its generator spectrally: exp(-i w t) on each eigenvector.


def test_spectral_decompose_identity():
    # a degenerate spectrum, so any eigenbasis serves
    assert np.abs(exp_unitary(np.eye(2), 0.4).mat - np.exp(-0.4j) * np.eye(2)).max() < 1e-15


def test_spectral_decompose_plus_projector():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    u = exp_unitary(np.outer(plus, plus), 0.4).mat
    assert np.abs(u @ plus - np.exp(-0.4j) * plus).max() < 1e-12
    assert np.abs(u @ minus - minus).max() < 1e-12


def test_spectral_decompose_reconstruction():
    for seed in range(5):
        rho = ginibre_mixed(8, 5, 20 + seed)
        w, v = np.linalg.eigh(rho.mat)
        assert abs(w.sum() - 1.0) <= 1e-9
        u = exp_unitary(rho.mat, 0.4).mat
        # v^dag U v is the diagonal of phases exp(-i w t)
        assert np.abs(v.conj().T @ u @ v - np.diag(np.exp(-0.4j * w))).max() <= 1e-9


def test_spectral_decompose_rejects_non_hermitian():
    near = np.array([[0.0, 1.0], [1.0 + 1e-11, 0.0]])
    exp_unitary(near, 1.0)  # within the 1e-10 Hermiticity tolerance
    near[1, 0] = 1.0 + 1e-9
    with pytest.raises(ValueError, match="Hermitian"):
        exp_unitary(near, 1.0)


def test_exp_unitary_zero_generator():
    gate = exp_unitary(np.zeros((3, 3)), 1.7)
    assert np.allclose(gate.mat, np.eye(3))


def test_exp_unitary_pauli_z():
    sz = np.diag([1.0, -1.0]).astype(complex)
    gate = exp_unitary(sz, np.pi)
    # exp(-i sz pi) = diag(exp(-i pi), exp(+i pi)) = -I
    assert np.abs(gate.mat + np.eye(2)).max() < 1e-12


def test_exp_unitary_one_parameter_group(rng):
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = h + h.conj().T
    u1 = exp_unitary(h, 0.3).mat
    u2 = exp_unitary(h, 0.9).mat
    u12 = exp_unitary(h, 1.2).mat
    assert np.abs(u1 @ u2 - u12).max() < 1e-10


def test_exp_unitary_matches_scipy_expm(rng):
    # independent oracle: Pade-based expm
    for d in (2, 5, 9):
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = 0.5 * (h + h.conj().T)
        u = exp_unitary(h, 0.7).mat
        ref = scipy.linalg.expm(-1j * h * 0.7)
        assert np.abs(u - ref).max() < 1e-10


def test_exp_unitary_is_unitary_up_to_dim_64(rng):
    for d in (8, 64):
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = 0.5 * (h + h.conj().T)
        gate = exp_unitary(h, 2.1)
        err = np.abs(gate.mat.conj().T @ gate.mat - np.eye(d)).max()
        assert err < 1e-10


def test_exp_unitary_rejects_non_hermitian():
    with pytest.raises(ValueError):
        exp_unitary(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_density_matrix_invariants_enforced():
    space = CompositeSpace((2,))
    with pytest.raises(ValueError):
        DensityMatrix(space, np.array([[1.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(space, np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(space, np.array([[1.5, 0.0], [0.0, -0.5]])).validate()  # negative


def test_density_matrix_checks_matrices_in_any_memory_order():
    space = CompositeSpace((3,))
    m = np.eye(3, dtype=complex) / 3
    m[0, 1], m[1, 0] = 0.1j, -0.1j
    assert np.array_equal(DensityMatrix(space, m.conj().T).mat, m.conj().T)  # Fortran-ordered view
    for bad in (complex(np.nan, 0.0), complex(1 / 3, np.inf)):
        broken = m.copy()
        broken[2, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(space, broken.T)


@pytest.mark.parametrize("entries", [
    {(1, 1): complex(np.inf, 0.0)},  # inf - inf on the diagonal: the residual is NaN
    {(0, 2): complex(np.inf, 0.0), (2, 0): complex(np.inf, 0.0)},  # a symmetric pair
    {(0, 1): complex(np.nan, 0.0)},
    {(2, 2): complex(1 / 3, np.inf)},
])
def test_density_matrix_refuses_non_finite_entries_without_a_warning(entries):
    # RuntimeWarnings are errors in this suite, so a warning would fail the test.
    m = np.eye(3, dtype=complex) / 3
    for index, value in entries.items():
        m[index] = value
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(CompositeSpace((3,)), m)
    with pytest.raises(ValueError, match="non-finite"):  # before the dimension check
        DensityMatrix(CompositeSpace((2,)), m)


def test_density_matrix_check_order_on_finite_matrices():
    m = np.eye(3, dtype=complex) / 3
    m[0, 1] = 0.2  # finite, not Hermitian
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityMatrix(CompositeSpace((3,)), m)
    with pytest.raises(ValueError, match="does not match space"):
        DensityMatrix(CompositeSpace((2,)), m)
    with pytest.raises(ValueError, match="does not match space"):
        DensityMatrix(CompositeSpace((2,)), np.zeros((0, 0)))
    with pytest.raises(ValueError, match="square"):
        DensityMatrix(CompositeSpace((3,)), np.ones((3, 2)))
    # a gate's matrix is checked against its space the same way
    with pytest.raises(ValueError, match="does not match space"):
        UnitaryGate(CompositeSpace((2,)), np.eye(3))


def test_composite_space_validation():
    with pytest.raises(ValueError):
        CompositeSpace((1, 2))
    with pytest.raises(ValueError, match="needs at least one subsystem"):
        CompositeSpace(())
    assert CompositeSpace((2, 3)).dim == 6


# Every count a caller hands the library, with the least value it takes and
# what it keeps of the count (a stored int where there is one).
COUNTS = {
    "composite_space": (lambda v: CompositeSpace((v, 2)).dims[0], 2),
    "fock_ket_cutoff": (lambda v: states.fock_ket(1, v), 2),
    "fock_ket_level": (lambda v: states.fock_ket(v, 4), 0),
    "coherent_ket": (lambda v: states.coherent_ket(0.5, v), 2),
    "thermal": (lambda v: states.thermal(0.5, v).space.dims[0], 2),
    "ginibre_rank": (lambda v: ginibre_mixed(4, v, 0).mat, 1),
    "ginibre_dimension": (lambda v: ginibre_mixed(v, 1, 0).space.dims[0], 2),
    "number_sectors": (lambda v: gates.number_sectors(v)[1].idx.start, 2),
    "beamsplitter": (lambda v: beamsplitter(v).mat, 2),
    "cps": (lambda v: cps(v).mat, 2),
    "controlled_swap_ideal": (lambda v: controlled_swap_ideal(v).mat, 2),
    "flip_operator": (flip_operator, 2),  # the tests' flip, the |up> block of controlled_swap_ideal
    "povm_projectors": (lambda v: povm_projectors(v)[0], 2),
    "hamiltonian_cutoff": (lambda v: HamiltonianSpec("ion_qnd", 1.0, v, 1.0).cutoff, 2),
}


@pytest.mark.parametrize("entry", COUNTS)
def test_counts_are_integers_in_range(entry):
    build, least = COUNTS[entry]
    ref, out = build(3), build(np.int64(3))  # first, so a cache of either cannot answer 3.0
    if isinstance(ref, int):
        assert type(out) is int and out == ref
    else:
        assert np.array_equal(out, ref)
    for bad in (True, 2.5, 3.0):
        with pytest.raises(TypeError, match="must be an integer"):
            build(bad)
    with pytest.raises(ValueError):
        build(least - 1)
