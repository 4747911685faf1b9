import numpy as np
import pytest
import scipy.linalg

from qoverlap import (
    annihilation,
    beamsplitter,
    controlled_swap_ideal,
    cps,
    flip_operator,
    hadamard,
    number_phase,
    phase_shift,
    povm_projectors,
    singlet_ket,
    tensor,
)
from qoverlap.gates import coupler_blocks, number_sectors
from conftest import haar_unitary

UP, DN = 0, 1


def fock2(n, m, d):
    v = np.zeros(d * d, dtype=complex)
    v[n * d + m] = 1.0
    return v


def safe_indices(d):
    return [n * d + m for n in range(d) for m in range(d) if n + m <= d - 1]


def test_hadamard_matrix_convention():
    expected = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2)
    assert np.abs(hadamard().mat - expected).max() < 1e-15


def test_hadamard_maps_up_to_equal_superposition():
    out = hadamard().mat[:, UP]
    assert np.allclose(out, np.array([1.0, 1.0]) / np.sqrt(2))


def test_hadamard_squared_is_quarter_turn_twice():
    u2 = hadamard().mat @ hadamard().mat
    up = np.array([1.0, 0.0])
    dn = np.array([0.0, 1.0])
    assert np.allclose(u2 @ up, dn, atol=1e-15)
    assert np.allclose(u2 @ dn, -up, atol=1e-15)


def test_hadamard_unitarity():
    h = hadamard().mat
    assert np.abs(h.conj().T @ h - np.eye(2)).max() < 1e-15


def test_phase_shift_special_values():
    assert np.allclose(phase_shift(0.0).mat, np.eye(2))
    assert np.allclose(phase_shift(np.pi).mat, np.diag([-1.0, 1.0]), atol=1e-15)


def test_phase_shift_group_law(rng):
    for _ in range(5):
        a, b = rng.uniform(0, 2 * np.pi, size=2)
        lhs = phase_shift(a).mat @ phase_shift(b).mat
        assert np.abs(lhs - phase_shift(a + b).mat).max() < 1e-12


def test_beamsplitter_vacuum_invariant():
    d = 5
    out = beamsplitter(d).mat @ fock2(0, 0, d)
    assert np.abs(out - fock2(0, 0, d)).max() < 1e-12


def test_beamsplitter_single_photon_splitting():
    d = 5
    out = beamsplitter(d).mat @ fock2(1, 0, d)
    expected = (fock2(1, 0, d) - fock2(0, 1, d)) / np.sqrt(2)
    assert np.abs(out - expected).max() < 1e-12


def test_beamsplitter_squared_swaps_with_phases():
    # applying the coupler twice maps |n,m> -> (-1)^n |m,n> on safe sectors
    d = 8
    u2 = beamsplitter(d).mat @ beamsplitter(d).mat
    for n in range(d):
        for m in range(d - n):
            out = u2 @ fock2(n, m, d)
            assert np.abs(out - (-1.0) ** n * fock2(m, n, d)).max() < 1e-10


def test_beamsplitter_conserves_photon_number_on_safe_sectors():
    d = 6
    u = beamsplitter(d).mat
    n_op = np.diag(np.arange(d)).astype(complex)
    total = tensor(n_op, np.eye(d)) + tensor(np.eye(d), n_op)
    comm = u @ total - total @ u
    idx = safe_indices(d)
    assert np.abs(comm[np.ix_(idx, idx)]).max() < 1e-10


def test_beamsplitter_unitary():
    u = beamsplitter(7).mat
    assert np.abs(u.conj().T @ u - np.eye(49)).max() < 1e-10


@pytest.mark.parametrize("d", range(2, 11))
def test_sector_coupler_matches_expm_of_dense_generator(d):
    a = annihilation(d)
    ad = a.conj().T
    generator = tensor(ad, a) - tensor(a, ad)
    sectors = number_sectors(d)
    assert sorted(np.concatenate(sectors)) == list(range(d * d))
    total = np.add.outer(np.arange(d), np.arange(d)).ravel()
    between = total[:, None] != total[None, :]
    off_angle = np.zeros((d * d, d * d), dtype=complex)
    for idx, block in zip(sectors, coupler_blocks(d, 0.37)):
        off_angle[np.ix_(idx, idx)] = block
    for theta, u in ((np.pi / 4, beamsplitter(d).mat), (0.37, off_angle)):
        assert np.abs(u - scipy.linalg.expm(theta * generator)).max() < 1e-12
        assert np.all(u[between] == 0.0)


def test_couplers_at_one_cutoff_share_one_eigensolve_per_sector(monkeypatch):
    from qoverlap import gates

    d = 7
    gates._coupler_eigensystems.cache_clear()
    solved = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: solved.append(h.shape) or eigh(h))
    for theta in (np.pi / 4, -np.pi / 4, 0.37, np.pi / 8):
        for idx, block in zip(number_sectors(d), coupler_blocks(d, theta)):
            # the same numbers as a fresh solve of the sector's generator
            n0, n1 = np.divmod(idx[:-1], d)
            h = np.diag(1j * np.sqrt((n0 + 1.0) * n1), -1)
            w, v = eigh(h + h.conj().T)
            assert np.array_equal(block, (v * np.exp(-1j * theta * w)) @ v.conj().T)
    assert len(solved) == 2 * d - 1


def test_cps_passive_branch_untouched(rng):
    d = 4
    gate = cps(d).mat
    v = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
    v /= np.linalg.norm(v)
    full = np.concatenate([np.zeros(d * d), v])  # ancilla |dn>
    assert np.abs(gate @ full - full).max() < 1e-12


def test_cps_active_branch_sign():
    d = 4
    gate = cps(d).mat  # target mode 1
    full = np.concatenate([fock2(0, 1, d), np.zeros(d * d)])  # |up>|0,1>
    assert np.abs(gate @ full + full).max() < 1e-12


def test_cps_target_mode_zero():
    d = 3
    gate = cps(d, target_mode=0).mat
    full = np.concatenate([fock2(1, 0, d), np.zeros(d * d)])
    assert np.abs(gate @ full + full).max() < 1e-12


def test_cps_involutive():
    d = 4
    gate = cps(d).mat
    assert np.abs(gate @ gate - np.eye(2 * d * d)).max() < 1e-12


def test_controlled_swap_branches():
    d = 3
    u = controlled_swap_ideal(d).mat
    psi = fock2(2, 1, d)
    up_in = np.concatenate([psi, np.zeros(d * d)])
    dn_in = np.concatenate([np.zeros(d * d), psi])
    assert np.abs(u @ dn_in - dn_in).max() < 1e-15
    expected_up = np.concatenate([fock2(1, 2, d), np.zeros(d * d)])
    assert np.abs(u @ up_in - expected_up).max() < 1e-15


def test_controlled_swap_equals_composed_gates_on_safe_sectors():
    # coupler^dag . controlled-phase(mode 1) . coupler against the ideal gate
    d = 10
    b = tensor(np.eye(2), beamsplitter(d).mat)
    composite = b.conj().T @ cps(d, target_mode=1).mat @ b
    ideal = controlled_swap_ideal(d).mat
    idx = []
    for anc in range(2):
        idx += [anc * d * d + i for i in safe_indices(d)]
    diff = (composite - ideal)[np.ix_(idx, idx)]
    assert np.abs(diff).max() < 1e-9


def test_controlled_swap_wrong_target_mode_leaves_parity():
    d = 6
    b = tensor(np.eye(2), beamsplitter(d).mat)
    composite = b.conj().T @ cps(d, target_mode=0).mat @ b
    # on the active branch, |n,m> picks up (-1)^(n+m) relative to the plain swap
    v_in = np.concatenate([fock2(1, 0, d), np.zeros(d * d)])
    v_out = np.concatenate([fock2(0, 1, d), np.zeros(d * d)])
    assert np.abs(composite @ v_in + v_out).max() < 1e-10


def test_controlled_swap_commutes_with_simultaneous_rotation(rng):
    # with control |up>, rotating both modes by the same unitary before the
    # gate equals rotating after it
    d = 3
    swap_block = flip_operator(d)
    u = haar_unitary(d, rng)
    uu = tensor(u, u)
    assert np.abs(swap_block @ uu - uu @ swap_block).max() < 1e-12


def test_flip_operator_qubit_case():
    expected = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.array_equal(flip_operator(2), expected)


def test_flip_operator_involutive_and_spectrum():
    for d in (2, 3, 4):
        s = flip_operator(d)
        assert np.abs(s @ s - np.eye(d * d)).max() < 1e-15
        eigs = np.linalg.eigvalsh(s)
        assert np.sum(eigs > 0.5) == d * (d + 1) // 2
        assert np.sum(eigs < -0.5) == d * (d - 1) // 2


def test_povm_projector_ranks_qubit():
    pair = povm_projectors(2).validate()
    assert np.linalg.matrix_rank(pair.pi_plus) == 3
    assert np.linalg.matrix_rank(pair.pi_minus) == 1


def test_povm_singlet_expectation():
    pair = povm_projectors(2)
    s = singlet_ket()
    v_op = pair.pi_plus - pair.pi_minus
    assert abs((s.conj() @ v_op @ s).real + 1.0) < 1e-12


def test_povm_completeness_and_orthogonality():
    for d in (2, 3, 5):
        pair = povm_projectors(d).validate()
        assert np.abs(pair.pi_plus + pair.pi_minus - np.eye(d * d)).max() < 1e-12
        assert np.abs(pair.pi_plus @ pair.pi_minus).max() < 1e-12


def test_povm_difference_is_flip():
    for d in (2, 4):
        pair = povm_projectors(d)
        assert np.abs(pair.pi_plus - pair.pi_minus - flip_operator(d)).max() < 1e-10


def test_number_phase_values():
    d = 5
    assert np.allclose(number_phase(0.0, d).mat, np.eye(d))
    # theta = pi reproduces the active branch of the controlled phase shift
    assert np.abs(number_phase(np.pi, d).mat - np.diag([(-1.0) ** n for n in range(d)])).max() < 1e-12
    assert abs(number_phase(np.pi / 2, d).mat[2, 2] + 1.0) < 1e-15


def test_all_named_gates_unitary():
    for gate in (hadamard(), phase_shift(0.7), beamsplitter(6), cps(4),
                 controlled_swap_ideal(4), number_phase(1.1, 6)):
        gate.validate(1e-10)
