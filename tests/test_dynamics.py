import numpy as np
import pytest

from qoverlap import (
    IDEAL,
    HamiltonianSpec,
    beamsplitter,
    build_hamiltonian,
    cps,
    dispersive_cps,
    fock,
    ginibre_mixed,
    hamiltonian_mode,
    ion_qnd,
    linear_coupling,
    number_phase,
    pure,
    realize_gate,
    sweep_visibility,
    tensor,
    tensor_states,
    witness_delta,
)
from qoverlap.observables import overlap_direct
from conftest import assert_unitary, embed_mode_state, embed_on_modes


def safe_pair(d_small, cutoff, seed_a, seed_b):
    """Random pair supported on low Fock levels so truncated couplers are exact."""
    a = embed_mode_state(ginibre_mixed(d_small, d_small, seed_a), cutoff)
    b = embed_mode_state(ginibre_mixed(d_small, d_small, seed_b), cutoff)
    return a, b, tensor_states(a, b)


def test_linear_coupling_annihilates_vacuum():
    h = build_hamiltonian(linear_coupling(1.0, 5))
    vac = np.zeros(25)
    vac[0] = 1.0
    assert np.abs(h @ vac).max() < 1e-15


def test_dispersive_hamiltonian_is_diagonal():
    kappa, d = 1.7, 6
    h = build_hamiltonian(dispersive_cps(kappa, d))
    assert np.abs(h - np.diag(np.diag(h))).max() < 1e-15
    for n in range(d):
        assert abs(h[n, n] - kappa * n) < 1e-12  # (up, n) block comes first
        assert abs(h[d + n, d + n]) < 1e-15


def test_ion_hamiltonian_squares_to_number_squared():
    omega, d = 1.3, 5
    h = build_hamiltonian(ion_qnd(omega, d))
    n2 = np.diag((omega * np.arange(d)) ** 2).astype(complex)
    assert np.abs(h @ h - tensor(np.eye(2), n2)).max() < 1e-12


def test_hamiltonians_are_hermitian():
    for spec in (linear_coupling(0.7, 5), dispersive_cps(2.2, 5), ion_qnd(1.1, 5)):
        h = build_hamiltonian(spec)
        assert np.abs(h - h.conj().T).max() < 1e-12


def test_default_interaction_times():
    assert abs(linear_coupling(2.0, 4).interaction_time - np.pi / 8) < 1e-15
    assert abs(dispersive_cps(4.0, 4).interaction_time - np.pi / 4) < 1e-15
    assert abs(ion_qnd(0.5, 4).interaction_time - np.pi) < 1e-15


def test_realized_coupler_matches_gate():
    for xi in (1.0, 3.5):
        gate = realize_gate(linear_coupling(xi, 8))
        assert np.abs(gate.mat - beamsplitter(8).mat).max() < 1e-10


def test_realized_cps_matches_gate():
    d = 8
    for kappa in (1.0, 2.0):
        g = realize_gate(dispersive_cps(kappa, d))
        assert np.abs(embed_on_modes(g.mat, d) - cps(d, target_mode=1).mat).max() < 1e-12


def test_half_time_coupler_differs():
    gate = realize_gate(linear_coupling(1.0, 8, interaction_time=np.pi / 8))
    assert np.abs(gate.mat - beamsplitter(8).mat).max() > 0.1


def test_timing_sensitivity():
    for spec, target in (
        (linear_coupling(1.0, 6), beamsplitter(6).mat),
        (dispersive_cps(1.0, 6), None),
    ):
        if target is None:
            target = realize_gate(spec).mat
        perturbed = HamiltonianSpec(spec.kind, spec.coupling, spec.cutoff,
                                    spec.interaction_time * 1.01)
        dist = np.abs(realize_gate(perturbed).mat - target).max()
        assert dist > 1e-8


def test_realized_gates_are_unitary():
    for spec in (linear_coupling(1.0, 6), dispersive_cps(1.5, 6), ion_qnd(2.0, 6)):
        assert_unitary(realize_gate(spec).mat)


def test_linear_coupling_conserves_photon_number_on_safe_sectors():
    d = 6
    u = realize_gate(linear_coupling(1.0, d, interaction_time=0.37)).mat
    n_op = np.diag(np.arange(d)).astype(complex)
    total = tensor(n_op, np.eye(d)) + tensor(np.eye(d), n_op)
    comm = u @ total - total @ u
    idx = [n * d + m for n in range(d) for m in range(d) if n + m <= d - 1]
    assert np.abs(comm[np.ix_(idx, idx)]).max() < 1e-10


def test_spec_validation():
    with pytest.raises(ValueError):
        HamiltonianSpec("kerr", 1.0, 4, 1.0)
    with pytest.raises(ValueError):
        HamiltonianSpec("ion_qnd", -1.0, 4, 1.0)
    with pytest.raises(ValueError):
        HamiltonianSpec("ion_qnd", 1.0, 4, 0.0)
    with pytest.raises(ValueError):
        HamiltonianSpec("ion_qnd", 1.0, 1, 1.0)


def test_ion_identical_pure_inputs_give_unit_visibility():
    cutoff = 6
    psi = pure(np.array([0.6, 0.8, 0.0, 0.0, 0.0, 0.0]))
    joint = tensor_states(psi, psi)
    run = sweep_visibility(joint, mode=hamiltonian_mode(ion_qnd(1.0, cutoff)))
    assert abs(run.visibility - 1.0) < 1e-9


def test_ion_orthogonal_fock_inputs_give_flat_fringe():
    cutoff = 6
    mode = hamiltonian_mode(ion_qnd(1.0, cutoff))
    joint = tensor_states(fock(0, cutoff), fock(1, cutoff))
    run = sweep_visibility(joint, 5, mode)
    assert np.abs(run.p_up - 0.5).max() < 1e-9
    assert np.abs(run.p_down - 0.5).max() < 1e-9


def test_ion_random_pair_matches_overlap_oracle():
    a, b, joint = safe_pair(3, 6, 800, 801)
    run = sweep_visibility(joint, mode=hamiltonian_mode(ion_qnd(1.0, 6)))
    oracle = overlap_direct(a, b)
    assert abs(run.visibility - oracle) < 1e-9


def test_ion_probabilities_match_ideal_device_per_phase():
    _, _, joint = safe_pair(2, 5, 810, 811)
    mode = hamiltonian_mode(ion_qnd(1.0, 5))
    for phase_count in (4, 7):
        r_ion = sweep_visibility(joint, phase_count, mode)
        r_ideal = sweep_visibility(joint, phase_count, IDEAL)
        assert np.abs(r_ion.p_up - r_ideal.p_up).max() < 1e-9
        assert np.abs(r_ion.p_down - r_ideal.p_down).max() < 1e-9
        assert np.abs(r_ion.post_state_unconditional.mat - r_ideal.post_state_unconditional.mat).max() < 1e-9
    assert abs(witness_delta(joint, mode) - witness_delta(joint, IDEAL)) < 1e-9


def test_ion_spec_validation():
    joint = tensor_states(fock(0, 4), fock(0, 4))
    with pytest.raises(ValueError):
        sweep_visibility(joint, mode=hamiltonian_mode(ion_qnd(1.0, 5)))


@pytest.mark.parametrize("make", [linear_coupling, dispersive_cps], ids=["linear_coupling", "dispersive_cps"])
def test_spec_cutoff_is_checked_on_safe_inputs(make):
    # A safe input at the default time compiles nothing; the spec is still checked.
    joint = tensor_states(fock(0, 4), fock(0, 4))
    for mode in (hamiltonian_mode(make(1.0, 5)), hamiltonian_mode(make(1.0, 3))):
        with pytest.raises(ValueError, match="does not match"):
            witness_delta(joint, mode)
        with pytest.raises(ValueError, match="does not match"):
            sweep_visibility(joint, mode=mode)


def test_all_hamiltonian_realizations_match_ideal_visibility():
    a, b, joint = safe_pair(3, 8, 820, 821)
    v_ideal = sweep_visibility(joint, mode=IDEAL).visibility
    for spec in (linear_coupling(1.0, 8), dispersive_cps(1.0, 8), ion_qnd(1.0, 8)):
        v = sweep_visibility(joint, mode=hamiltonian_mode(spec)).visibility
        assert abs(v - v_ideal) < 1e-9
