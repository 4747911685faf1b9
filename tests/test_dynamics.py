import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qoverlap import (
    IDEAL,
    HamiltonianSpec,
    ProductState,
    beamsplitter,
    cps,
    dispersive_cps,
    fock,
    ginibre_mixed,
    hamiltonian_mode,
    ion_qnd,
    linear_coupling,
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


# The Hamiltonians are read through their evolutions, at times off the defaults.


def test_linear_coupling_annihilates_vacuum():
    # H|0,0> = 0, so every evolution leaves the vacuum in place
    for t in (0.37, 1.1):
        u = realize_gate(linear_coupling(1.0, 5, interaction_time=t)).mat
        assert np.abs(u[:, 0] - np.eye(25)[0]).max() < 1e-14


def test_dispersive_hamiltonian_is_diagonal():
    kappa, d, t = 1.7, 6, 0.3
    u = realize_gate(dispersive_cps(kappa, d, interaction_time=t)).mat
    # H = kappa n on the (up, n) block, which comes first, and 0 on (dn, n)
    want = np.concatenate([np.exp(-1j * kappa * t * np.arange(d)), np.ones(d)])
    assert np.abs(u - np.diag(want)).max() < 1e-12


def test_ion_hamiltonian_squares_to_number_squared():
    omega, d, t = 1.3, 5, 0.4
    u = realize_gate(ion_qnd(omega, d, interaction_time=t)).mat
    # (U + U^dag)/2 = cos(t H), a function of H^2 = 1 (x) (omega n)^2 alone
    want = tensor(np.eye(2), np.diag(np.cos(omega * t * np.arange(d))))
    assert np.abs(0.5 * (u + u.conj().T) - want).max() < 1e-12


def test_hamiltonians_are_hermitian():
    # realize_gate refuses a generator that is not Hermitian within 1e-10,
    # and a Hermitian one evolves unitarily at every time
    for make in (linear_coupling, dispersive_cps, ion_qnd):
        for t in (0.37, 2.9):
            assert_unitary(realize_gate(make(0.7, 5, interaction_time=t)).mat, 1e-12)


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


@pytest.mark.parametrize("builder", [linear_coupling, dispersive_cps, ion_qnd])
def test_spec_refuses_non_finite_coupling_and_time(builder):
    for bad in (np.nan, np.inf, -np.inf, 0, 0.0, -0.0):
        # a zero coupling is refused before the default time divides by it
        with pytest.raises(ValueError, match="coupling constant must be finite and positive"):
            builder(bad, 4)
        with pytest.raises(ValueError, match="interaction time must be finite and positive"):
            builder(1.0, 4, bad)
    with pytest.raises(TypeError, match="cutoff must be an integer"):
        builder(1.0, 4.0)
    spec = builder(1.0, np.int64(4))
    assert type(spec.cutoff) is int and spec == builder(1.0, 4)


# Each builder's default time in closed form, pi/(4 xi), pi/kappa and pi/(2 omega):
# the table's (pi/4)/xi is the same correctly rounded quotient wherever 4 xi is finite.
OLD_DEFAULT_TIME = {
    linear_coupling: lambda xi: math.pi / (4.0 * xi),
    dispersive_cps: lambda kappa: math.pi / kappa,
    ion_qnd: lambda omega: math.pi / (2.0 * omega),
}


@pytest.mark.parametrize("builder", list(OLD_DEFAULT_TIME))
@given(coupling=st.floats(min_value=5e-324, max_value=1.7976931348623157e308))
@example(coupling=1.7963705819809777e308)  # a subnormal default time 4 ulps from pi/4, the tolerance's edge
@example(coupling=1e-320)
def test_default_time_keeps_its_bits(builder, coupling):
    old = OLD_DEFAULT_TIME[builder](coupling)
    if old == math.inf:  # refused by the coupling, not by a time the caller never gave
        with pytest.raises(ValueError, match=f"coupling constant {coupling!r} is too small") as refused:
            builder(coupling, 4)
        assert "interaction time" not in str(refused.value)
        return
    spec = builder(coupling, 4)
    if old > 0.0:
        assert spec.interaction_time.hex() == old.hex()
        assert spec == HamiltonianSpec(spec.kind, coupling, 4, old)
    else:  # 4 xi or 2 omega overflows and the closed form reads 0.0; the quotient stays finite
        assert 0.0 < spec.interaction_time < math.inf
    assert spec.at_default


@pytest.mark.parametrize("builder, coupling", [(linear_coupling, 9e307), (ion_qnd, 1.7e308)])
def test_coupling_whose_old_default_time_underflowed_runs_at_the_default(builder, coupling):
    from qoverlap.protocol import _mode_swap_operator

    mode = hamiltonian_mode(builder(coupling, 4))
    assert _mode_swap_operator(mode, 4)[0].patched == range(4, 7)
    a, b, _ = safe_pair(2, 4, 830, 831)
    pair = ProductState(a, b)
    assert sweep_visibility(pair, mode=mode).c == sweep_visibility(pair, mode=IDEAL).c


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
