import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qoverlap import (
    IDEAL,
    PHYSICAL,
    DensityMatrix,
    MeasurementSettings,
    ProductState,
    bell_singlet,
    calibrate_phase,
    classical_correlated,
    dispersive_cps,
    estimate_visibility,
    flip_operator,
    fock,
    ginibre_mixed,
    hamiltonian_mode,
    hs_distance,
    ion_qnd,
    linear_coupling,
    partial_trace,
    repeat_measurement_check,
    run_device,
    sample_shots,
    sweep_visibility,
    tensor,
    tensor_states,
    visibility_minmax,
    werner,
    witness_delta,
)
from qoverlap.observables import flip_expectation, overlap_direct, purity_direct
from conftest import literal_device_run, random_joint_state


def product_input(d, seed_a, seed_b, rank_a=None, rank_b=None):
    a = ginibre_mixed(d, rank_a or d, seed_a)
    b = ginibre_mixed(d, rank_b or d, seed_b)
    return a, b, tensor_states(a, b)


def test_vacuum_pair_fringe_is_cosine():
    joint = tensor_states(fock(0, 3), fock(0, 3))
    for psi in np.linspace(0, 2 * np.pi, 9):
        r = run_device(joint, psi)
        assert abs(r.p_down - 0.5 * (1 + np.cos(psi))) < 1e-12
        assert abs(r.p_up + r.p_down - 1.0) < 1e-12


def test_orthogonal_pair_fringe_is_flat():
    joint = tensor_states(fock(0, 3), fock(1, 3))
    for psi in np.linspace(0, 2 * np.pi, 7):
        r = run_device(joint, psi)
        assert abs(r.p_up - 0.5) < 1e-12
        assert abs(r.p_down - 0.5) < 1e-12


ORACLE_MODES = {
    "ideal": lambda d: IDEAL,
    "physical": lambda d: PHYSICAL,
    "linear_coupling": lambda d: hamiltonian_mode(linear_coupling(1.0, d)),
    "dispersive_cps": lambda d: hamiltonian_mode(dispersive_cps(1.0, d)),
    "ion_qnd": lambda d: hamiltonian_mode(ion_qnd(1.0, d)),
    "ion_qnd_0.83t": lambda d: hamiltonian_mode(ion_qnd(1.0, d, interaction_time=0.83 * np.pi / 2)),
    # Away from the default times exp(-i kappa t n) and exp(+i kappa t n)
    # differ, so these pin the sign and the size of every compiled phase.
    "dispersive_cps_0.7t": lambda d: hamiltonian_mode(dispersive_cps(2.0, d, interaction_time=0.7 * np.pi / 2.0)),
    "linear_coupling_t0.3": lambda d: hamiltonian_mode(linear_coupling(1.3, d, interaction_time=0.3)),
    "ion_qnd_1.2t": lambda d: hamiltonian_mode(ion_qnd(1.7, d, interaction_time=1.2 * np.pi / (2 * 1.7))),
}


@pytest.mark.parametrize("label", list(ORACLE_MODES))
def test_factored_engine_matches_literal_gate_sequence(label):
    # Full-support inputs populate the sectors above total photon number
    # d - 1, where composed and compiled gates leak; the match must hold there too.
    for d in (2, 3, 4):
        mode = ORACLE_MODES[label](d)
        a, b, product = product_input(d, 31 + d, 32 + d)
        for rho in (product, ProductState(a, b), random_joint_state(d, 33 + d)):
            for psi in (0.0, 0.9, np.pi, 4.4):
                lit = literal_device_run(rho, psi, mode)
                r = run_device(rho, psi, mode)
                assert abs(r.p_up - lit.p_up) < 1e-12
                assert abs(r.p_down - lit.p_down) < 1e-12
                for name in ("post_up", "post_down", "post_unconditional"):
                    got, want = getattr(r, name), getattr(lit, name)
                    assert (got is None) == (want is None)
                    if got is not None:
                        assert np.abs(got.mat - want).max() < 1e-12
            # the closed-form sweep and witness, read off the literal circuit
            run = sweep_visibility(rho, 5, mode)
            lits = [literal_device_run(rho, psi, mode) for psi in run.phases]
            assert np.abs(run.p_up - [lit.p_up for lit in lits]).max() < 1e-12
            assert np.abs(run.p_down - [lit.p_down for lit in lits]).max() < 1e-12
            star = literal_device_run(rho, calibrate_phase(rho, mode), mode)
            assert abs(witness_delta(rho, mode) - (star.p_up - star.p_down)) < 1e-12
            assert abs(run.delta - (star.p_up - star.p_down)) < 1e-12


def test_compiled_branches_cached_per_mode_and_interaction_time():
    from qoverlap.protocol import _mode_swap_operator

    d = 3
    rho = random_joint_state(d, 77)
    # each pair differs only in interaction time and runs back to back
    pairs = [
        (ion_qnd(1.0, d), ion_qnd(1.0, d, interaction_time=0.83 * np.pi / 2)),
        (linear_coupling(1.0, d), linear_coupling(1.0, d, interaction_time=np.pi / 8)),
    ]
    modes = [hamiltonian_mode(spec) for pair in pairs for spec in pair]
    _mode_swap_operator.cache_clear()
    for repeat in range(2):
        for mode in modes:
            r = run_device(rho, 0.9, mode)
            lit = literal_device_run(rho, 0.9, mode)
            assert abs(r.p_up - lit.p_up) < 1e-12
            assert np.abs(r.post_up.mat - lit.post_up).max() < 1e-12
        # a repeated (mode, cutoff) is served from the cache, never recompiled
        info = _mode_swap_operator.cache_info()
        assert (info.misses, info.hits) == (len(modes), repeat * len(modes))
    w_up, w_dn, w_rel = _mode_swap_operator(modes[0], d)
    for array in (w_up[1], w_dn[1], w_rel[1]):
        with pytest.raises(ValueError):
            array[0] = 0
    # W_rel = W_dn^dag W_up for the ion; every other mode reads W_up itself
    for k in range(2 * d - 1):
        assert np.abs(w_rel[k] - w_dn[k].conj().T @ w_up[k]).max() < 1e-12
    w_up, w_dn, w_rel = _mode_swap_operator(modes[2], d)
    assert w_dn is None and w_rel is w_up


def test_device_never_compiles_through_time_evolution(monkeypatch):
    from qoverlap import dynamics, linalg
    from qoverlap.protocol import _mode_swap_operator

    def refuse(*args, **kwargs):
        raise AssertionError("compiled a branch by evolving a dense Hamiltonian")

    monkeypatch.setattr(dynamics, "realize_gate", refuse)
    monkeypatch.setattr(linalg, "exp_unitary", refuse)
    _mode_swap_operator.cache_clear()
    d = 4
    a, b, product = product_input(d, 41, 42)
    for make in ORACLE_MODES.values():
        mode = make(d)
        sweep_visibility(ProductState(a, b), 5, mode)
        run_device(product, 0.9, mode)
        hs_distance(a, b, MeasurementSettings(mode=mode))


def test_unconditional_post_state_mixes_the_inputs():
    a, b, joint = product_input(4, 33, 34, rank_a=2)
    r = run_device(joint, 0.35)
    expected = 0.5 * (tensor(a.mat, b.mat) + tensor(b.mat, a.mat))
    assert np.abs(r.post_unconditional.mat - expected).max() < 1e-10
    r2 = run_device(joint, 2.5)
    assert np.abs(r2.post_unconditional.mat - expected).max() < 1e-10


def test_conditional_post_states_undefined_at_zero_probability():
    joint = tensor_states(fock(0, 3), fock(0, 3))
    r = run_device(joint, 0.0)  # p_up = 0 exactly
    assert r.post_up is None
    assert r.post_down is not None
    r.post_down.validate()


@pytest.mark.parametrize("as_product", [False, True])
def test_conditional_post_states_valid_at_tiny_probability(as_product):
    # p_up ~ psi^2 / 4 = 2.5e-11: above the conditioning floor, yet the
    # closed form (1 - cos psi) / 2 loses ~1e-6 of it to cancellation.
    a, b = fock(0, 3), fock(0, 3)
    joint = ProductState(a, b) if as_product else tensor_states(a, b)
    r = run_device(joint, 1e-5)
    assert 1e-12 < r.p_up < 1e-10
    assert abs(np.trace(r.post_up.mat) - 1.0) < 1e-10
    r.post_up.validate()
    r.post_down.validate()


def test_witness_delta_nearly_antisymmetric_werner():
    p = 1.0 - 1e-8  # one outcome has probability 0.75 * (1 - p)
    assert witness_delta(werner(p)) == pytest.approx(-p + 0.5 * (1.0 - p), abs=1e-12)


def test_sweep_visibility_equals_overlap_for_product_inputs():
    for seed in range(6):
        a, b, joint = product_input(4, 100 + seed, 200 + seed)
        run = sweep_visibility(joint)
        assert abs(run.visibility - overlap_direct(a, b)) < 1e-9


def test_singlet_visibility_is_one():
    assert abs(sweep_visibility(bell_singlet()).visibility - 1.0) < 1e-10


def test_classically_correlated_visibility_vanishes():
    assert sweep_visibility(classical_correlated()).visibility < 1e-10


def test_probability_normalization_and_run_invariants():
    run = sweep_visibility(random_joint_state(3, 55))
    assert np.abs(run.p_up + run.p_down - 1.0).max() < 1e-10
    assert -1e-10 <= run.visibility <= 1.0 + 1e-10
    assert abs(run.delta) <= run.visibility + 1e-10
    run.post_state_unconditional.validate()


def test_visibility_is_flip_expectation_for_correlated_inputs():
    for d in (2, 3, 4):
        rho = random_joint_state(d, 70 + d)
        run = sweep_visibility(rho)
        assert abs(run.visibility - abs(flip_expectation(rho))) < 1e-10


def test_visibility_symmetric_under_swap_of_inputs():
    a, b, _ = product_input(3, 81, 82)
    v_ab = sweep_visibility(tensor_states(a, b)).visibility
    v_ba = sweep_visibility(tensor_states(b, a)).visibility
    assert abs(v_ab - v_ba) < 1e-12


def test_fourier_estimator_matches_minmax_on_cosine_fringe():
    run = sweep_visibility(tensor_states(ginibre_mixed(3, 2, 90), ginibre_mixed(3, 3, 91)), 16)
    assert abs(run.visibility - visibility_minmax(run.p_down)) < 1e-9


def test_sweep_requires_three_phases():
    with pytest.raises(ValueError):
        sweep_visibility(bell_singlet(), phase_count=2)


def test_device_rejects_mismatched_cutoffs():
    bad = ginibre_mixed(6, 3, 1, dims=(2, 3))
    with pytest.raises(ValueError):
        run_device(bad, 0.0)


def test_calibration_closes_the_empty_interferometer():
    for seed in (0, 1):
        _, _, joint = product_input(3, 10 + seed, 20 + seed)
        for mode in (IDEAL, hamiltonian_mode(ion_qnd(1.0, 3))):
            psi_star = calibrate_phase(joint, mode)
            # without the controlled gate p_up is 1; with it, p_up = (1+delta)/2
            assert literal_device_run(joint, psi_star, mode, controlled_step=False).p_up >= 1.0 - 1e-9
            opposite = literal_device_run(joint, psi_star + np.pi, mode, controlled_step=False)
            assert opposite.p_up <= 1e-9
            assert run_device(joint, psi_star, mode).p_up <= 1.0


def test_calibration_state_independent_and_grid_robust():
    psi_a = calibrate_phase(tensor_states(fock(0, 4), fock(2, 4)))
    psi_b = calibrate_phase(random_joint_state(3, 3))
    assert abs(psi_a - psi_b) < 1e-12
    # grids without a point at the fringe maximum still calibrate exactly
    rho = random_joint_state(2, 4)
    for k in (3, 5, 7):
        psi = calibrate_phase(rho, phase_count=k)
        assert literal_device_run(rho, psi, IDEAL, controlled_step=False).p_up >= 1.0 - 1e-9
        assert literal_device_run(rho, psi + np.pi, IDEAL, controlled_step=False).p_up <= 1e-9


def test_witness_delta_singlet():
    assert abs(witness_delta(bell_singlet()) + 1.0) < 1e-10


def test_witness_delta_werner_family():
    for p in np.linspace(0, 1, 11):
        delta = witness_delta(werner(float(p)))
        assert abs(delta - (1 - 3 * p) / 2) < 1e-9


def test_witness_delta_product_states_nonnegative():
    for seed in range(5):
        a, b, joint = product_input(3, 300 + seed, 400 + seed)
        delta = witness_delta(joint)
        assert delta >= -1e-12
        assert abs(delta - overlap_direct(a, b)) < 1e-10


def test_witness_delta_equals_flip_expectation():
    for d in (2, 3):
        rho = random_joint_state(d, 500 + d)
        assert abs(witness_delta(rho) - flip_expectation(rho)) < 1e-10


def test_witness_delta_invariant_under_detector_relabeling():
    # declaring the other detector "up" and recalibrating gives the same
    # probability difference: the calibration anchors the sign, not the label
    from qoverlap.protocol import _uniform_phases, fourier_coefficient

    rho = random_joint_state(2, 5151)
    phases = _uniform_phases(8)
    p_other = np.array([literal_device_run(rho, p, IDEAL, controlled_step=False).p_down for p in phases])
    psi_star = (-np.angle(fourier_coefficient(p_other, phases))) % (2 * np.pi)
    r = run_device(rho, psi_star)
    assert abs((r.p_down - r.p_up) - witness_delta(rho)) < 1e-10


def test_sample_shots_edge_probabilities():
    run = sweep_visibility(tensor_states(fock(0, 2), fock(0, 2)))
    counts = sample_shots(run, 200, seed=1)
    # wherever p_up is exactly 0 or 1 the counts are deterministic
    for k, p in enumerate(run.p_up):
        if p < 1e-12:
            assert counts[k, 0] == 0
        if p > 1 - 1e-12:
            assert counts[k, 0] == 200


def test_sample_shots_binomial_bound():
    rho = tensor_states(fock(0, 2), fock(1, 2))  # flat fringe at 1/2
    run = sweep_visibility(rho)
    counts = sample_shots(run, 10_000, seed=7)
    frac = counts[:, 0] / 10_000
    assert np.abs(frac - 0.5).max() <= 0.025  # 5 sigma


def test_sample_shots_deterministic_and_splittable():
    run = sweep_visibility(random_joint_state(2, 8))
    c1 = sample_shots(run, 1000, seed=11)
    c2 = sample_shots(run, 1000, seed=11)
    assert np.array_equal(c1, c2)
    assert not np.array_equal(c1, sample_shots(run, 1000, seed=12))


@pytest.mark.filterwarnings("error")
def test_sample_shots_seed_is_taken_mod_2_64():
    run = sweep_visibility(random_joint_state(2, 8))

    def draw(seed):
        return sample_shots(run, 1000, seed).tolist()

    assert len({str(draw(s)) for s in (-1, -2, 0)}) == 3
    for s in (0, 5, -1, 2**53 + 1):
        assert draw(s) == draw(s + 2**64)
    assert draw(2**53) != draw(2**53 + 1)


def _per_phase_oracle(run, shots, seed):
    """One fresh Philox generator per phase, keyed by (seed mod 2**64, k)."""
    counts = []
    for k, p in enumerate(run.p_up):
        key = np.array([seed % 2**64, k], dtype=np.uint64)
        up = int(np.random.Generator(np.random.Philox(key=key)).binomial(shots, np.clip(p, 0.0, 1.0)))
        counts.append([up, shots - up])
    return np.array(counts)


@pytest.mark.parametrize("phase_count", [3, 8, 13])
@pytest.mark.parametrize("shots", [1, 10, 10**5])
def test_sample_shots_is_keyed_per_phase(phase_count, shots):
    run = sweep_visibility(random_joint_state(2, 31), phase_count)
    for seed in (0, 7, 2**40 + 3, 2**63 + 5, -1):
        counts = sample_shots(run, shots, seed)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, _per_phase_oracle(run, shots, seed))


def test_estimate_visibility_consistency_on_exact_frequencies():
    run = sweep_visibility(random_joint_state(3, 9))
    fake_counts = np.column_stack([run.p_up, run.p_down]) * 1e6
    v_hat, se = estimate_visibility(fake_counts, run.phases)
    assert abs(v_hat - run.visibility) < 1e-12
    assert se < 1e-3


def test_estimate_visibility_singlet_accuracy():
    run = sweep_visibility(bell_singlet())
    hits = 0
    for seed in range(20):
        counts = sample_shots(run, 10_000, seed=seed)
        v_hat, _ = estimate_visibility(counts, run.phases)
        hits += abs(v_hat - 1.0) <= 0.02
    assert hits == 20


def test_estimate_visibility_error_scaling():
    run = sweep_visibility(werner(0.6))
    ses = {n: [] for n in (1000, 2000)}
    for n in ses:
        for seed in range(100):
            counts = sample_shots(run, n, seed=seed)
            ses[n].append(estimate_visibility(counts, run.phases)[1])
    ratio = np.mean(ses[1000]) / np.mean(ses[2000])
    assert abs(ratio - np.sqrt(2)) < 0.2 * np.sqrt(2)


def test_estimate_visibility_rejects_bad_grids():
    counts = np.ones((4, 2))
    with pytest.raises(ValueError):
        estimate_visibility(counts, np.array([0.0, 0.1, 0.2, 0.3]))
    with pytest.raises(ValueError):
        estimate_visibility(np.ones((2, 2)), np.array([0.0, np.pi]))


def test_estimate_visibility_grid_tolerance():
    # allclose's bound on each spacing: 1e-9 + 1e-5 * (2 pi / 8), about 7.85e-6
    counts = np.ones((8, 2))
    grid = 2 * np.pi * np.arange(8) / 8
    shifted = grid.copy()
    shifted[3:] += 7e-6
    estimate_visibility(counts, shifted)
    shifted[3:] += 2e-6
    with pytest.raises(ValueError, match="not uniform"):
        estimate_visibility(counts, shifted)
    with_nan = grid.copy()
    with_nan[5] = np.nan
    with pytest.raises(ValueError, match="not uniform"):
        estimate_visibility(counts, with_nan)


def test_repeat_measurement_identical_inputs():
    rho = ginibre_mixed(3, 2, 60)
    v1, v2 = repeat_measurement_check(rho, rho)
    assert abs(v1 - purity_direct(rho)) < 1e-10
    assert abs(v2 - v1) < 1e-10


def test_repeat_measurement_orthogonal_pures():
    v1, v2 = repeat_measurement_check(fock(0, 2), fock(1, 2))
    assert v1 < 1e-12 and v2 < 1e-12
    run = sweep_visibility(tensor_states(fock(0, 2), fock(1, 2)))
    assert np.abs(run.post_state_unconditional.mat - classical_correlated().mat).max() < 1e-12


def test_repeat_measurement_random_pair_with_insertion_oracle():
    a = ginibre_mixed(3, 3, 61)
    b = ginibre_mixed(3, 2, 62)
    v1, v2 = repeat_measurement_check(a, b)
    assert abs(v1 - v2) < 1e-10
    # inserting the post-state into the flip-expectation formula reproduces v1
    run = sweep_visibility(tensor_states(a, b))
    post = run.post_state_unconditional
    assert abs(abs(np.trace(post.mat @ flip_operator(3)).real) - v1) < 1e-12


def test_physical_mode_matches_ideal_on_safe_support():
    from conftest import embed_mode_state

    a = embed_mode_state(ginibre_mixed(3, 2, 70), 8)
    b = embed_mode_state(ginibre_mixed(3, 3, 71), 8)
    joint = tensor_states(a, b)
    v_ideal = sweep_visibility(joint, mode=IDEAL).visibility
    v_phys = sweep_visibility(joint, mode=PHYSICAL).visibility
    assert abs(v_ideal - v_phys) < 1e-9


def test_witness_delta_separable_mixtures_stay_nonnegative(rng):
    # small version of the soundness sweep; the acceptance suite runs 500
    from qoverlap import CompositeSpace

    for trial in range(40):
        d = 2 if trial % 2 == 0 else 3
        terms = rng.integers(1, 6)
        weights = rng.dirichlet(np.ones(terms))
        mat = np.zeros((d * d, d * d), dtype=complex)
        for t in range(terms):
            a = ginibre_mixed(d, d, int(rng.integers(1 << 30)))
            b = ginibre_mixed(d, d, int(rng.integers(1 << 30)))
            mat += weights[t] * tensor(a.mat, b.mat)
        rho = DensityMatrix(CompositeSpace((d, d)), mat)
        assert witness_delta(rho) >= -1e-9


PRODUCT_MODES = {
    "ideal": lambda d: IDEAL,
    "physical": lambda d: PHYSICAL,
    "hamiltonian:linear_coupling": lambda d: hamiltonian_mode(linear_coupling(1.0, d)),
    "hamiltonian:dispersive_cps": lambda d: hamiltonian_mode(dispersive_cps(1.0, d)),
    "hamiltonian:ion_qnd": lambda d: hamiltonian_mode(ion_qnd(1.0, d)),
    "hamiltonian:ion_qnd_0.83t": lambda d: hamiltonian_mode(ion_qnd(1.0, d, interaction_time=0.83 * np.pi / 2)),
}


@pytest.mark.parametrize("label", list(PRODUCT_MODES))
@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(2, 6),
    seeds=st.tuples(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1)),
    ranks=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    phase_count=st.integers(3, 9),
    psi=st.floats(0.0, 2 * np.pi),
)
def test_product_input_matches_dense_joint(label, d, seeds, ranks, phase_count, psi):
    # Full-rank Ginibre factors populate every Fock level, including the
    # sectors above total photon number d - 1 where composed gates leak.
    a = ginibre_mixed(d, min(ranks[0], d), seeds[0])
    b = ginibre_mixed(d, min(ranks[1], d), seeds[1])
    mode = PRODUCT_MODES[label](d)
    by_factors = sweep_visibility(ProductState(a, b), phase_count, mode)
    dense = sweep_visibility(tensor_states(a, b), phase_count, mode)
    assert np.abs(by_factors.p_up - dense.p_up).max() < 1e-12
    assert np.abs(by_factors.p_down - dense.p_down).max() < 1e-12
    assert abs(by_factors.visibility - dense.visibility) < 1e-12
    assert abs(by_factors.delta - dense.delta) < 1e-12
    post_diff = by_factors.post_state_unconditional.mat - dense.post_state_unconditional.mat
    assert np.abs(post_diff).max() < 1e-12

    one_factored = run_device(ProductState(a, b), psi, mode)
    one_dense = run_device(tensor_states(a, b), psi, mode)
    assert abs(one_factored.p_up - one_dense.p_up) < 1e-12
    for name in ("post_up", "post_down", "post_unconditional"):
        x, y = getattr(one_factored, name), getattr(one_dense, name)
        assert (x is None) == (y is None)
        if x is not None:
            assert np.abs(x.mat - y.mat).max() < 1e-12



POST_STATE_MODES = {
    **PRODUCT_MODES,
    "hamiltonian:linear_coupling_pi/8": lambda d: hamiltonian_mode(linear_coupling(1.0, d, interaction_time=np.pi / 8)),
}


@pytest.mark.parametrize("label", list(POST_STATE_MODES))
@settings(max_examples=20, deadline=None)
@given(
    d=st.integers(2, 6),
    seeds=st.tuples(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1)),
    ranks=st.tuples(st.integers(1, 36), st.integers(1, 6)),
    as_product=st.booleans(),
)
# Cutoffs above the drawn range, with every state populated: the strided
# views of the reduced post-state read entries of other states there.
@example(d=7, seeds=(3, 4), ranks=(7, 6), as_product=True)
@example(d=7, seeds=(5, 6), ranks=(49, 1), as_product=False)
@example(d=12, seeds=(7, 8), ranks=(12, 11), as_product=True)
@example(d=12, seeds=(9, 10), ranks=(144, 1), as_product=False)
def test_post_state_quantities_match_the_dense_post_state(label, d, seeds, ranks, as_product):
    # Ginibre inputs of full rank populate the sectors above total photon
    # number d - 1, where the composed gates leak.
    if as_product:
        rho = ProductState(ginibre_mixed(d, min(ranks[0], d), seeds[0]), ginibre_mixed(d, ranks[1] % d + 1, seeds[1]))
    else:
        rho = random_joint_state(d, seeds[0], min(ranks[0], d * d))
    mode = POST_STATE_MODES[label](d)
    run = sweep_visibility(rho, mode=mode)
    dense = run.post_state_unconditional
    reduced = run.reduced_post_state
    assert reduced.space.dims == (d,)
    assert np.abs(reduced.mat - partial_trace(dense, 0).mat).max() < 1e-12
    assert abs(run.post_visibility - sweep_visibility(dense, mode=mode).visibility) < 1e-12
