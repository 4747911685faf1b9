import ast
import gc
import tracemalloc
from pathlib import Path

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
    CompositeSpace,
    bell_singlet,
    classical_correlated,
    dispersive_cps,
    estimate_visibility,
    fidelity_with_pure,
    fock,
    ginibre_mixed,
    hamiltonian_mode,
    hs_distance,
    ion_qnd,
    linear_coupling,
    linear_entropy,
    overlap,
    purity,
    repeat_measurement_check,
    sample_shots,
    singlet_ket,
    sweep_visibility,
    tensor,
    tensor_states,
    werner,
    witness,
    witness_delta,
)
from qoverlap import linalg, protocol
from qoverlap.gates import number_sectors
from qoverlap.observables import flip_expectation, overlap_direct, purity_direct
from conftest import (
    embed_joint_state,
    embed_mode_state,
    flip_operator,
    literal_branches,
    literal_device_run,
    partial_trace,
    random_joint_state,
)


def product_input(d, seed_a, seed_b, rank_a=None, rank_b=None):
    a = ginibre_mixed(d, rank_a or d, seed_a)
    b = ginibre_mixed(d, rank_b or d, seed_b)
    return a, b, tensor_states(a, b)


def test_vacuum_pair_fringe_is_cosine():
    joint = tensor_states(fock(0, 3), fock(0, 3))
    run = sweep_visibility(joint, 9)
    assert np.abs(run.p_down - 0.5 * (1 + np.cos(run.phases))).max() < 1e-12
    assert np.abs(run.p_up + run.p_down - 1.0).max() < 1e-12


def test_orthogonal_pair_fringe_is_flat():
    joint = tensor_states(fock(0, 3), fock(1, 3))
    run = sweep_visibility(joint, 7)
    assert np.abs(run.p_up - 0.5).max() < 1e-12
    assert np.abs(run.p_down - 0.5).max() < 1e-12


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
            # the closed-form sweep and witness, read off the literal circuit
            star = literal_device_run(rho, np.pi, mode)
            assert abs(witness_delta(rho, mode) - (star.p_up - star.p_down)) < 1e-12
            for phase_count in (4, 5):
                run = sweep_visibility(rho, phase_count, mode)
                lits = [literal_device_run(rho, psi, mode) for psi in run.phases]
                assert np.abs(run.p_up - [lit.p_up for lit in lits]).max() < 1e-12
                assert np.abs(run.p_down - [lit.p_down for lit in lits]).max() < 1e-12
                assert abs(run.delta - (star.p_up - star.p_down)) < 1e-12
                # the unconditional post-state does not depend on the phase
                for lit in lits:
                    assert np.abs(run.post_state_unconditional.mat - lit.post_unconditional).max() < 1e-12


def sector_unitary(w, k, d):
    """Block k of a branch unitary: the base's (J or 1), plus its patch if compiled."""
    from qoverlap.protocol import _compile

    size = len(range(d * d)[number_sectors(d)[k].idx])
    base = np.eye(size)[::-1] if w.flip else np.eye(size)
    return base + _compile(w, d)[k] if k in w.patched else base


def test_compiled_branches_cached_per_mode_and_interaction_time():
    from qoverlap.protocol import _compile, _mode_swap_operator

    d = 3
    rho = random_joint_state(d, 77)
    # each pair differs only in interaction time and runs back to back
    pairs = [
        (ion_qnd(1.0, d), ion_qnd(1.0, d, interaction_time=0.83 * np.pi / 2)),
        (linear_coupling(1.0, d), linear_coupling(1.0, d, interaction_time=np.pi / 8)),
    ]
    modes = [hamiltonian_mode(spec) for pair in pairs for spec in pair]
    # the ion at its default time compiles W_up (= W_rel), at 0.83 t all three
    # branches, and linear coupling one W_up at each time
    compiled = 1 + 3 + 1 + 1
    _compile.cache_clear()
    hits = []
    for repeat in range(2):
        for mode in modes:
            run = sweep_visibility(rho, 4, mode)
            lit = literal_device_run(rho, run.phases[1], mode)
            assert abs(run.p_up[1] - lit.p_up) < 1e-12
            assert np.abs(run.post_state_unconditional.mat - lit.post_unconditional).max() < 1e-12
        # a repeated (mode, cutoff) is served from the cache, never recompiled
        info = _compile.cache_info()
        hits.append(info.hits)
        assert info.misses == compiled
    assert hits[1] > hits[0]
    for mode in modes[:2]:
        branches = [w for w in _mode_swap_operator(mode, d) if w.patched]
        assert branches
        for w in branches:
            for array in _compile(w, d).values():
                with pytest.raises(ValueError):
                    array[0] = 0
        # W_rel = W_dn^dag W_up for the ion, on every sector
        w_up, w_dn, w_rel = _mode_swap_operator(mode, d)
        for k in range(2 * d - 1):
            want = sector_unitary(w_dn, k, d).conj().T @ sector_unitary(w_up, k, d)
            assert np.abs(sector_unitary(w_rel, k, d) - want).max() < 1e-12
    # every other mode reads W_up itself, and W_dn is the identity
    w_up, w_dn, w_rel = _mode_swap_operator(modes[2], d)
    assert not w_dn.flip and not w_dn.patched and w_rel is w_up


def test_device_never_compiles_through_time_evolution(monkeypatch):
    from qoverlap import reference
    from qoverlap.protocol import _compile

    def refuse(*args, **kwargs):
        raise AssertionError("compiled a branch by evolving a dense Hamiltonian")

    monkeypatch.setattr(reference, "realize_gate", refuse)
    monkeypatch.setattr(reference, "exp_unitary", refuse)
    _compile.cache_clear()
    d = 4
    a, b, product = product_input(d, 41, 42)
    for make in ORACLE_MODES.values():
        mode = make(d)
        sweep_visibility(ProductState(a, b), 5, mode)
        sweep_visibility(product, 5, mode).post_state_unconditional
        hs_distance(a, b, MeasurementSettings(mode=mode))


def test_unconditional_post_state_mixes_the_inputs():
    a, b, joint = product_input(4, 33, 34, rank_a=2)
    expected = 0.5 * (tensor(a.mat, b.mat) + tensor(b.mat, a.mat))
    for rho in (joint, ProductState(a, b)):
        post = sweep_visibility(rho).post_state_unconditional
        assert np.abs(post.mat - expected).max() < 1e-10


# Conditional post-states exist only in the literal circuit.


def test_conditional_post_states_undefined_at_zero_probability():
    joint = tensor_states(fock(0, 3), fock(0, 3))
    r = literal_device_run(joint, 0.0, IDEAL)  # p_up = 0 exactly
    assert r.post_up is None
    assert r.post_down is not None
    DensityMatrix(joint.space, r.post_down).validate()


@pytest.mark.parametrize("as_product", [False, True])
def test_conditional_post_states_valid_at_tiny_probability(as_product):
    # p_up ~ psi^2 / 4 = 2.5e-11: above the conditioning floor, yet the
    # closed form (1 - cos psi) / 2 loses ~1e-6 of it to cancellation.
    a, b = fock(0, 3), fock(0, 3)
    joint = ProductState(a, b) if as_product else tensor_states(a, b)
    r = literal_device_run(joint, 1e-5, IDEAL)
    assert 1e-12 < r.p_up < 1e-10
    assert abs(np.trace(r.post_up) - 1.0) < 1e-10
    DensityMatrix(joint.space, r.post_up).validate()
    DensityMatrix(joint.space, r.post_down).validate()


def test_non_positive_inputs_are_refused():
    # DensityMatrix checks Hermiticity and trace only.  Exactly, this pair reads
    # an overlap of 2.5 and p_down = 1.75 at psi = 0; sampled, a clamped 1.207.
    a = DensityMatrix(CompositeSpace((2,)), np.diag([1.5, -0.5]))
    for call in (
        lambda: sweep_visibility(ProductState(a, a)),
        lambda: sweep_visibility(tensor_states(a, a), mode=PHYSICAL),
        lambda: overlap(a, a),
        lambda: overlap(a, a, MeasurementSettings(shots=100, seed=1)),
        lambda: witness_delta(tensor_states(a, a)),
    ):
        with pytest.raises(ValueError, match="not positive"):
            call()


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
    hi, lo = run.p_down.max(), run.p_down.min()
    assert abs(run.visibility - (hi - lo) / (hi + lo)) < 1e-9


def test_sweep_requires_three_phases():
    with pytest.raises(ValueError):
        sweep_visibility(bell_singlet(), phase_count=2)


def test_device_rejects_mismatched_cutoffs():
    bad = ginibre_mixed(6, 3, 1, dims=(2, 3))
    with pytest.raises(ValueError):
        sweep_visibility(bad)
    three_modes = ginibre_mixed(8, 2, 0, dims=(2, 2, 2))
    for run in (sweep_visibility, witness):
        with pytest.raises(ValueError, match="device input must live on two modes"):
            run(three_modes)


def test_device_mode_refuses_unknown_kinds_and_misplaced_specs():
    with pytest.raises(ValueError, match="unknown device mode kind"):
        protocol.DeviceMode("quantum")
    for kind, spec in (("hamiltonian", None), ("physical", linear_coupling(1.0, 4))):
        with pytest.raises(ValueError, match="requires a HamiltonianSpec"):
            protocol.DeviceMode(kind, spec)


# The calibrated phase is pi: there the gate-free interferometer closes.


def test_calibration_closes_the_empty_interferometer():
    for seed in (0, 1):
        _, _, joint = product_input(3, 10 + seed, 20 + seed)
        for mode in (IDEAL, hamiltonian_mode(ion_qnd(1.0, 3))):
            # without the controlled gate p_up is 1; with it, p_up = (1+delta)/2
            assert literal_device_run(joint, np.pi, mode, controlled_step=False).p_up >= 1.0 - 1e-9
            opposite = literal_device_run(joint, 0.0, mode, controlled_step=False)
            assert opposite.p_up <= 1e-9
            p_up = (1 + witness_delta(joint, mode)) / 2
            assert p_up <= 1.0
            assert abs(literal_device_run(joint, np.pi, mode).p_up - p_up) < 1e-12


def test_calibration_state_independent_and_grid_robust():
    for rho in (tensor_states(fock(0, 4), fock(2, 4)), random_joint_state(3, 3)):
        assert literal_device_run(rho, np.pi, IDEAL, controlled_step=False).p_up >= 1.0 - 1e-9
    # grids without a point at the fringe maximum still report delta at pi
    rho = random_joint_state(2, 4)
    star = literal_device_run(rho, np.pi, IDEAL)
    for k in (3, 5, 7):
        assert abs(sweep_visibility(rho, k).delta - (star.p_up - star.p_down)) < 1e-12


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
    from qoverlap.protocol import _grid

    rho = random_joint_state(2, 5151)
    phases = _grid(8).phases
    p_other = np.array([literal_device_run(rho, p, IDEAL, controlled_step=False).p_down for p in phases])
    # the fringe's first harmonic peaks where its phase cancels
    psi_star = (-np.angle(np.sum(p_other * np.exp(-1j * phases)))) % (2 * np.pi)
    r = literal_device_run(rho, psi_star, IDEAL)
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


@pytest.mark.parametrize("phase_count", [8.5, 8.0, True])
def test_sweep_refuses_phase_counts_that_are_not_integers(phase_count):
    # 8.5 would give 9 phases that estimate_visibility refuses; 8.0 would pass as 8
    with pytest.raises(TypeError, match="phase_count must be an integer"):
        sweep_visibility(bell_singlet(), phase_count)


def test_sweep_takes_numpy_integer_phase_counts():
    from qoverlap.protocol import _grid

    assert sweep_visibility(bell_singlet(), np.int64(8)).phases is _grid(8).phases
    with pytest.raises(ValueError, match="at least 3"):
        sweep_visibility(bell_singlet(), np.int32(2))


def test_sample_shots_refuses_counts_and_seeds_that_are_not_integers():
    run = sweep_visibility(random_joint_state(2, 8))
    for shots in (2.5, 2.0, True):
        with pytest.raises(TypeError, match="shots_per_phase must be an integer"):
            sample_shots(run, shots, 1)
    for seed in (1.5, 1.0, True, "1"):
        with pytest.raises(TypeError, match="seed must be an integer"):
            sample_shots(run, 10, seed)
    with pytest.raises(ValueError, match="shots_per_phase must be at least 1"):
        sample_shots(run, 0, 1)
    with pytest.raises(ValueError, match="shots_per_phase must be at most 9223372036854775807"):
        sample_shots(run, 2**63, 1)
    counts = sample_shots(run, np.int64(10), np.uint64(3))
    assert counts.dtype == np.int64 and np.array_equal(counts, sample_shots(run, 10, 3))
    counts = sample_shots(run, 2**63 - 1, 1)  # the largest count numpy's binomial draws
    assert counts.tolist() == [[up, 2**63 - 1 - up] for up in counts[:, 0].tolist()]


@pytest.mark.filterwarnings("error")
def test_sample_shots_seed_is_taken_mod_2_64():
    run = sweep_visibility(random_joint_state(2, 8))

    def draw(seed):
        return sample_shots(run, 1000, seed).tolist()

    assert len({str(draw(s)) for s in (-1, -2, 0)}) == 3
    for s in (0, 5, -1, 2**53 + 1):
        assert draw(s) == draw(s + 2**64)
    assert draw(2**53) != draw(2**53 + 1)


def _fresh(seed, k=0):
    """A freshly built generator on the Philox stream keyed by (seed mod 2**64, k)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, k], dtype=np.uint64)))


def _per_phase_oracle(run, shots, seed):
    """One fresh Philox generator per phase, keyed by (seed mod 2**64, k)."""
    counts = []
    for k, p in enumerate(run.p_up):
        up = int(_fresh(seed, k).binomial(shots, np.clip(p, 0.0, 1.0)))
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


def _ginibre_oracle(dim, rank, seed):
    rng = _fresh(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def test_keyed_streams_leak_no_state_between_calls():
    from qoverlap.observables import witness

    runs = {k: sweep_visibility(random_joint_state(2, 60 + k), k) for k in (3, 8, 13)}
    seeds = (-1, 0, 5, 2**53 + 1, 2**64 - 3)
    jobs = {}
    for seed in seeds:
        for k, run in runs.items():
            jobs["shots", seed, k] = lambda run=run, seed=seed: sample_shots(run, 997, seed)
        jobs["witness", seed] = lambda seed=seed: witness(werner(0.4), MeasurementSettings(shots=501, seed=seed))
        jobs["ginibre", seed] = lambda seed=seed: ginibre_mixed(5, 3, seed)
    alone = {name: job() for name, job in jobs.items()}
    order = list(jobs) * 2
    np.random.default_rng(7).shuffle(order)
    for name in order:
        value = jobs[name]()
        if name[0] == "shots":
            assert np.array_equal(value, alone[name])
            run, seed = runs[name[2]], name[1]
            for k, (p, (up, down)) in enumerate(zip(run.p_up, value)):
                assert up == _fresh(seed, k).binomial(997, min(max(p, 0.0), 1.0)) and up + down == 997
        elif name[0] == "witness":
            assert value == alone[name]
            p_up = 0.5 * (1.0 + value.run.delta)
            assert value.device_value == 2.0 * _fresh(name[1]).binomial(501, p_up) / 501 - 1.0
        else:
            assert np.array_equal(value.mat, alone[name].mat)
            assert np.array_equal(value.mat, _ginibre_oracle(5, 3, name[1]))


def test_keyed_stream_starts_at_counter_zero_after_a_partial_draw():
    from qoverlap.states import _keyed

    for draw in (lambda g: g.random(dtype=np.float32), lambda g: g.integers(0, 7, size=3),
                 lambda g: g.standard_normal(5)):
        draw(_keyed(11, 2))  # leaves a half-used word or a part-read buffer behind
        assert np.array_equal(_keyed(11, 2).random(9), _fresh(11, 2).random(9))


def test_two_threads_sampling_at_once_match_serial_calls():
    import sys
    import threading

    runs = [sweep_visibility(random_joint_state(2, 70 + k), k) for k in (3, 8, 13)]
    work = [[(runs[i % 3], 10 + 17 * i + t) for i in range(150)] for t in range(2)]
    serial = [[sample_shots(run, 1000, seed) for run, seed in jobs] for jobs in work]
    threaded = [None, None]
    barrier = threading.Barrier(2)

    def sample(t):
        barrier.wait(timeout=60)
        threaded[t] = [sample_shots(run, 1000, seed) for run, seed in work[t]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        threads = [threading.Thread(target=sample, args=(t,)) for t in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for t in range(2):
        assert all(np.array_equal(a, b) for a, b in zip(threaded[t], serial[t], strict=True))


def test_sweep_phases_are_one_read_only_grid_per_phase_count():
    from qoverlap.protocol import _grid

    first, second = sweep_visibility(bell_singlet(), 8), sweep_visibility(werner(0.3), 8)
    assert first.phases is second.phases is _grid(8).phases
    for array in _grid(8):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0
    with pytest.raises(ValueError, match="at least 3 phases"):
        sweep_visibility(bell_singlet(), phase_count=2)


def test_grids_beyond_the_kept_phase_counts_are_built_per_sweep():
    from qoverlap.protocol import _GRID_MAX_CACHED, _GRIDS

    large = _GRID_MAX_CACHED + 1
    first, second = sweep_visibility(bell_singlet(), large), sweep_visibility(bell_singlet(), large)
    assert first.phases is not second.phases and large not in _GRIDS
    assert not first.phases.flags.writeable
    counts = sample_shots(first, 1000, 3)
    assert estimate_visibility(counts, first.phases) == estimate_visibility(counts, np.array(first.phases.tolist()))


@pytest.mark.parametrize("phase_count", [3, 8, 13, 65])
def test_fringes_read_later_are_the_closed_form_in_every_bit(phase_count):
    # 65 phases is past _GRID_MAX_CACHED: that grid is built per sweep
    d = 4
    phases = 2.0 * np.pi * np.arange(phase_count) / phase_count
    inputs = [
        (ProductState(fock(1, d), fock(1, d)), IDEAL),  # c = 1: p_up floors at 0
        (random_joint_state(d, 700 + phase_count), PHYSICAL),
        (ProductState(ginibre_mixed(d, 2, 701), ginibre_mixed(d, 3, 702)), hamiltonian_mode(ion_qnd(1.0, d, 0.3))),
    ]
    for first_read in ("p_up", "p_down"):
        for rho, mode in inputs:
            run = sweep_visibility(rho, phase_count, mode)
            assert "p_up" not in vars(run) and "p_down" not in vars(run)
            getattr(run, first_read)
            cross = (np.exp(1j * phases) * run.c).real
            assert np.array_equal(run.p_up, np.maximum(0.5 * (1.0 - cross), 0.0))
            assert np.array_equal(run.p_down, np.maximum(0.5 * (1.0 + cross), 0.0))
            assert run.p_up is run.p_up and run.p_down is run.p_down


@pytest.mark.parametrize("phase_count", [3, 8, 13])
def test_estimate_visibility_on_a_copy_of_the_grid_is_bit_identical(phase_count):
    run = sweep_visibility(random_joint_state(2, 80 + phase_count), phase_count)
    for seed in range(5):
        counts = sample_shots(run, 1000, seed)
        copy = np.array(run.phases.tolist())
        assert copy is not run.phases and np.array_equal(copy, run.phases)
        assert estimate_visibility(counts, copy) == estimate_visibility(counts, run.phases)


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


def test_estimate_visibility_standard_error_at_and_near_a_fringe_null():
    # With unequal totals the per-phase variances differ, so the gradient's
    # error and the isotropic scale of the null differ too.
    k = 8
    phases = 2 * np.pi * np.arange(k) / k
    totals = 100.0 + 37.5 * np.arange(k)
    for c in (0.0, 1e-4):
        p_dn = 0.5 * (1.0 + c * np.cos(phases))
        counts = np.column_stack([totals * (1.0 - p_dn), totals * p_dn])
        var_p = p_dn * (1.0 - p_dn) / totals
        v_hat, std_error = estimate_visibility(counts, phases)
        if c == 0.0:  # an exact null: p_dn = 1/2 at every phase
            expected = np.sqrt((8.0 / k**2) * var_p.sum())
        else:  # the gradient (4/K) cos psi_k of |c_hat| at a real c_hat
            expected = np.sqrt((((4.0 / k) * np.cos(phases)) ** 2 * var_p).sum())
        assert abs(v_hat - c) < 1e-15
        assert abs(std_error - expected) < 1e-12 * expected


def test_estimate_visibility_rejects_bad_grids():
    counts = np.ones((4, 2))
    with pytest.raises(ValueError):
        estimate_visibility(counts, np.array([0.0, 0.1, 0.2, 0.3]))
    with pytest.raises(ValueError):
        estimate_visibility(np.ones((2, 2)), np.array([0.0, np.pi]))
    with pytest.raises(ValueError, match="positive total count"):
        estimate_visibility([[0, 0], [1, 1], [1, 1]], 2 * np.pi * np.arange(3) / 3)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_estimate_visibility_refuses_non_finite_and_negative_counts(bad):
    # On K = 4, a NaN count used to give (nan, nan), an inf one a finite-looking
    # 0.5 +- 0.354, and a negative one a math domain error.
    counts = np.ones((4, 2))
    counts[1, 0] = bad
    phases = 2 * np.pi * np.arange(4) / 4
    with pytest.raises(ValueError, match="finite and nonnegative"):
        estimate_visibility(counts, phases)


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


def _imported_modules(tree):
    """Every module an import statement of the tree names, dotted, with relative imports resolved."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["qoverlap" if node.level else "", node.module]))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_no_device_module_imports_the_reference():
    package = Path(protocol.__file__).parent
    modules = sorted(path for path in package.glob("*.py") if path.name not in ("reference.py", "__init__.py"))
    assert modules
    for path in modules:
        imported = set(_imported_modules(ast.parse(path.read_text())))
        assert "qoverlap.reference" not in imported, path.name
    assert "qoverlap.reference" in set(_imported_modules(ast.parse((package / "__init__.py").read_text())))


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
    # the fringe off the grid, at psi, read off the literal circuit
    lit = literal_device_run(ProductState(a, b), psi, mode)
    assert abs(0.5 * (1 - (np.exp(1j * psi) * by_factors.c).real) - lit.p_up) < 1e-12


def band_state(d: int, size: int, shift: int, seed: int) -> DensityMatrix:
    """A Ginibre state of full rank on levels shift .. shift + size - 1 of cutoff d, zeros elsewhere."""
    band = ginibre_mixed(size, size, seed).mat if size > 1 else np.ones((1, 1))
    m = np.zeros((d, d), dtype=complex)
    m[shift:shift + size, shift:shift + size] = band
    return DensityMatrix(CompositeSpace((d,)), m)


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(2, 8),
    sizes=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    shifts=st.tuples(st.integers(0, 7), st.integers(0, 7)),
    seeds=st.tuples(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1)),
)
def test_product_and_dense_inputs_answer_every_read_alike(d, sizes, shifts, seeds):
    # Each factor lives on a band of levels, zero-padded on both sides, so
    # the sectors below and above the bands' sums are dead.
    sizes = [min(size, d) for size in sizes]
    shifts = [min(shift, d - size) for size, shift in zip(sizes, shifts)]
    factors = [band_state(d, *band) for band in zip(sizes, shifts, seeds)]
    product, dense = ProductState(*factors), tensor_states(*factors)
    sectors = number_sectors(d)
    every = range(2 * d - 1)
    live = product.live_sectors(every, sectors)
    assert live == dense.live_sectors(every, sectors)
    assert live == list(range(sum(shifts), sum(shifts) + sum(sizes) - 1))
    assert abs(product.flip_trace() - dense.flip_trace()) < 1e-12
    rng = np.random.default_rng(seeds[0])
    for sector in sectors:
        n = len(range(d)[sector.n0])
        patch = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert abs(product.sector_trace(patch, sector) - dense.sector_trace(patch, sector)) < 1e-12
        # the product's two reduced-state reads against views of the dense matrix
        assert np.abs(product.sector_rows(sector) - dense.mat[sector.idx]).max() < 1e-12
    joint = dense.mat.reshape(d, d, d, d)
    for flip, subscripts in ((False, "ijkj->ik"), (True, "jijk->ik")):
        assert np.abs(product.base_partial_trace(flip) - np.einsum(subscripts, joint)).max() < 1e-12
    assert np.abs(product.populations() - dense.populations()).max() < 1e-12
    assert np.array_equal(product.dense(), dense.dense())


@pytest.mark.parametrize("mode, counts", [
    (IDEAL, (0, 0)),
    (PHYSICAL, (1, 2)),
    (hamiltonian_mode(linear_coupling(1.0, 5, 0.3)), (0, 0)),
], ids=["ideal", "physical", "linear_coupling_off_default"])
def test_only_partly_patched_branches_ask_for_live_sectors(monkeypatch, mode, counts):
    # With no patch, or a patch on every sector, the device skips the read.
    calls = []
    live_sectors = ProductState.live_sectors

    def spy(self, *args):
        calls.append(args)
        return live_sectors(self, *args)

    monkeypatch.setattr(ProductState, "live_sectors", spy)
    run = sweep_visibility(ProductState(ginibre_mixed(5, 3, 140), ginibre_mixed(5, 2, 141)), mode=mode)
    after_sweep = len(calls)
    run.reduced_post_state
    assert (after_sweep, len(calls)) == counts


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
    if as_product:  # the reduced post-state reads products only
        reduced = run.reduced_post_state
        assert reduced.space.dims == (d,)
        assert np.abs(reduced.mat - partial_trace(dense, 0).mat).max() < 1e-12
    assert abs(run.post_visibility - sweep_visibility(dense, mode=mode).visibility) < 1e-12


# Every mode is the ideal device plus patches on the sectors it changes.

DEFAULT_TIME_MODES = {
    "physical": lambda d: PHYSICAL,
    "hamiltonian:linear_coupling": lambda d: hamiltonian_mode(linear_coupling(1.0, d)),
    "hamiltonian:dispersive_cps": lambda d: hamiltonian_mode(dispersive_cps(1.0, d)),
    "hamiltonian:ion_qnd": lambda d: hamiltonian_mode(ion_qnd(1.0, d)),
}


def sandwich_oracle(rho, mode):
    """c, post_visibility, the reduced and the unconditional post-state from the dense branches."""
    d = rho.space.dims[0]
    mat = tensor(rho.a.mat, rho.b.mat) if isinstance(rho, ProductState) else rho.mat
    w_up, w_dn = literal_branches(mode, d)
    w_rel = w_dn.conj().T @ w_up
    post = 0.5 * (w_up @ mat @ w_up.conj().T + w_dn @ mat @ w_dn.conj().T)
    reduced = np.einsum("ijkj->ik", post.reshape(d, d, d, d))
    return np.trace(w_rel @ mat), abs(np.trace(w_rel @ post)), reduced, post


def unsafe_population(rho):
    d = rho.space.dims[0]
    if isinstance(rho, ProductState):
        pops = np.outer(np.diag(rho.a.mat).real, np.diag(rho.b.mat).real)
    else:
        pops = np.diag(rho.mat).real.reshape(d, d)
    return pops[np.add.outer(np.arange(d), np.arange(d)) > d - 1].sum()


@pytest.mark.parametrize("label", list(DEFAULT_TIME_MODES))
@settings(max_examples=15, deadline=None)
@given(
    d=st.integers(2, 8),
    seeds=st.tuples(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1)),
    as_product=st.booleans(),
)
@example(d=5, seeds=(140, 150), as_product=True)
@example(d=5, seeds=(141, 151), as_product=True)
def test_unsafe_inputs_match_the_full_sandwich(label, d, seeds, as_product):
    # Full-support Ginibre states reach every incomplete sector N >= d.
    if as_product:
        rho = ProductState(ginibre_mixed(d, d, seeds[0]), ginibre_mixed(d, d, seeds[1]))
    else:
        rho = random_joint_state(d, seeds[0])
    mode = DEFAULT_TIME_MODES[label](d)
    run = sweep_visibility(rho, mode=mode)
    c, post_visibility, reduced, post = sandwich_oracle(rho, mode)
    assert abs(run.c - c) < 1e-12
    assert abs(run.post_visibility - post_visibility) < 1e-12
    if as_product:
        assert np.abs(run.reduced_post_state.mat - reduced).max() < 1e-12
    assert np.abs(run.post_state_unconditional.mat - post).max() < 1e-12
    # the patches are the model's whole truncation error
    assert abs(run.c - sweep_visibility(rho).c) <= 2 * unsafe_population(rho) + 1e-12


SEEDS = st.tuples(*[st.integers(0, 2**31 - 1)] * 3)


@pytest.mark.parametrize("label", list(DEFAULT_TIME_MODES))
@settings(max_examples=10, deadline=None)
@given(d=st.integers(2, 8), seeds=SEEDS)
def test_reports_stay_within_twice_their_unsafe_population(label, d, seeds):
    # Every value is |c| or Re c, and |c - Tr(S rho)| <= 2 p_unsafe at the default time.
    a, b = ginibre_mixed(d, d, seeds[0]), ginibre_mixed(d, d, seeds[1])
    joint = random_joint_state(d, seeds[2])
    psi = [1, 1j] @ np.random.default_rng(seeds[2]).standard_normal((2, d))
    psi /= np.linalg.norm(psi)
    projector = DensityMatrix(CompositeSpace((d,)), np.outer(psi, psi.conj()))
    exact = MeasurementSettings(mode=DEFAULT_TIME_MODES[label](d))
    # each report with the input of its run
    reports = [
        (overlap(a, b, exact), ProductState(a, b)),
        (purity(a, exact), ProductState(a, a)),
        (linear_entropy(a, exact), ProductState(a, a)),
        (fidelity_with_pure(a, psi, exact), ProductState(a, projector)),
        (witness(joint, exact), joint),
    ]
    for report, rho in reports:
        # full-support inputs reach every sector N >= d
        assert report.unsafe_population > 0.0
        assert abs(report.unsafe_population - unsafe_population(rho)) < 1e-12
        assert report.abs_error <= 2 * report.unsafe_population + 1e-12


@settings(max_examples=10, deadline=None)
@given(d=st.integers(3, 8), seeds=SEEDS)
def test_unsafe_population_is_zero_on_the_ideal_device_and_on_safe_inputs(d, seeds):
    a, b = ginibre_mixed(d, d, seeds[0]), ginibre_mixed(d, d, seeds[1])
    joint = random_joint_state(d, seeds[2])
    for report in (overlap(a, b), purity(a), hs_distance(a, b), witness(joint)):
        assert report.unsafe_population == 0.0
    # levels <= (d - 1) // 2 keep every total photon number below d
    k = (d + 1) // 2
    safe_a = embed_mode_state(ginibre_mixed(k, k, seeds[0]), d)
    safe_b = embed_mode_state(ginibre_mixed(k, k, seeds[1]), d)
    safe_joint = embed_joint_state(random_joint_state(k, seeds[2]), d)
    for make_mode in DEFAULT_TIME_MODES.values():
        exact = MeasurementSettings(mode=make_mode(d))
        for report in (overlap(safe_a, safe_b, exact), purity(safe_a, exact),
                       hs_distance(safe_a, safe_b, exact), witness(safe_joint, exact)):
            assert report.unsafe_population == 0.0


@pytest.mark.parametrize("label", list(DEFAULT_TIME_MODES))
@settings(max_examples=10, deadline=None)
@given(d=st.integers(2, 8), seeds=SEEDS)
def test_hs_distance_reports_the_largest_unsafe_population_of_its_three_runs(label, d, seeds):
    a, b = ginibre_mixed(d, d, seeds[0]), ginibre_mixed(d, 1 + seeds[2] % d, seeds[1])
    exact = MeasurementSettings(mode=DEFAULT_TIME_MODES[label](d))
    pa, pb = purity(a, exact), purity(b, exact)
    o = overlap(pa.run.reduced_post_state, pb.run.reduced_post_state, exact)
    runs = (pa.unsafe_population, pb.unsafe_population, o.unsafe_population)
    assert hs_distance(a, b, exact).unsafe_population == max(runs) > 0.0


def count_eigh(monkeypatch):
    solved = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: solved.append(h.shape) or eigh(h))
    return solved


@pytest.mark.parametrize("label", list(DEFAULT_TIME_MODES))
def test_safe_inputs_compile_nothing_at_the_default_time(monkeypatch, label):
    from qoverlap import gates
    from qoverlap.protocol import _compile

    d = 9
    # Safe sector: levels <= (d - 1) // 2, where every mode is exact.
    a = embed_mode_state(ginibre_mixed(5, 5, 120), d)
    b = embed_mode_state(ginibre_mixed(5, 3, 121), d)
    joint = tensor_states(a, b)
    mode = DEFAULT_TIME_MODES[label](d)
    _compile.cache_clear()
    gates._coupler_eigensystems.cache_clear()
    solved = count_eigh(monkeypatch)
    for rho in (ProductState(a, b), joint):
        run, ideal = sweep_visibility(rho, mode=mode), sweep_visibility(rho)
        # the ideal device's numbers, not merely close to them
        assert run.c == ideal.c
        assert run.post_visibility == ideal.post_visibility
        if isinstance(rho, ProductState):
            assert np.array_equal(run.reduced_post_state.mat, ideal.reduced_post_state.mat)
    assert hs_distance(a, b, MeasurementSettings(mode=mode)).abs_error < 1e-12
    assert _compile.cache_info().misses == 0
    assert solved == []


def test_unsafe_input_solves_exactly_the_incomplete_sectors(monkeypatch):
    from qoverlap import gates
    from qoverlap.protocol import _compile

    d = 6
    _compile.cache_clear()
    gates._coupler_eigensystems.cache_clear()
    solved = count_eigh(monkeypatch)
    rho = ProductState(ginibre_mixed(d, d, 130), ginibre_mixed(d, d, 131))
    run = sweep_visibility(rho, mode=PHYSICAL)
    run.post_visibility, run.reduced_post_state, run.post_state_unconditional
    slots = gates._coupler_eigensystems(d)
    assert [k for k, slot in enumerate(slots) if slot is not None] == list(range(d, 2 * d - 1))
    # sectors N = d .. 2d - 2 hold d - 1 .. 1 states, one eigensolve each
    assert [shape[0] for shape in solved] == list(range(d - 1, 0, -1))


def test_reduced_reads_keep_no_row_table():
    # Each read builds the d^3 table of its branch's rows and drops it.
    # What the read leaves behind, the compiled patches and the cutoff's
    # sector tables and eigensystems, is below one table.
    from qoverlap import gates
    from qoverlap.protocol import _compile

    for d in (18, 36):
        factor = ginibre_mixed(d, d, 2)
        rho = ProductState(factor, factor)
        _compile.cache_clear()
        gates._coupler_eigensystems.cache_clear()
        tracemalloc.start()
        try:
            sweep_visibility(rho, mode=PHYSICAL).reduced_post_state
            gc.collect()
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 16 * d**3, d


@pytest.mark.parametrize(
    "make, default",
    [(linear_coupling, np.pi / 4), (dispersive_cps, np.pi), (ion_qnd, np.pi / 2)],
    ids=["linear_coupling", "dispersive_cps", "ion_qnd"],
)
def test_default_time_tolerance_from_both_sides(make, default):
    from qoverlap.protocol import _mode_swap_operator

    d = 4
    rho = random_joint_state(d, 150)
    # the reduced post-state reads products only
    product = ProductState(ginibre_mixed(d, d, 151), ginibre_mixed(d, d, 152))
    incomplete, every = range(d, 2 * d - 1), range(2 * d - 1)
    for time, patched in (
        (np.nextafter(default, 0.0), incomplete),
        (np.nextafter(default, 4.0), incomplete),
        (default * (1 - 1e-9), every),
        (default * (1 + 1e-9), every),
    ):
        mode = hamiltonian_mode(make(1.0, d, interaction_time=time))
        assert _mode_swap_operator(mode, d)[0].patched == patched
        run = sweep_visibility(rho, mode=mode)
        c, post_visibility, _, post = sandwich_oracle(rho, mode)
        assert abs(run.c - c) < 1e-12
        assert abs(run.post_visibility - post_visibility) < 1e-12
        assert np.abs(run.post_state_unconditional.mat - post).max() < 1e-12
        reduced = sandwich_oracle(product, mode)[2]
        assert np.abs(sweep_visibility(product, mode=mode).reduced_post_state.mat - reduced).max() < 1e-12


def test_rows_outside_the_diagonal_blocks_still_reach_the_patches():
    # DensityMatrix does not check positivity: this input couples the empty
    # states |1, d-1> and |d-1, d-1> of sectors d and 2d - 2, so every
    # patched sector's diagonal block is 0 but two of their rows are not.
    from qoverlap import CompositeSpace

    d = 4
    a = embed_mode_state(ginibre_mixed(2, 2, 160), d)
    mat = np.kron(a.mat, a.mat)
    mat[d + d - 1, -1] = mat[-1, d + d - 1] = 0.05
    rho = DensityMatrix(CompositeSpace((d, d)), mat)
    for label, make in DEFAULT_TIME_MODES.items():
        mode = make(d)
        run = sweep_visibility(rho, mode=mode)
        c, post_visibility, _, post = sandwich_oracle(rho, mode)
        assert abs(run.c - c) < 1e-12, label
        assert abs(run.post_visibility - post_visibility) < 1e-12, label
        assert np.abs(run.post_state_unconditional.mat - post).max() < 1e-12, label
        # the reduced post-state reads products only
        with pytest.raises(TypeError, match="ProductState"):
            run.reduced_post_state


def test_rows_outside_the_diagonal_blocks_reach_the_reduced_post_state_of_a_product():
    # A Hermitian factor of trace 1 that is not positive: a[3, 3] = 0 but
    # row 3 is not, so sector 2d - 2 of a (x) a, the state |3, 3>, has a
    # zero diagonal block and a nonzero row.  A rule that skips sectors by
    # their diagonal blocks would drop that row's correction.
    d = 4
    m = np.diag([0.6, 0.4, 0.0, 0.0]).astype(complex)
    m[3, 0] = m[0, 3] = 0.05
    a = DensityMatrix(CompositeSpace((d,)), m)
    rho = ProductState(a, a)
    for label, make in DEFAULT_TIME_MODES.items():
        mode = make(d)
        run = sweep_visibility(rho, mode=mode)
        c, post_visibility, reduced, _ = sandwich_oracle(rho, mode)
        assert abs(run.c - c) < 1e-12, label
        assert abs(run.post_visibility - post_visibility) < 1e-12, label
        assert np.abs(run.reduced_post_state.mat - reduced).max() < 1e-12, label


def reduced_without_patches(rho):
    """The reduced post-state when no patch meets a row, in the streamed path's order."""
    flip, identity = np.trace(rho.a.mat) * rho.b.mat, np.trace(rho.b.mat) * rho.a.mat
    mixed = flip + identity
    mixed += mixed.conj().T
    return 0.25 * mixed


@pytest.mark.parametrize("label", ["ideal", *DEFAULT_TIME_MODES])
def test_reduced_post_state_without_live_patches_keeps_every_bit(label):
    for d in (4, 7):
        # Safe sector: levels <= (d - 1) // 2, which no default-time patch meets.
        k = (d - 1) // 2 + 1
        a = embed_mode_state(ginibre_mixed(k, k, 170 + d), d)
        b = embed_mode_state(ginibre_mixed(k, k - 1, 171 + d), d)
        mode = IDEAL if label == "ideal" else DEFAULT_TIME_MODES[label](d)
        for rho in (ProductState(a, a), ProductState(a, b)):
            reduced = sweep_visibility(rho, mode=mode).reduced_post_state
            assert reduced.space.dims == (d,)
            assert np.array_equal(reduced.mat, reduced_without_patches(rho))


def count_checks(monkeypatch):
    checked = []
    check = DensityMatrix.__post_init__
    monkeypatch.setattr(DensityMatrix, "__post_init__", lambda rho: checked.append(rho.mat.shape) or check(rho))
    return checked


def test_derived_states_are_not_checked_again(monkeypatch):
    d = 5
    a = embed_mode_state(ginibre_mixed(3, 3, 180), d)
    b = embed_mode_state(ginibre_mixed(3, 2, 181), d)
    two_mode = tensor_states(a, b)
    runs = [sweep_visibility(rho, mode=PHYSICAL) for rho in (ProductState(a, b), two_mode)]
    checked = count_checks(monkeypatch)
    for mode in (IDEAL, PHYSICAL):
        assert hs_distance(a, b, MeasurementSettings(mode=mode)).abs_error < 1e-12
    for run in runs:
        assert np.abs(run.post_state_unconditional.mat - sandwich_oracle(run.rho, PHYSICAL)[3]).max() < 1e-12
    assert checked == []
    # a matrix from outside is still checked
    DensityMatrix(a.space, a.mat)
    assert checked == [(d, d)]


def test_a_product_of_two_subsystem_factors_runs_as_two_modes():
    a, b = werner(0.3), werner(0.8)
    pair = ProductState(a, b)
    assert pair.space.dims == (4, 4)
    assert abs(sweep_visibility(pair).visibility - overlap_direct(a, b)) < 1e-12


def test_pipelines_derive_no_state_from_two_subsystem_inputs(monkeypatch):
    derived = []
    make = linalg._derived_state

    def counted(space, mat):
        derived.append(space.dims)
        return make(space, mat)

    monkeypatch.setattr(linalg, "_derived_state", counted)
    monkeypatch.setattr(protocol, "_derived_state", counted)
    a, b = werner(0.3), ginibre_mixed(4, 3, 190, dims=(2, 2))
    # Level 3 of a 4-level mode is above the safe sector, so only the ideal
    # device is exact here; the physical one runs for the count.
    for mode in (IDEAL, PHYSICAL):
        settings = MeasurementSettings(mode=mode)
        reports = [overlap(a, b, settings), purity(b, settings), linear_entropy(a, settings),
                   fidelity_with_pure(b, singlet_ket(), settings)]
        first, second = repeat_measurement_check(a, b, mode)
        if mode == IDEAL:
            assert max(report.abs_error for report in reports) < 1e-12
            assert abs(first - overlap_direct(a, b)) < 1e-12
    assert derived == []


def test_derived_post_states_carry_the_input_trace_unchecked():
    # Tr a = 1 + 0.8e-10 passes DensityMatrix; the reduced post-state of a (x) a
    # has trace (Tr a)^2, outside the constructor's 1e-10, and is not re-checked.
    d = 4
    a = DensityMatrix(CompositeSpace((d,)), np.diag([0.4, 0.3, 0.2, 0.1 + 0.8e-10]))
    b = DensityMatrix(CompositeSpace((d,)), np.diag([0.4, 0.3, 0.2, 0.1 - 0.8e-10]))
    reduced_a = sweep_visibility(ProductState(a, a)).reduced_post_state
    reduced_b = sweep_visibility(ProductState(b, b)).reduced_post_state
    for reduced, trace in ((reduced_a, np.trace(a.mat)), (reduced_b, np.trace(b.mat))):
        assert abs(np.trace(reduced.mat) - trace**2) < 1e-15
        assert 1.5e-10 < abs(np.trace(reduced.mat) - 1) < 2e-10
        assert np.array_equal(reduced.mat, reduced.mat.conj().T)
    # Derived states go on through the device ...
    report = overlap(reduced_a, reduced_b)
    assert report.abs_error < 1e-12
    assert abs(report.device_value - np.trace(reduced_a.mat @ reduced_b.mat).real) < 1e-12
    # ... but a checked rebuild of one refuses it.
    with pytest.raises(ValueError, match="trace differs from 1"):
        DensityMatrix(reduced_a.space, reduced_a.mat)
