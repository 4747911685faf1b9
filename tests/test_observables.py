import json
import math
import tracemalloc

import numpy as np
import pytest

from qoverlap import (
    EXACT,
    IDEAL,
    PHYSICAL,
    CompositeSpace,
    ProductState,
    DensityMatrix,
    MeasurementSettings,
    bell_singlet,
    coherent,
    coherent_ket,
    dispersive_cps,
    fidelity_with_pure,
    fock,
    fock_ket,
    ginibre_mixed,
    hamiltonian_mode,
    hs_distance,
    ion_qnd,
    linear_coupling,
    linear_entropy,
    overlap,
    povm_expectation,
    parse_scenario,
    purity,
    repeat_measurement_check,
    run_scenario,
    thermal,
    werner,
    witness,
)
from qoverlap.observables import (
    flip_expectation,
    hs_distance_direct,
    overlap_direct,
    purity_direct,
    witness_oracle,
)
from qoverlap import observables, protocol
from conftest import embed_joint_state, embed_mode_state, max_entangled_vector, partial_transpose, random_joint_state

SHOT_SETTINGS = MeasurementSettings(shots=20_000, seed=3)


def qubit_maximally_mixed():
    return DensityMatrix(CompositeSpace((2,)), np.eye(2, dtype=complex) / 2)


def test_overlap_identical_pure_states():
    r = overlap(fock(1, 4), fock(1, 4))
    assert abs(r.device_value - 1.0) < 1e-12
    assert r.abs_error < 1e-12
    assert r.shots_used is None and r.std_error is None


def test_overlap_orthogonal_states():
    r = overlap(fock(0, 4), fock(1, 4))
    assert abs(r.device_value) < 1e-12


def test_overlap_truncated_coherent_states():
    r = overlap(coherent(1.0, 32), coherent(0.0, 32))
    assert abs(r.device_value - math.exp(-1)) < 1e-6
    assert r.abs_error < 1e-12


def test_overlap_dimension_mismatch():
    with pytest.raises(ValueError):
        overlap(fock(0, 4), fock(0, 5))


@pytest.mark.parametrize("settings", [EXACT, SHOT_SETTINGS], ids=["exact", "shots"])
@pytest.mark.parametrize("pipeline", [overlap, hs_distance])
def test_unequal_dimensions_are_refused_before_any_sweep(monkeypatch, pipeline, settings):
    sweeps = []

    def spy(*args, **kwargs):
        sweeps.append(args)
        return sweep(*args, **kwargs)

    sweep = protocol.sweep_visibility
    monkeypatch.setattr(protocol, "sweep_visibility", spy)
    with pytest.raises(ValueError, match="equal dimension"):
        pipeline(fock(0, 3), fock(0, 4), settings)
    assert sweeps == []
    pipeline(fock(0, 3), fock(0, 3), settings)  # the spy sees the sweeps of a valid pair
    assert len(sweeps) == (3 if pipeline is hs_distance else 1)


def test_fidelity_projector_cases():
    psi = fock_ket(2, 5)
    assert abs(fidelity_with_pure(fock(2, 5), psi).device_value - 1.0) < 1e-12
    assert abs(fidelity_with_pure(qubit_maximally_mixed(), fock_ket(0, 2)).device_value - 0.5) < 1e-12


def test_fidelity_thermal_ground_level():
    r = fidelity_with_pure(thermal(1.0, 32), fock_ket(0, 32))
    assert abs(r.device_value - 0.5) < 1e-6


def test_fidelity_rejects_unnormalized_state():
    with pytest.raises(ValueError):
        fidelity_with_pure(fock(0, 4), 1.2 * fock_ket(0, 4))
    with pytest.raises(ValueError, match="dimension does not match"):
        fidelity_with_pure(fock(0, 3), [1, 0])


def test_wrong_sizes_are_refused_before_the_d_squared_work():
    # 400 x 400 complex entries are 2.5 MB: the projector |psi><psi| and G G^dag
    # are not formed for a ket or dims that do not fit.  The ket below is also
    # not normalized; its size is checked first.
    ginibre_mixed(2, 1, 0)  # the thread's generator is built once, on the first draw
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dimension does not match"):
            fidelity_with_pure(fock(0, 3), np.ones(400))
        with pytest.raises(ValueError, match="do not multiply to 400"):
            ginibre_mixed(400, 400, 0, dims=(2, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 400 * 400 * 16 // 4


def test_fidelity_normalization_tolerance_is_the_one_enforced():
    rho = thermal(0.5, 6)
    # <psi|psi> - 1 = 1e-8: refused up front, not later by the projector's trace check
    with pytest.raises(ValueError, match=r"\|<psi\|psi> - 1\| exceeds 1e-10"):
        fidelity_with_pure(rho, coherent_ket(0.5, 6) * (1 + 5e-9))
    # <psi|psi> - 1 = 5e-11: accepted, and used as given, not renormalized
    psi = coherent_ket(0.5, 6) * math.sqrt(1 + 5e-11)
    report = fidelity_with_pure(rho, psi)
    assert report.oracle_value == float((psi.conj() @ rho.mat @ psi).real)
    assert report.abs_error < 1e-12


def test_purity_special_cases():
    assert abs(purity(fock(3, 6)).device_value - 1.0) < 1e-12
    assert abs(purity(qubit_maximally_mixed()).device_value - 0.5) < 1e-12


def test_purity_of_joint_state_flattens_structure():
    rho = werner(1 / 3)
    r = purity(rho)
    assert abs(r.device_value - purity_direct(rho)) < 1e-9
    oracle = float(np.trace(rho.mat @ rho.mat).real)
    assert abs(r.oracle_value - oracle) < 1e-15


def test_linear_entropy_cases():
    assert abs(linear_entropy(fock(0, 4)).device_value) < 1e-12
    assert abs(linear_entropy(qubit_maximally_mixed()).device_value - 0.5) < 1e-12
    d = 5
    mixed = DensityMatrix(CompositeSpace((d,)), np.eye(d, dtype=complex) / d)
    assert abs(linear_entropy(mixed).device_value - (1 - 1 / d)) < 1e-12


def test_hs_distance_closed_cases():
    assert abs(hs_distance(fock(0, 3), fock(0, 3)).device_value) < 1e-12
    assert abs(hs_distance(fock(0, 3), fock(1, 3)).device_value - 1.0) < 1e-9
    r = hs_distance(qubit_maximally_mixed(), fock(0, 2))
    assert abs(r.device_value - 0.25) < 1e-9
    assert abs(r.oracle_value - 0.25) < 1e-12


def test_hs_distance_random_pairs_match_direct_trace():
    for seed in range(5):
        a = ginibre_mixed(4, 3, 900 + seed)
        b = ginibre_mixed(4, 2, 950 + seed)
        r = hs_distance(a, b)
        assert r.abs_error < 1e-9
        assert r.device_value >= -1e-10


@pytest.mark.parametrize("mode", [IDEAL, PHYSICAL], ids=["ideal", "physical"])
def test_hs_distance_takes_states_at_the_trace_tolerance(mode):
    # DensityMatrix takes Tr rho = 1 + 0.8e-10.  The reduced post-states have
    # a trace near its square, which must not be re-checked.  In physical mode
    # level 3 reaches the patched sectors, so the streamed path runs, and the
    # device carries the model's truncation error: there the value is held
    # to that of the unit-trace neighbour instead.
    settings = MeasurementSettings(mode=mode)
    a = DensityMatrix(CompositeSpace((4,)), np.diag([0.4, 0.3, 0.2, 0.1 + 0.8e-10]))
    unit = DensityMatrix(CompositeSpace((4,)), np.diag([0.4, 0.3, 0.2, 0.1]))
    report = hs_distance(a, thermal(0.5, 4), settings)
    assert abs(report.device_value - hs_distance(unit, thermal(0.5, 4), settings).device_value) < 1e-9
    if mode is IDEAL:
        assert report.abs_error < 1e-9


@pytest.mark.parametrize("mode", [IDEAL, PHYSICAL], ids=["ideal", "physical"])
def test_positivity_bound_is_the_input_trace(mode):
    # |c| of a pure state with itself is its trace squared, 1 + 1.6e-10 here:
    # above 1, but not above the trace of the product.  Both states sit on
    # levels 0 and 1, where the physical device is exact.
    settings = MeasurementSettings(mode=mode)
    a = DensityMatrix(CompositeSpace((4,)), np.diag([1 + 0.8e-10, 0, 0, 0]))
    b = DensityMatrix(CompositeSpace((4,)), np.diag([0.6, 0.4, 0, 0]))
    assert abs(purity(a, settings).device_value - (1 + 0.8e-10) ** 2) < 1e-12
    assert linear_entropy(a, settings).abs_error < 1e-12
    assert overlap(a, a, settings).abs_error < 1e-12
    assert hs_distance(a, b, settings).abs_error < 1e-9
    # Beyond what a positive state of trace 1 can give, with the excess shown.
    bad = DensityMatrix(CompositeSpace((4,)), np.diag([1 + 1e-6, -1e-6, 0, 0]))
    with pytest.raises(ValueError, match=r"not positive: .* = 1\.000002\d* exceeds its trace"):
        purity(bad, settings)


def test_hs_distance_zero_iff_equal():
    a = ginibre_mixed(3, 3, 77)
    perturbation = np.zeros((3, 3), dtype=complex)
    perturbation[0, 1] = perturbation[1, 0] = 0.01
    b = DensityMatrix(a.space, a.mat + perturbation)
    assert hs_distance(a, b).device_value > 1e-8
    assert abs(hs_distance(a, a).device_value) < 1e-8


def test_exact_mode_device_equals_oracle_on_random_inputs():
    for seed in range(4):
        a = ginibre_mixed(4, 4, 1000 + seed)
        b = ginibre_mixed(4, 2, 1100 + seed)
        assert overlap(a, b).abs_error < 1e-9
        assert purity(a).abs_error < 1e-9
        assert linear_entropy(b).abs_error < 1e-9
        assert hs_distance(a, b).abs_error < 1e-9
    big = thermal(0.5, 12)
    assert purity(big).abs_error < 1e-9


def test_overlap_and_purity_ranges():
    for seed in range(4):
        a = ginibre_mixed(3, 2, 1200 + seed)
        b = ginibre_mixed(3, 3, 1300 + seed)
        o = overlap(a, b).device_value
        assert -1e-10 <= o <= 1.0 + 1e-10
        p = purity(a).device_value
        assert 1 / 3 - 1e-10 <= p <= 1.0 + 1e-10


def test_witness_verdicts():
    singlet_report = witness(bell_singlet())
    assert abs(singlet_report.device_value + 1.0) < 1e-10
    assert singlet_report.verdict == "entangled"

    w25 = witness(werner(0.25))
    assert abs(w25.device_value - 0.125) < 1e-9
    assert w25.verdict == "inconclusive"

    w50 = witness(werner(0.5))
    assert abs(w50.device_value + 0.25) < 1e-9
    assert w50.verdict == "entangled"


@pytest.mark.filterwarnings("error")
def test_shot_witness_seed_is_taken_mod_2_64():
    def value(seed):
        return witness(werner(0.5), MeasurementSettings(shots=10**5, seed=seed)).device_value

    assert len({value(s) for s in (-1, -2, 0)}) == 3
    assert value(-1) == value(2**64 - 1)
    assert value(2**53) != value(2**53 + 1)


def test_witness_oracle_identity_chain():
    for d in (2, 3):
        for seed in range(5):
            rho = random_joint_state(d, 1400 + 10 * d + seed)
            assert abs(witness_oracle(rho) - flip_expectation(rho)) < 1e-12


def _literal_witness(rho: DensityMatrix) -> float:
    lam = max_entangled_vector(rho.space.dims[0])
    return float((lam.conj() @ partial_transpose(rho, 1) @ lam).real)


def test_witness_oracle_matches_the_literal_contraction(monkeypatch):
    rng = np.random.default_rng(1700)
    states = []
    for d in range(2, 9):
        # Hermitian, unit trace, not necessarily positive
        g = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        h = 0.5 * (g + g.conj().T)
        h += (1.0 - np.trace(h).real) / (d * d) * np.eye(d * d)
        states.append(DensityMatrix(CompositeSpace((d, d)), h))
        states.append(random_joint_state(d, 1700 + d))
    entangled = [bell_singlet(), werner(0.5), werner(0.9),
                 embed_joint_state(bell_singlet(), 5), embed_joint_state(werner(0.7), 8)]
    states += entangled

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran device code")

    monkeypatch.setattr(protocol, "sweep_visibility", refuse)
    monkeypatch.setattr(protocol, "_fringe_coefficient", refuse)
    for rho in states:
        assert abs(witness_oracle(rho) - _literal_witness(rho)) < 1e-12
    assert all(witness_oracle(rho) < -0.1 for rho in entangled)


def test_witness_monotone_in_werner_parameter():
    deltas = [witness(werner(float(p))).device_value for p in np.linspace(0, 1, 11)]
    assert np.all(np.diff(deltas) < 0)


def test_witness_requires_equal_local_dimensions():
    rho = ginibre_mixed(6, 3, 5, dims=(2, 3))
    with pytest.raises(ValueError):
        witness(rho)


def test_max_entangled_vector():
    lam = max_entangled_vector(3)
    assert lam.sum() == 3.0
    assert np.linalg.norm(lam) == pytest.approx(np.sqrt(3))


def test_povm_expectation_values():
    assert abs(povm_expectation(bell_singlet()) - 1.0) < 1e-12
    from qoverlap import tensor_states

    joint = tensor_states(fock(0, 2), fock(1, 2))
    assert povm_expectation(joint) < 1e-12
    for seed in range(3):
        rho = random_joint_state(3, 1500 + seed)
        assert abs(povm_expectation(rho) - abs(flip_expectation(rho))) < 1e-12


def test_povm_expectation_equals_sweep_visibility():
    from qoverlap import sweep_visibility

    for d in (2, 3):
        rho = random_joint_state(d, 1600 + d)
        assert abs(povm_expectation(rho) - sweep_visibility(rho).visibility) < 1e-10


def test_shot_noise_reports_carry_errors():
    r = overlap(fock(0, 3), fock(0, 3), SHOT_SETTINGS)
    assert r.shots_used == 20_000
    assert r.std_error is not None and 0 <= r.std_error < 0.02
    assert abs(r.device_value - 1.0) < 0.05


def test_shot_noise_hs_distance_budget_and_quadrature():
    settings = MeasurementSettings(shots=30_000, seed=9)
    r = hs_distance(fock(0, 3), fock(1, 3), settings)
    assert abs(r.device_value - 1.0) < 0.05
    assert r.std_error is not None and r.std_error < 0.05


def test_shot_noise_witness_threshold():
    settings = MeasurementSettings(shots=50_000, seed=17)
    r = witness(bell_singlet(), settings)
    assert r.verdict == "entangled"
    assert r.device_value < -0.9
    mild = witness(werner(0.4), MeasurementSettings(shots=200, seed=17))
    # delta = -0.1 but ~0.07 std error: below 3 sigma, so no verdict
    assert mild.verdict == "inconclusive"
    assert mild.device_value < 0


def test_shot_noise_witness_error_stays_positive_when_one_detector_gets_every_shot():
    # p_up = 0.99982 at 1000 shots: every shot lands on "up", and the raw
    # proportion's error would read 0 and make the miss look infinite.
    scenario = parse_scenario(
        '{"name": "shot-111", "task": "witness", "device_mode": "physical", "shots": 1000, '
        '"seed": 369739300, "cutoff": 2, "state_joint": {"kind": "pure", "amplitudes": '
        '[[-0.05970736815139358, 0.6026087403686551], [-0.2684513452032809, -1.4907556060462825], '
        '[-0.22761807899894854, -1.480347479784335], [0.0, 0.0]]}}'
    )
    report = witness(scenario.state_joint, MeasurementSettings(
        mode=scenario.device_mode, shots=scenario.shots, seed=scenario.seed))
    assert report.device_value == 1.0
    assert report.std_error > 0
    assert report.abs_error <= 6 * report.std_error


@pytest.mark.parametrize(
    "field, value, error",
    [
        ("shots", 1000.7, TypeError),  # numpy would draw binomial(1000, p)
        ("shots", 1000.5, TypeError),  # witness would divide 1000 draws by 1000.5
        ("shots", True, TypeError),  # would run one shot per phase and report True
        ("shots", 0, ValueError),
        ("shots", 2**63, ValueError),  # numpy's binomial draws at most 2**63 - 1
        ("phase_count", 8.0, TypeError),
        ("phase_count", True, TypeError),
        ("phase_count", 2, ValueError),
        ("seed", "3", TypeError),  # would run seed 3
        ("seed", 1.5, TypeError),  # would run seed 1
        ("seed", True, TypeError),
    ],
)
def test_settings_refuse_counts_that_are_not_integers_in_range(field, value, error):
    with pytest.raises(error, match=field):
        MeasurementSettings(**{field: value})


def test_settings_take_numpy_integer_counts_as_ints():
    settings = MeasurementSettings(phase_count=np.int32(6), shots=np.int64(500), seed=2)
    assert type(settings.phase_count) is int and type(settings.shots) is int
    assert settings == MeasurementSettings(phase_count=6, shots=500, seed=2)
    report = witness(werner(0.5), settings)
    assert report.shots_used == 500 and type(report.shots_used) is int
    assert report == witness(werner(0.5), MeasurementSettings(phase_count=6, shots=500, seed=2))


def test_settings_take_the_largest_shot_count_numpy_draws():
    settings = MeasurementSettings(shots=2**63 - 1, seed=4)
    assert settings.shots == 2**63 - 1
    report = overlap(thermal(0.5, 3), coherent(0.4, 3), settings)
    assert report.counts.tolist() == [[up, 2**63 - 1 - up] for up in report.counts[:, 0].tolist()]


def test_settings_take_numpy_integer_seeds_as_ints():
    # hs_distance's sub-seeds seed + 1 and seed + 2 would overflow an int64
    top = 2**63 - 1
    settings = MeasurementSettings(shots=30, seed=np.int64(top))
    assert type(settings.seed) is int and settings == MeasurementSettings(shots=30, seed=top)
    report = hs_distance(fock(0, 3), thermal(0.5, 3), settings)
    assert report == hs_distance(fock(0, 3), thermal(0.5, 3), MeasurementSettings(shots=30, seed=top))


def test_shot_noise_determinism():
    r1 = overlap(fock(0, 3), fock(0, 3), SHOT_SETTINGS)
    r2 = overlap(fock(0, 3), fock(0, 3), SHOT_SETTINGS)
    assert r1 == r2


@pytest.mark.parametrize(
    "settings, big, small, safe_levels",
    [
        (EXACT, 64, 32, None),
        (MeasurementSettings(mode=PHYSICAL), 8, 8, 4),
        (MeasurementSettings(mode=hamiltonian_mode(ion_qnd(1.0, 8))), 8, 8, 4),
    ],
    ids=["ideal", "physical", "ion"],
)
def test_product_pipelines_build_no_joint_density_matrix(monkeypatch, settings, big, small, safe_levels):
    # The composed devices are exact only on the lowest (cutoff + 1) // 2 levels of each mode.
    rho_big = embed_mode_state(thermal(1.0, safe_levels or big), big)
    rho_small = embed_mode_state(thermal(0.5, safe_levels or small), small)
    partner = embed_mode_state(coherent(0.3, safe_levels or small), small)
    dims = []
    original = DensityMatrix.__post_init__

    def recording(self):
        dims.append(self.space.dim)
        original(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", recording)
    for cutoff, run in (
        (big, lambda: purity(rho_big, settings)),
        (small, lambda: overlap(rho_small, partner, settings)),
        (small, lambda: fidelity_with_pure(rho_small, fock_ket(1, small), settings)),
    ):
        dims.clear()
        assert run().abs_error < 1e-9
        assert max(dims, default=0) <= cutoff


@pytest.mark.parametrize(
    "mode, cutoff",
    [
        pytest.param(IDEAL, 64, id="ideal-64"),
        pytest.param(PHYSICAL, 32, id="physical-32"),
        pytest.param(hamiltonian_mode(linear_coupling(1.0, 32)), 32, id="hamiltonian:linear_coupling-32"),
    ],
)
def test_large_cutoff_purity_stays_small_in_memory(mode, cutoff):
    # Safe sector: levels <= (cutoff - 1) // 2, where every mode is exact.
    levels = (cutoff - 1) // 2 + 1
    rho = embed_mode_state(thermal(1.0, levels), cutoff)
    tracemalloc.start()
    try:
        report = purity(rho, MeasurementSettings(mode=mode))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.abs_error < 1e-9
    q = 0.5  # Boltzmann ratio nbar / (nbar + 1) at nbar = 1
    assert abs(report.device_value - (1 - q) / (1 + q) * (1 + q**levels) / (1 - q**levels)) < 1e-12
    # a dense d^2 x d^2 matrix is 16 MiB at d = 32 and 256 MiB at d = 64
    assert peak < 8 * 2**20


@pytest.mark.parametrize(
    "mode",
    [IDEAL, PHYSICAL, hamiltonian_mode(linear_coupling(1.0, 32))],
    ids=["ideal", "physical", "hamiltonian:linear_coupling"],
)
def test_large_cutoff_witness_stays_small_in_memory(mode):
    d = 32
    # Safe sector: levels <= (d - 1) // 2 in each mode, where every mode is exact.
    small = random_joint_state((d - 1) // 2 + 1, 1800)
    rho = embed_joint_state(small, d)  # 16 MiB
    tracemalloc.start()
    try:
        report = witness(rho, MeasurementSettings(mode=mode))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.abs_error < 1e-9
    assert abs(report.device_value - flip_expectation(small)) < 1e-12
    assert peak < 2**20


GUARD_MODES = {
    "ideal": lambda d: IDEAL,
    "physical": lambda d: PHYSICAL,
    "hamiltonian:linear_coupling": lambda d: hamiltonian_mode(linear_coupling(1.0, d)),
    "hamiltonian:dispersive_cps": lambda d: hamiltonian_mode(dispersive_cps(1.0, d)),
    "hamiltonian:ion_qnd": lambda d: hamiltonian_mode(ion_qnd(1.0, d)),
}


@pytest.mark.parametrize("label", list(GUARD_MODES))
def test_no_pipeline_builds_the_dense_post_state(monkeypatch, label):
    def refuse(self):
        raise AssertionError("built the d^2 x d^2 post-state")

    monkeypatch.setattr(protocol.ProtocolRun, "post_state_unconditional", property(refuse))
    d = 6
    mode = GUARD_MODES[label](d)
    settings = MeasurementSettings(mode=mode)
    # Safe sector: levels <= (d - 1) // 2, where every mode is exact.
    a = embed_mode_state(ginibre_mixed(3, 3, 80), d)
    b = embed_mode_state(ginibre_mixed(3, 2, 81), d)
    joint = DensityMatrix(CompositeSpace((d, d)), np.kron(a.mat, b.mat))
    for report in (
        overlap(a, b, settings),
        fidelity_with_pure(a, fock_ket(1, d), settings),
        purity(a, settings),
        linear_entropy(a, settings),
        hs_distance(a, b, settings),
        witness(joint, settings),
    ):
        assert report.abs_error < 1e-9, report.name
    first, second = repeat_measurement_check(a, b, mode)
    assert abs(second - first) < 1e-12
    doc = {
        "name": "guard", "task": "repeat_check", "cutoff": d, "device_mode": label,
        "state_a": {"kind": "fock", "n": 1},
        "state_b": {"kind": "pure", "amplitudes": [[0.6, 0.0], [0.0, 0.8], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
    }
    record = run_scenario(parse_scenario(json.dumps(doc)))
    assert abs(record.device_value - 0.64) < 1e-12
    assert record.abs_error < 1e-12


@pytest.mark.parametrize(
    "mode, cutoff",
    [
        pytest.param(IDEAL, 64, id="ideal-64"),
        pytest.param(PHYSICAL, 32, id="physical-32"),
        pytest.param(hamiltonian_mode(ion_qnd(1.0, 24)), 24, id="hamiltonian:ion_qnd-24"),
    ],
)
def test_large_cutoff_hs_distance_and_repeat_check_stay_small_in_memory(mode, cutoff):
    # Safe sector, as in test_large_cutoff_purity_stays_small_in_memory.
    levels = (cutoff - 1) // 2 + 1
    a = embed_mode_state(thermal(1.0, levels), cutoff)
    b = embed_mode_state(coherent(0.7, levels), cutoff)
    tracemalloc.start()
    try:
        report = hs_distance(a, b, MeasurementSettings(mode=mode))
        first, second = repeat_measurement_check(a, b, mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.abs_error < 1e-9
    assert abs(first - overlap_direct(a, b)) < 1e-9
    assert abs(second - first) < 1e-12
    # the dense post-state is 16 MiB at d = 32 and 256 MiB at d = 64
    assert peak < 8 * 2**20


@pytest.mark.parametrize("mode", [IDEAL, PHYSICAL], ids=["ideal", "physical"])
def test_exact_runs_build_no_fringe(mode):
    d = 4
    settings = MeasurementSettings(mode=mode)
    a, b = embed_mode_state(ginibre_mixed(2, 2, 92), d), ginibre_mixed(d, 3, 93)
    joint = DensityMatrix(CompositeSpace((d, d)), np.kron(a.mat, b.mat))
    runs = {
        "sweep": protocol.sweep_visibility(ProductState(a, b), mode=mode),
        "purity": purity(a, settings).run,
        "overlap": overlap(a, b, settings).run,
        "witness": witness(joint, settings).run,
        "hs_distance": hs_distance(a, b, settings).run,
    }
    for name, run in runs.items():
        assert "p_up" not in vars(run) and "p_down" not in vars(run), name


@pytest.mark.parametrize("settings", [EXACT, SHOT_SETTINGS], ids=["exact", "shots"])
def test_hs_distance_computes_no_oracle_for_its_overlap_sub_run(monkeypatch, settings):
    calls, open_calls = [], []

    def spy(name, fn):
        def wrapper(*args):
            calls.append((name, open_calls[-1] if open_calls else None))
            open_calls.append(name)
            try:
                return fn(*args)
            finally:
                open_calls.pop()
        return wrapper

    oracles = ("overlap_direct", "purity_direct", "hs_distance_direct")
    for name in oracles:
        monkeypatch.setattr(observables, name, spy(name, getattr(observables, name)))
    report = hs_distance(ginibre_mixed(3, 2, 94), ginibre_mixed(3, 3, 95), settings)
    assert report.abs_error < (1e-12 if settings.shots is None else 0.1)
    names = [name for name, _ in calls]
    assert [names.count(name) for name in oracles] == [2, 2, 1]
    assert [caller for name, caller in calls if name == "overlap_direct"] == ["purity_direct"] * 2


@pytest.mark.parametrize("shots", [None, 900], ids=["exact", "shots"])
def test_every_report_carries_its_sweep(shots):
    d, k = 4, 6
    settings = MeasurementSettings(mode=PHYSICAL, phase_count=k, shots=shots, seed=5)
    # Safe sector: levels <= (d - 1) // 2, where every mode is exact.
    a = embed_mode_state(ginibre_mixed(2, 2, 90), d)
    b = embed_mode_state(ginibre_mixed(2, 2, 91), d)
    joint = DensityMatrix(CompositeSpace((d, d)), np.kron(a.mat, b.mat))
    reports = {
        "overlap": overlap(a, b, settings),
        "fidelity": fidelity_with_pure(a, fock_ket(1, d), settings),
        "purity": purity(a, settings),
        "linear_entropy": linear_entropy(a, settings),
        "hs_distance": hs_distance(a, b, settings),
        "witness": witness(joint, settings),
    }
    for name, report in reports.items():
        assert len(report.run.phases) == k, name
        if shots is None or name == "witness":  # the witness counts one run at the calibrated phase
            assert report.counts is None, name
        else:
            per_phase = shots // 3 if name == "hs_distance" else shots
            assert report.counts.shape == (k, 2), name
            assert (report.counts.sum(axis=1) == per_phase).all(), name

    # linear_entropy carries its purity run; hs_distance the overlap of the two recycled states
    p = purity(a, settings)
    assert reports["linear_entropy"].run.visibility == p.run.visibility
    sub = [settings if shots is None else MeasurementSettings(
        mode=PHYSICAL, phase_count=k, shots=shots // 3, seed=5 + i) for i in range(3)]
    pa, pb = purity(a, sub[0]), purity(b, sub[1])
    o = overlap(pa.run.reduced_post_state, pb.run.reduced_post_state, sub[2])
    hs = reports["hs_distance"]
    assert hs.run.visibility == o.run.visibility != pa.run.visibility
    if shots is not None:
        assert np.array_equal(reports["linear_entropy"].counts, p.counts)
        assert np.array_equal(hs.counts, o.counts)
