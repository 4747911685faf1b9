"""Simulator for the ancilla-interferometric overlap measurement device.

One interference visibility, swept over an ancilla phase, measures the
overlap of two mode states; built on top of it are fidelity, purity, linear
entropy, Hilbert-Schmidt distance and a partial-transpose entanglement
witness, each cross-checked against a direct-trace oracle.
"""

from .dynamics import (
    HamiltonianSpec,
    build_hamiltonian,
    cavity_dispersive_rate,
    dispersive_cps,
    ion_protocol_run,
    ion_qnd,
    linear_coupling,
    realize_gate,
)
from .gates import (
    PovmPair,
    annihilation,
    beamsplitter,
    controlled_swap_ideal,
    cps,
    flip_operator,
    hadamard,
    number_op,
    number_phase,
    phase_shift,
    povm_projectors,
)
from .linalg import (
    CompositeSpace,
    DensityMatrix,
    ProductState,
    SpectralDecomposition,
    UnitaryGate,
    as_single_subsystem,
    exp_unitary,
    partial_trace,
    partial_transpose,
    spectral_decompose,
    tensor,
    tensor_states,
)
from .observables import (
    EXACT,
    MeasurementSettings,
    ObservableReport,
    fidelity_with_pure,
    flip_expectation,
    hs_distance,
    hs_distance_direct,
    linear_entropy,
    max_entangled_vector,
    overlap,
    overlap_direct,
    povm_expectation,
    purity,
    purity_direct,
    witness,
    witness_oracle,
)
from .protocol import (
    IDEAL,
    PHYSICAL,
    DeviceMode,
    PhaseResult,
    ProtocolRun,
    calibrate_phase,
    estimate_visibility,
    hamiltonian_mode,
    repeat_measurement_check,
    run_device,
    sample_shots,
    sweep_visibility,
    visibility_minmax,
    witness_delta,
)
from .scenario import (
    ResultRecord,
    Scenario,
    ScenarioError,
    emit,
    parse_scenario,
    run_scenario,
    write_record,
)
from .states import (
    bell_singlet,
    classical_correlated,
    coherent,
    coherent_ket,
    fock,
    fock_ket,
    ginibre_mixed,
    pure,
    singlet_ket,
    thermal,
    werner,
)

__version__ = "0.1.0"
