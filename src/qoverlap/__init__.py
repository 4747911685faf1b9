"""Simulator for the ancilla-interferometric overlap measurement device.

One interference visibility, swept over an ancilla phase, measures the
overlap of two mode states; built on top of it are fidelity, purity, linear
entropy, Hilbert-Schmidt distance and a partial-transpose entanglement
witness, each cross-checked against a direct-trace oracle.
"""

from .dynamics import (
    HamiltonianSpec,
    build_hamiltonian,
    dispersive_cps,
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
    number_op,
    number_phase,
    povm_projectors,
)
from .linalg import (
    CompositeSpace,
    DensityMatrix,
    ProductState,
    UnitaryGate,
    exp_unitary,
    partial_transpose,
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
    ProtocolRun,
    estimate_visibility,
    hamiltonian_mode,
    repeat_measurement_check,
    sample_shots,
    sweep_visibility,
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
