import json
import math

import numpy as np
import pytest

from qoverlap import ScenarioError, emit, parse_scenario, run_scenario
from qoverlap.scenario import record_from_dict, record_to_dict, write_record


def make(**fields):
    base = {
        "name": "t",
        "task": "overlap",
        "cutoff": 4,
        "state_a": {"kind": "fock", "n": 0},
        "state_b": {"kind": "fock", "n": 1},
    }
    base.update(fields)
    for key in [k for k, v in base.items() if v is None]:
        del base[key]
    return json.dumps(base, indent=1)


def test_parse_minimal_with_defaults():
    s = parse_scenario(make())
    assert s.phase_count == 8
    assert s.shots is None
    assert s.seed == 0
    assert s.device_mode_label == "ideal"


def test_parse_invalid_json_reports_line():
    with pytest.raises(ScenarioError) as err:
        parse_scenario('{\n "name": "x",\n}')
    assert err.value.line is not None


def test_arity_validation():
    with pytest.raises(ScenarioError, match="state_joint"):
        parse_scenario(make(task="witness"))
    with pytest.raises(ScenarioError, match="state_a only"):
        parse_scenario(make(task="purity"))
    with pytest.raises(ScenarioError, match="state_a and state_b"):
        parse_scenario(make(state_b=None))


def test_unknown_constructor_named_in_error():
    with pytest.raises(ScenarioError, match="squeezed"):
        parse_scenario(make(state_a={"kind": "squeezed", "r": 1.0}))


def test_joint_constructor_rejected_in_single_slot():
    with pytest.raises(ScenarioError, match="werner"):
        parse_scenario(make(state_a={"kind": "werner", "p": 0.5}))


def test_cutoff_mismatch_errors():
    with pytest.raises(ScenarioError, match="cutoff 2"):
        parse_scenario(make(task="witness", cutoff=4, state_a=None, state_b=None,
                            state_joint={"kind": "werner", "p": 0.5}))
    with pytest.raises(ScenarioError, match="amplitude count"):
        parse_scenario(make(state_a={"kind": "pure", "amplitudes": [1, 0, 0]}))


def test_unknown_fields_rejected():
    with pytest.raises(ScenarioError, match="cutof"):
        parse_scenario(make(cutof=3))
    with pytest.raises(ScenarioError, match="unknown parameter"):
        parse_scenario(make(state_a={"kind": "fock", "n": 0, "m": 1}))


def test_fidelity_requires_pure_partner():
    with pytest.raises(ScenarioError, match="pure state_b"):
        parse_scenario(make(task="fidelity", state_b={"kind": "thermal", "nbar": 1.0}))


def test_run_overlap_orthogonal():
    rec = run_scenario(parse_scenario(make()))
    assert abs(rec.device_value) < 1e-12
    assert rec.oracle_value == 0.0
    assert rec.std_error is None
    assert rec.rng == "philox4x64-10"


def test_run_witness_werner():
    text = make(task="witness", cutoff=2, state_a=None, state_b=None,
                state_joint={"kind": "werner", "p": 0.5})
    rec = run_scenario(parse_scenario(text))
    assert abs(rec.device_value + 0.25) < 1e-9
    assert rec.verdict == "entangled"


def test_run_purity_thermal_high_cutoff():
    text = make(task="purity", cutoff=64, state_a={"kind": "thermal", "nbar": 1.0},
                state_b=None)
    rec = run_scenario(parse_scenario(text))
    assert abs(rec.device_value - 1.0 / 3.0) < 1e-6


def test_records_are_byte_identical_across_runs():
    text = make(shots=500, seed=9)
    r1 = run_scenario(parse_scenario(text))
    r2 = run_scenario(parse_scenario(text))
    assert emit(r1) == emit(r2)
    assert emit(r1, "csv") == emit(r2, "csv")


def test_json_round_trip():
    rec = run_scenario(parse_scenario(make(shots=100)))
    doc = json.loads(emit(rec).decode())
    assert record_from_dict(doc) == rec
    assert list(doc) == list(record_to_dict(rec))


def test_csv_shape_and_exact_mode_cells():
    rec = run_scenario(parse_scenario(make(phases=6)))
    lines = emit(rec, "csv").decode().strip().splitlines()
    assert lines[0] == "phase,p_up,p_down,count_up,count_down"
    assert len(lines) == 7
    assert lines[1].endswith(",,")  # exact mode leaves count cells empty


def test_csv_counts_in_shot_mode():
    rec = run_scenario(parse_scenario(make(shots=250, phases=5)))
    lines = emit(rec, "csv").decode().strip().splitlines()
    assert len(lines) == 6
    up, dn = lines[1].split(",")[3:]
    assert int(up) + int(dn) == 250


def test_exact_mode_std_error_serializes_null():
    rec = run_scenario(parse_scenario(make()))
    assert json.loads(emit(rec).decode())["std_error"] is None


def test_stamp_adds_timestamp():
    rec = run_scenario(parse_scenario(make()), stamp=True)
    assert rec.timestamp is not None
    assert "T" in rec.timestamp


def test_scenario_output_path(tmp_path):
    out = tmp_path / "nested" / "result.json"
    rec = run_scenario(parse_scenario(make(output=str(out))))
    assert out.exists()
    assert json.loads(out.read_text())["device_value"] == rec.device_value


def test_write_csv_sidecar(tmp_path):
    rec = run_scenario(parse_scenario(make(shots=100)))
    target = tmp_path / "run.csv"
    write_record(rec, target, "csv")
    sidecar = tmp_path / "run.summary.json"
    assert target.exists() and sidecar.exists()
    summary = json.loads(sidecar.read_text())
    assert "phases" not in summary
    assert summary["device_value"] == rec.device_value


def unsafe_doc(task, device_mode):
    """Coherent inputs with alpha 2 at cutoff 4: most population is above the safe sector."""
    hot = {"kind": "coherent", "alpha": 2.0}
    single = task in ("purity", "linear_entropy")
    return make(task=task, device_mode=device_mode, cutoff=4, state_a=hot,
                state_b=None if single else hot)


UNSAFE_TASKS = ("overlap", "fidelity", "purity", "linear_entropy", "hs_distance", "repeat_check")


@pytest.mark.parametrize("task", UNSAFE_TASKS)
def test_unsafe_support_warns_in_physical_mode(task):
    with pytest.warns(UserWarning, match="above total photon number"):
        run_scenario(parse_scenario(unsafe_doc(task, "physical")))


@pytest.mark.parametrize("task", UNSAFE_TASKS + ("witness",))
def test_unsafe_support_never_warns_in_ideal_mode(task, recwarn):
    if task == "witness":  # |1,1> carries total photon number 2 > cutoff - 1
        text = make(task="witness", cutoff=2, state_a=None, state_b=None,
                    state_joint={"kind": "werner", "p": 0.5})
    else:
        text = unsafe_doc(task, "ideal")
    run_scenario(parse_scenario(text))
    assert not [w for w in recwarn if "photon" in str(w.message)]


def test_safe_support_does_not_warn_in_physical_mode(recwarn):
    text = make(device_mode="physical", cutoff=4)
    run_scenario(parse_scenario(text))
    assert not [w for w in recwarn if "photon" in str(w.message)]


def test_device_mode_labels():
    for label in ("physical", "hamiltonian:linear_coupling",
                  "hamiltonian:dispersive_cps", "hamiltonian:ion_qnd"):
        rec = run_scenario(parse_scenario(make(device_mode=label, cutoff=4)))
        assert abs(rec.device_value) < 1e-9  # orthogonal Fock inputs
    with pytest.raises(ScenarioError, match="device_mode"):
        parse_scenario(make(device_mode="hamiltonian:kerr"))


def test_repeat_check_task():
    text = make(task="repeat_check", cutoff=3,
                state_a={"kind": "ginibre_mixed", "rank": 2, "seed": 7},
                state_b={"kind": "ginibre_mixed", "rank": 3, "seed": 8})
    rec = run_scenario(parse_scenario(text))
    assert rec.abs_error < 1e-10


def test_fidelity_task_with_coherent_reference():
    text = make(task="fidelity", cutoff=16,
                state_a={"kind": "thermal", "nbar": 1.0},
                state_b={"kind": "coherent", "alpha": 0.0})
    rec = run_scenario(parse_scenario(text))
    assert abs(rec.device_value - 0.5) < 1e-4


def test_seventeen_digit_floats_round_trip():
    rec = run_scenario(parse_scenario(make(task="purity", cutoff=8,
                                           state_a={"kind": "ginibre_mixed", "rank": 3, "seed": 1},
                                           state_b=None)))
    doc = json.loads(emit(rec).decode())
    assert doc["device_value"] == rec.device_value  # exact float reconstruction
