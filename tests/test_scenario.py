import hashlib
import itertools
import json
import math
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qoverlap import ScenarioError, emit, parse_scenario, run_scenario
from qoverlap import scenario as scenario_module
from qoverlap.scenario import ALL_TASKS, ResultRecord, format_float, write_record


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
    with pytest.raises(ScenarioError, match="must be a JSON object"):
        parse_scenario("[]")


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


def test_missing_key_is_reported_on_the_line_of_the_object_that_lacks_it():
    text = make(state_a={"n": 0})
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert (err.value.path, err.value.line) == ("state_a.kind", 5)
    assert text.splitlines()[4] == ' "state_a": {'


@pytest.mark.parametrize("spec, marker", [
    ({"kind": "squeezed", "r": 1.0}, '"squeezed"'),
    ({"kind": "fock", "n": 9}, '"fock"'),
    ({"kind": "coherent", "alpha": "large"}, '"alpha"'),
])
def test_error_inside_a_state_reports_the_line_in_that_state(spec, marker):
    text = make(state_b=spec)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    lines = text.splitlines()
    assert err.value.path.startswith("state_b")
    assert marker in lines[err.value.line - 1]
    assert err.value.line > next(i for i, line in enumerate(lines, 1) if '"state_b"' in line)


def test_error_line_passes_over_a_value_equal_to_a_key():
    text = make(name="state_b", state_b={"kind": "squeezed"})
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert err.value.path == "state_b.kind"
    assert '"kind": "squeezed"' in text.splitlines()[err.value.line - 1]


def test_error_line_of_a_top_level_key_passes_over_a_state_key_of_that_name():
    text = make(task="purity", state_a={"kind": "ginibre_mixed", "rank": 2, "seed": 5}, state_b=None, seed=1.5)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert str(err.value) == "seed must be an integer (at seed, line 10)"
    assert text.splitlines()[7:10] == ['  "seed": 5', " },", ' "seed": 1.5']


@pytest.mark.parametrize("fields, path", [
    ({"cutoff": 4.0}, "cutoff"),
    ({"phases": 8.0}, "phases"),
    ({"shots": True}, "shots"),
    ({"seed": False}, "seed"),
    ({"state_a": {"kind": "fock", "n": True}}, "state_a.n"),
    ({"state_a": {"kind": "ginibre_mixed", "rank": 2.7}}, "state_a.rank"),
    ({"state_a": {"kind": "ginibre_mixed", "rank": 2, "seed": 3.0}}, "state_a.seed"),
], ids=["cutoff", "phases", "shots", "seed", "n", "rank", "constructor_seed"])
def test_integer_fields_refuse_bools_and_floats(fields, path):
    text = make(**fields)
    with pytest.raises(ScenarioError, match="integer") as err:
        parse_scenario(text)
    assert err.value.path == path
    assert f'"{path.split(".")[-1]}"' in text.splitlines()[err.value.line - 1]


WERNER = {"task": "witness", "cutoff": 2, "state_a": None, "state_b": None}


@pytest.mark.parametrize("fields, path", [
    ({"state_a": {"kind": "thermal", "nbar": "2"}}, "state_a.nbar"),
    ({"state_a": {"kind": "thermal", "nbar": True}}, "state_a.nbar"),
    ({"state_a": {"kind": "thermal", "nbar": 10**400}}, "state_a.nbar"),
    ({**WERNER, "state_joint": {"kind": "werner", "p": True}}, "state_joint.p"),
    ({**WERNER, "state_joint": {"kind": "werner", "p": "0.5"}}, "state_joint.p"),
    ({"state_a": {"kind": "coherent", "alpha": True}}, "state_a.alpha"),
    ({"state_a": {"kind": "coherent", "alpha": [True, 0.0]}}, "state_a.alpha"),
    ({"state_a": {"kind": "coherent", "alpha": math.nan}}, "state_a.alpha"),
    ({"state_a": {"kind": "pure", "amplitudes": [1, 0, 0, False]}}, "state_a.amplitudes"),
    ({"state_a": {"kind": "pure", "amplitudes": [1, 0, [0, "1"], 0]}}, "state_a.amplitudes"),
], ids=["nbar_str", "nbar_bool", "nbar_huge_int", "p_bool", "p_str", "alpha_bool", "alpha_pair_bool",
        "alpha_nan", "amplitude_bool", "amplitude_pair_str"])
def test_number_fields_refuse_bools_and_strings(fields, path):
    text = make(**fields)
    with pytest.raises(ScenarioError, match="number") as err:
        parse_scenario(text)
    assert err.value.path == path
    assert f'"{path.split(".")[-1]}"' in text.splitlines()[err.value.line - 1]


@pytest.mark.parametrize("expected, path", [
    ({"tol": "abc"}, "expected.tol"),
    ({"tol": True}, "expected.tol"),
    ({"tol": 0}, "expected.tol"),
    ({"tol": -1.0}, "expected.tol"),
    ({"tol": math.nan}, "expected.tol"),
    ({"tol": math.inf}, "expected.tol"),
    ({"device_value": None}, "expected.device_value"),
    ({"device_value": False}, "expected.device_value"),
    ({"device_value": "0.5", "tol": 1e-9}, "expected.device_value"),
    ({"device_value": 10**400}, "expected.device_value"),
], ids=["tol_str", "tol_bool", "tol_zero", "tol_negative", "tol_nan", "tol_inf", "value_null", "value_bool",
        "value_str", "value_huge_int"])
def test_expected_block_is_type_checked(expected, path):
    text = make(expected=expected)
    with pytest.raises(ScenarioError, match="number") as err:
        parse_scenario(text)
    assert err.value.path == path
    assert f'"{path.split(".")[-1]}"' in text.splitlines()[err.value.line - 1]


def test_expected_block_takes_numbers():
    expected = {"device_value": 0, "tol": 1e-9}
    assert parse_scenario(make(expected=expected)).expected == expected
    assert parse_scenario(make(expected={"tol": 1})).expected == {"tol": 1}


def test_joint_constructor_rejected_in_single_slot():
    with pytest.raises(ScenarioError, match="werner"):
        parse_scenario(make(state_a={"kind": "werner", "p": 0.5}))


def test_cutoff_mismatch_errors():
    for kind in ("bell_singlet", "classical_correlated", "werner"):
        text = make(task="witness", cutoff=4, state_a=None, state_b=None,
                    state_joint={"kind": kind, "p": 0.5})
        with pytest.raises(ScenarioError, match=f"^{kind} needs cutoff 2 ") as err:
            parse_scenario(text)
        assert err.value.path == "state_joint"
        assert '"cutoff"' in text.splitlines()[err.value.line - 1]
    with pytest.raises(ScenarioError, match="amplitude count"):
        parse_scenario(make(state_a={"kind": "pure", "amplitudes": [1, 0, 0]}))


def test_unknown_fields_rejected():
    with pytest.raises(ScenarioError, match="cutof"):
        parse_scenario(make(cutof=3))
    with pytest.raises(ScenarioError, match="unknown parameter"):
        parse_scenario(make(state_a={"kind": "fock", "n": 0, "m": 1}))
    with pytest.raises(ScenarioError, match="unknown expected field 'value'"):
        parse_scenario(make(expected={"value": 1.0}))


def test_fidelity_requires_pure_partner():
    with pytest.raises(ScenarioError, match="pure state_b"):
        parse_scenario(make(task="fidelity", state_b={"kind": "thermal", "nbar": 1.0}))


@pytest.mark.parametrize("slot, norms", [("state_a", 1), ("state_joint", 1), ("state_b", 2)])
def test_a_pure_ket_is_normalized_again_only_where_it_is_kept(monkeypatch, slot, norms):
    # states.pure normalizes the density matrix; only state_b's ket is kept, as state_b_vector
    amps = [0.6, [0.0, 0.8], 0.0, 0.0]
    calls = []

    def norm(x, *args, **kwargs):
        calls.append(x)
        return real_norm(x, *args, **kwargs)

    real_norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", norm)
    cutoff = 2 if slot == "state_joint" else 4
    built, ket = scenario_module._build_state({"kind": "pure", "amplitudes": amps}, cutoff, slot)
    assert len(calls) == norms
    raw = np.array([0.6, 0.8j, 0.0, 0.0])
    assert np.array_equal(ket, raw / real_norm(raw) if slot == "state_b" else raw)
    assert np.array_equal(built.mat, scenario_module.states.pure(raw, dims=built.space.dims).mat)


def test_shot_counts_numpy_cannot_draw_are_refused():
    text = make(shots=2**63)
    with pytest.raises(ScenarioError, match="shots must be at most 9223372036854775807") as err:
        parse_scenario(text)
    assert err.value.path == "shots"
    assert '"shots"' in text.splitlines()[err.value.line - 1]
    assert parse_scenario(make(shots=2**63 - 1)).shots == 2**63 - 1


SLOT_SPECS = {"state_a": {"kind": "fock", "n": 0}, "state_b": {"kind": "fock", "n": 1},
              "state_joint": {"kind": "werner", "p": 0.5}}


@pytest.mark.parametrize("task", ALL_TASKS)
def test_each_wrong_set_of_state_fields_is_refused_on_the_task_line(task):
    fields = scenario_module.TASK_STATES[task]
    wrong = [present for present in itertools.product((False, True), repeat=3)
             if tuple(slot for slot, on in zip(SLOT_SPECS, present) if on) != fields]
    assert len(wrong) == 7
    for present in wrong:
        text = make(task=task, cutoff=2, **{slot: spec if on else None
                                            for (slot, spec), on in zip(SLOT_SPECS.items(), present)})
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert str(err.value).startswith(f"task {task!r} takes {' and '.join(fields)} only (")
        assert err.value.path == fields[0]
        assert '"task"' in text.splitlines()[err.value.line - 1]


BUNDLED = sorted(p for p in (Path(__file__).resolve().parents[1] / "scenarios").glob("*.json")
                 if "schema" not in p.name)


def _params(doc, optional=True):
    """(slot, parameter) for every constructor parameter in the document's states."""
    return [(slot, name) for slot in ("state_a", "state_b", "state_joint") if slot in doc
            for name in doc[slot] if name != "kind" and (optional or name != "seed")]


def _unknown_field(doc, data):
    doc["cutof"] = doc["cutoff"]
    return "cutof", "cutof", None


def _wrong_type(doc, data):
    top = [("name", 3), ("task", 3), ("cutoff", 4.0), ("phases", 8.0), ("shots", True), ("seed", 1.5),
           ("output", 3), ("expected", []), ("device_mode", 3)]
    field, value = data.draw(st.sampled_from(top + [(p, "x") for p in _params(doc)]))
    if isinstance(field, tuple):
        slot, name = field
        doc[slot][name] = value
        return f"{slot}.{name}", name, slot
    doc[field] = value
    return field, field, None


def _missing_parameter(doc, data):
    params = _params(doc, optional=False)
    if not params:  # a constructor without parameters: give the slot one that takes one
        doc["state_joint"] = {"kind": "werner", "p": 0.5}
        params = [("state_joint", "p")]
    slot, name = data.draw(st.sampled_from(params))
    del doc[slot][name]
    return f"{slot}.{name}", "kind", slot


def _unknown_parameter(doc, data):
    slot = data.draw(st.sampled_from([s for s in ("state_a", "state_b", "state_joint") if s in doc]))
    doc[slot]["extra"] = 1
    return f"{slot}.extra", "extra", slot


def _qubit_kind_at_another_cutoff(doc, data):
    doc.pop("state_a", None)
    doc.pop("state_b", None)
    kind = data.draw(st.sampled_from(["bell_singlet", "classical_correlated", "werner"]))
    doc.update(task="witness", cutoff=data.draw(st.integers(3, 6)), state_joint={"kind": kind, "p": 0.5})
    return "state_joint", "cutoff", None


def _constructor_value_error(doc, data):
    slot = data.draw(st.sampled_from([s for s in ("state_a", "state_b", "state_joint") if s in doc]))
    d = doc["cutoff"]
    bad = ([{"kind": "pure", "amplitudes": [0.0] * d * d}] if slot == "state_joint" else
           [{"kind": "fock", "n": d}, {"kind": "thermal", "nbar": -1.0}])
    doc[slot] = data.draw(st.sampled_from(bad + [{"kind": "ginibre_mixed", "rank": 0}]))
    return slot, "kind", slot


MUTATIONS = [_unknown_field, _wrong_type, _missing_parameter, _unknown_parameter,
             _qubit_kind_at_another_cutoff, _constructor_value_error]


@given(path=st.sampled_from(BUNDLED), indent=st.integers(0, 4), mutate=st.sampled_from(MUTATIONS),
       data=st.data())
def test_every_raise_site_reports_its_path_on_the_line_of_its_key(path, indent, mutate, data):
    doc = json.loads(path.read_text())
    want_path, key, slot = mutate(doc, data)
    text = json.dumps(doc, indent=indent)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    lines = text.splitlines()
    assert err.value.path == want_path
    assert f'"{key}":' in lines[err.value.line - 1]
    if slot is not None:  # the line inside that state, not in another one
        assert err.value.line > next(i for i, line in enumerate(lines, 1) if f'"{slot}":' in line)


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


def test_numpy_seed_writes_the_record_of_its_int():
    # A Scenario replaced in code skips the parser's integer check; the record takes the settings' int.
    path = Path(__file__).resolve().parents[1] / "scenarios" / "overlap_sampled.json"
    scenario = parse_scenario(path.read_text())
    numpy_seed, int_seed = (run_scenario(replace(scenario, seed=seed)) for seed in (np.int64(5), 5))
    assert type(numpy_seed.seed) is int
    for format in ("json", "csv"):
        assert emit(numpy_seed, format) == emit(int_seed, format)


# SHA-256 of every bundled record, json then csv, documents in sorted order.
BUNDLED_RECORDS_SHA256 = "5476eeae3eb22f291e00da3f9085cc61a6889bd67c85d7fe5299806769d24016"


def test_bundled_records_are_pinned():
    digest = hashlib.sha256()
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    for path in sorted(scenarios.glob("*.json")):
        if path.name == "scenario.schema.json":
            continue
        record = run_scenario(parse_scenario(path.read_text()))
        digest.update(emit(record, "json"))
        digest.update(emit(record, "csv"))
    assert digest.hexdigest() == BUNDLED_RECORDS_SHA256


def test_json_round_trip():
    rec = run_scenario(parse_scenario(make(shots=100)))
    doc = json.loads(emit(rec).decode())
    assert ResultRecord(**doc) == rec
    assert list(doc) == list(asdict(rec))


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
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        emit(rec, "xml")


def test_stamp_adds_timestamp():
    rec = run_scenario(parse_scenario(make()), stamp=True)
    assert rec.timestamp is not None
    assert "T" in rec.timestamp


def test_scenario_output_path(tmp_path):
    out = tmp_path / "nested" / "result.json"
    out.parent.mkdir()
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


def test_write_record_creates_no_directory(tmp_path):
    rec = run_scenario(parse_scenario(make()))
    for format in ("json", "csv"):
        with pytest.raises(ScenarioError, match="^cannot write .*r[.]"):
            write_record(rec, tmp_path / "missing" / "deeper" / f"r.{format}", format)
    with pytest.raises(ScenarioError, match="^cannot write"):
        run_scenario(parse_scenario(make(output=str(tmp_path / "missing" / "r.json"))))
    assert list(tmp_path.iterdir()) == []


def test_write_record_refuses_a_directory(tmp_path):
    rec = run_scenario(parse_scenario(make()))
    for format in ("json", "csv"):
        with pytest.raises(ScenarioError, match="^cannot write"):
            write_record(rec, tmp_path, format)
    assert list(tmp_path.iterdir()) == []


def unsafe_doc(task, device_mode):
    """Coherent inputs with alpha 2 at cutoff 4: most population is above the safe sector."""
    hot = {"kind": "coherent", "alpha": 2.0}
    single = task in ("purity", "linear_entropy")
    return make(task=task, device_mode=device_mode, cutoff=4, state_a=hot,
                state_b=None if single else hot)


def unsafe_witness_doc(device_mode):
    """Werner state at cutoff 2: |1,1> carries total photon number 2 > cutoff - 1."""
    return make(task="witness", device_mode=device_mode, cutoff=2, state_a=None, state_b=None,
                state_joint={"kind": "werner", "p": 0.5})


UNSAFE_TASKS = ("overlap", "fidelity", "purity", "linear_entropy", "hs_distance", "repeat_check")


@pytest.mark.parametrize("task", UNSAFE_TASKS + ("witness",))
def test_unsafe_support_warns_in_physical_mode(task):
    text = unsafe_witness_doc("physical") if task == "witness" else unsafe_doc(task, "physical")
    with pytest.warns(UserWarning, match="above total photon number"):
        run_scenario(parse_scenario(text))


@pytest.mark.parametrize("task", UNSAFE_TASKS + ("witness",))
def test_unsafe_support_never_warns_in_ideal_mode(task, recwarn):
    text = unsafe_witness_doc("ideal") if task == "witness" else unsafe_doc(task, "ideal")
    run_scenario(parse_scenario(text))
    assert not [w for w in recwarn if "photon" in str(w.message)]


def test_safe_support_does_not_warn_in_physical_mode(recwarn):
    text = make(device_mode="physical", cutoff=4)
    run_scenario(parse_scenario(text))
    assert not [w for w in recwarn if "photon" in str(w.message)]


def test_hs_distance_warns_on_the_products_its_device_runs():
    # a (x) b is safe (N = 3 at cutoff 5), but the device runs a (x) a (N = 6).
    unsafe = make(task="hs_distance", device_mode="physical", cutoff=5,
                  state_a={"kind": "fock", "n": 3}, state_b={"kind": "fock", "n": 0})
    with pytest.warns(UserWarning, match="population 1.00e[+]00 above total photon number 4") as caught:
        run_scenario(parse_scenario(unsafe))
    assert len([w for w in caught if "photon" in str(w.message)]) == 1


@pytest.mark.filterwarnings("error::UserWarning")
def test_safe_hs_distance_does_not_warn_in_physical_mode():
    for label in ("physical", "hamiltonian:linear_coupling", "hamiltonian:ion_qnd"):
        safe = make(task="hs_distance", device_mode=label, cutoff=5,
                    state_a={"kind": "fock", "n": 2}, state_b={"kind": "coherent", "alpha": 0.0})
        assert run_scenario(parse_scenario(safe)).abs_error < 1e-12


def test_device_mode_labels():
    for label in ("physical", "hamiltonian:linear_coupling",
                  "hamiltonian:dispersive_cps", "hamiltonian:ion_qnd"):
        rec = run_scenario(parse_scenario(make(device_mode=label, cutoff=4)))
        assert abs(rec.device_value) < 1e-9  # orthogonal Fock inputs
    for label in ("hamiltonian:kerr", 5, ["ideal"]):
        with pytest.raises(ScenarioError, match="device_mode"):
            parse_scenario(make(device_mode=label))


def test_repeat_check_task():
    text = make(task="repeat_check", cutoff=3,
                state_a={"kind": "ginibre_mixed", "rank": 2, "seed": 7},
                state_b={"kind": "ginibre_mixed", "rank": 3, "seed": 8})
    rec = run_scenario(parse_scenario(text))
    assert rec.abs_error < 1e-10


def test_repeat_check_refuses_shots():
    pair = {"state_a": {"kind": "fock", "n": 0}, "state_b": {"kind": "fock", "n": 1}}
    assert parse_scenario(make(task="repeat_check", shots="exact", **pair)).shots is None
    text = make(task="repeat_check", shots=100, **pair)
    with pytest.raises(ScenarioError, match="repeat_check") as err:
        parse_scenario(text)
    assert err.value.path == "shots"
    assert '"shots"' in text.splitlines()[err.value.line - 1]


def test_run_scenario_refuses_shots_on_repeat_check():
    # A Scenario built or replaced in code skips the parser, so the run checks too.
    pair = {"state_a": {"kind": "fock", "n": 0}, "state_b": {"kind": "fock", "n": 1}}
    scenario = parse_scenario(make(task="repeat_check", **pair))
    with pytest.raises(ScenarioError, match="shots") as err:
        run_scenario(replace(scenario, shots=100))
    assert err.value.path == "shots"
    assert run_scenario(scenario).shots is None


def test_schema_lists_what_the_parser_takes():
    schema = json.loads((Path(__file__).resolve().parents[1] / "scenarios" / "scenario.schema.json").read_text())
    fields, kinds = schema["properties"], schema["definitions"]
    assert set(fields) == scenario_module._TOP_KEYS
    assert sorted(fields["task"]["enum"]) == sorted(ALL_TASKS)
    assert fields["device_mode"]["enum"] == list(scenario_module.DEVICE_MODE_LABELS)
    assert kinds["single_mode_state"]["properties"]["kind"]["enum"] == list(scenario_module.SINGLE_MODE_KINDS)
    assert kinds["joint_state"]["properties"]["kind"]["enum"] == list(scenario_module.JOINT_KINDS)
    assert "repeat_check" in schema["description"] and "shots" in schema["description"]


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


PINNED = ResultRecord(
    scenario="pin", task="overlap", device_value=0.1, oracle_value=1 / 3, abs_error=1e-20,
    std_error=None, verdict=None, seed=7, shots=12, rng="philox", timestamp=None,
    phases=[0.0, 0.1, 1 / 3], p_up=[1.0, 0.5, 1e-20], p_down=[0.0, 0.5, 1.0],
    count_up=[12, 6, 0], count_down=[0, 6, 12],
)
PINNED_HEAD = (
    '{\n  "scenario": "pin",\n  "task": "overlap",\n  "device_value": 0.10000000000000001,\n'
    '  "oracle_value": 0.33333333333333331,\n  "abs_error": 9.9999999999999995e-21,\n'
    '  "std_error": null,\n  "verdict": null,\n  "seed": 7,\n'
)


def test_serialized_bytes_are_pinned(tmp_path):
    assert emit(PINNED) == (
        PINNED_HEAD
        + '  "shots": 12,\n  "rng": "philox",\n  "timestamp": null,\n'
        '  "phases": [0, 0.10000000000000001, 0.33333333333333331],\n'
        '  "p_up": [1, 0.5, 9.9999999999999995e-21],\n  "p_down": [0, 0.5, 1],\n'
        '  "count_up": [12, 6, 0],\n  "count_down": [0, 6, 12]\n}\n'
    ).encode()
    assert emit(PINNED, "csv") == (
        b"phase,p_up,p_down,count_up,count_down\n0,1,0,12,0\n"
        b"0.10000000000000001,0.5,0.5,6,6\n0.33333333333333331,9.9999999999999995e-21,1,0,12\n"
    )
    empty = replace(PINNED, shots=None, phases=[], p_up=[], p_down=[], count_up=None, count_down=None)
    assert emit(empty) == (
        PINNED_HEAD
        + '  "shots": null,\n  "rng": "philox",\n  "timestamp": null,\n'
        '  "phases": [],\n  "p_up": [],\n  "p_down": [],\n  "count_up": null,\n'
        '  "count_down": null\n}\n'
    ).encode()
    assert emit(empty, "csv") == b"phase,p_up,p_down,count_up,count_down\n"
    write_record(PINNED, tmp_path / "pin.csv", "csv")
    assert (tmp_path / "pin.summary.json").read_text() == (
        PINNED_HEAD + '  "shots": 12,\n  "rng": "philox",\n  "timestamp": null\n}\n'
    )


_TABLE_FLOATS = ("phases", "p_up", "p_down")
_SCALAR_FLOATS = ("device_value", "oracle_value", "abs_error", "std_error")


@pytest.mark.parametrize("format", ["json", "csv"])
def test_non_finite_floats_are_refused_in_every_format(format, tmp_path):
    for name in _TABLE_FLOATS + _SCALAR_FLOATS:
        for bad in (math.nan, math.inf, -math.inf):
            if name in _TABLE_FLOATS:
                # A finite list of the same length first, so a kept text cannot serve the bad one.
                emit(PINNED, format)
                record = replace(PINNED, **{name: [PINNED.phases[0], bad, PINNED.phases[2]]})
            else:
                record = replace(PINNED, **{name: bad})
            if format == "csv" and name in _SCALAR_FLOATS:
                emit(record, "csv")  # the table holds no scalar; the summary sidecar does
                with pytest.raises(ValueError, match="non-finite"):
                    write_record(record, tmp_path / "bad.csv", "csv")
            else:
                with pytest.raises(ValueError, match="non-finite"):
                    emit(record, format)


def test_kept_phase_texts_tell_signed_zeros_apart():
    assert b'"phases": [0, ' in emit(PINNED)
    signed = replace(PINNED, phases=[-0.0, 0.1, 1 / 3])  # equal to PINNED.phases under ==
    assert b'"phases": [-0, ' in emit(signed)
    assert emit(signed, "csv").splitlines()[1].startswith(b"-0,")


def test_phase_lists_longer_than_the_kept_grids_are_written_but_not_kept():
    k = 65  # one more than protocol._GRID_MAX_CACHED
    record = replace(PINNED, phases=[2 * math.pi * j / k for j in range(k)], p_up=[0.5] * k,
                     p_down=[0.5] * k, count_up=None, count_down=None)
    kept = dict(scenario_module._PHASE_TEXTS)
    assert emit(record) == (_reference_dumps(vars(record)) + "\n").encode()
    assert len(emit(record, "csv").splitlines()) == k + 1
    assert scenario_module._PHASE_TEXTS == kept


def test_the_phase_text_memo_is_emptied_when_full(monkeypatch):
    # One list more than the memo holds: the last one empties it first.
    monkeypatch.setattr(scenario_module, "_PHASE_TEXTS", {})
    limit = scenario_module._PHASE_TEXTS_MAX
    sizes = []
    for j in range(limit + 1):
        phases = [0.5 * j + 0.1 * i for i in range(8)]
        record = replace(PINNED, phases=phases, p_up=[0.5] * 8, p_down=[0.5] * 8,
                         count_up=None, count_down=None)
        assert emit(record) == (_reference_dumps(vars(record)) + "\n").encode()
        sizes.append(len(scenario_module._PHASE_TEXTS))
    assert max(sizes) == limit
    assert sizes[-1] == 1


def _reference_dumps(doc: dict) -> str:
    """The plain record writer: every key and every non-float value through json.dumps."""

    def scalar(value) -> str:
        return format_float(value) if isinstance(value, float) else json.dumps(value)

    lines = []
    for key, value in doc.items():
        if isinstance(value, (list, tuple)):
            value_text = "[" + ", ".join(map(scalar, value)) + "]"
        else:
            value_text = scalar(value)
        lines.append(f"  {json.dumps(key)}: {value_text}")
    return "{\n" + ",\n".join(lines) + "\n}"


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NAMES = st.sampled_from(['say "hi"', "back\\slash\\", "naïve ünïcødé ✓ 量子", "tab\tnew\nline", ""]) | st.text()


@st.composite
def _records(draw):
    k = draw(st.integers(0, 5))
    floats = st.lists(_FINITE, min_size=k, max_size=k)
    counts = st.none() | st.lists(st.integers(0, 10**9), min_size=k, max_size=k)
    return ResultRecord(
        scenario=draw(_NAMES), task=draw(st.sampled_from(ALL_TASKS)), device_value=draw(_FINITE),
        oracle_value=draw(_FINITE), abs_error=draw(_FINITE), std_error=draw(st.none() | _FINITE),
        verdict=draw(st.none() | _NAMES), seed=draw(st.integers()), shots=draw(st.none() | st.integers(1)),
        rng=draw(_NAMES), timestamp=draw(st.none() | _NAMES), phases=draw(floats), p_up=draw(floats),
        p_down=draw(floats), count_up=draw(counts), count_down=draw(counts),
    )


@given(_records())
def test_record_writer_round_trips_and_matches_the_reference_writer(record):
    text = emit(record)
    assert json.loads(text) == asdict(record)
    assert text == (_reference_dumps(vars(record)) + "\n").encode()


def _shot_states(task: str, mode: str, seed: int) -> dict:
    """Inputs for one shot-mode document: safe-sector states at cutoff 3 in physical mode."""
    if task == "witness":
        if mode == "ideal":
            return {"cutoff": 2, "state_joint": {"kind": "werner", "p": 0.7}}
        singlet = [0, [0.6, 0.1], 0, [-0.7, 0.2], 0, 0, 0, 0, 0]  # |0,1> and |1,0> only
        return {"cutoff": 3, "state_joint": {"kind": "pure", "amplitudes": singlet}}
    if mode == "ideal":
        a = {"kind": "ginibre_mixed", "rank": 2, "seed": seed}
        b = {"kind": "coherent", "alpha": [0.3, -0.2]}
    else:
        a = {"kind": "pure", "amplitudes": [0.8, [0.3, 0.5], 0]}
        b = {"kind": "fock", "n": 1}
    states = {"cutoff": 3, "state_a": a}
    if task not in ("purity", "linear_entropy"):
        states["state_b"] = b
    return states


def shot_documents() -> list[str]:
    """Every task that takes shots, in ideal and physical mode, over phase counts, shot budgets and seeds."""
    docs = []
    for task in (task for task in ALL_TASKS if task != "repeat_check"):  # it always runs exact
        for mode in ("ideal", "physical"):
            for phases in (3, 8, 13):
                for shots in (1, 1000, 10**5):
                    for seed in (-1, 0, 2**53 + 1):
                        doc = {"name": f"{task}-{mode}-{phases}-{shots}-{seed}", "task": task,
                               "device_mode": mode, "phases": phases, "shots": shots, "seed": seed}
                        doc.update(_shot_states(task, mode, seed))
                        docs.append(json.dumps(doc))
    return docs


# SHA-256 of the json then csv emit of every document of shot_documents(), in order.
SHOT_RECORDS_SHA256 = "e69555fb19c3f573057e6c945a311461cb3ad645980d267ba33359a4f9b6dc56"


@pytest.mark.filterwarnings("error")
def test_shot_mode_records_are_pinned():
    digest = hashlib.sha256()
    for text in shot_documents():
        record = run_scenario(parse_scenario(text))
        digest.update(emit(record, "json"))
        digest.update(emit(record, "csv"))
    assert digest.hexdigest() == SHOT_RECORDS_SHA256
