"""Declarative scenario runner: JSON description in, measurement record out.

A scenario names one task (overlap, fidelity, purity, linear_entropy,
hs_distance, witness, repeat_check), the input states by constructor, the
device realization, the phase-grid size and the shot budget.  Records
serialize deterministically: identical (scenario, seed) pairs give
byte-identical output.
"""

from __future__ import annotations

import datetime as _dt
import json
import math
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import observables, protocol, states
from .dynamics import dispersive_cps, ion_qnd, linear_coupling
from .linalg import DensityMatrix, ProductState
# Bound here although unused: perfbench/tests/test_bench.py
# (test_every_patched_name_is_restored) patches and restores it by this name.
from .linalg import tensor_states  # noqa: F401
from .observables import MeasurementSettings
from .protocol import IDEAL, PHYSICAL, DeviceMode, hamiltonian_mode
from .states import RNG_ALGORITHM

TASKS_PAIR = ("overlap", "fidelity", "hs_distance", "repeat_check")
TASKS_SINGLE = ("purity", "linear_entropy")
TASKS_JOINT = ("witness",)
ALL_TASKS = TASKS_PAIR + TASKS_SINGLE + TASKS_JOINT

_TOP_KEYS = {
    "name", "task", "cutoff", "device_mode", "state_a", "state_b",
    "state_joint", "phases", "shots", "seed", "output", "expected",
}

SINGLE_MODE_KINDS = ("fock", "coherent", "thermal", "ginibre_mixed", "pure")
JOINT_KINDS = ("bell_singlet", "classical_correlated", "werner", "ginibre_mixed", "pure")


class ScenarioError(ValueError):
    """Validation failure, annotated with the offending field path and line."""

    def __init__(self, message: str, path: str = "", line: int | None = None):
        self.path = path
        self.line = line
        loc = ""
        if path:
            loc += f" (at {path}"
            loc += f", line {line})" if line is not None else ")"
        elif line is not None:
            loc += f" (line {line})"
        super().__init__(message + loc)


@dataclass(frozen=True)
class Scenario:
    name: str
    task: str
    cutoff: int
    device_mode: DeviceMode
    device_mode_label: str
    state_a: DensityMatrix | None
    state_b: DensityMatrix | None
    state_b_vector: np.ndarray | None
    state_joint: DensityMatrix | None
    phase_count: int
    shots: int | None
    seed: int
    output: str | None
    expected: dict | None


@dataclass(frozen=True)
class ResultRecord:
    scenario: str
    task: str
    device_value: float
    oracle_value: float
    abs_error: float
    std_error: float | None
    verdict: str | None
    seed: int
    shots: int | None
    rng: str
    timestamp: str | None
    phases: list = field(default_factory=list)
    p_up: list = field(default_factory=list)
    p_down: list = field(default_factory=list)
    count_up: list | None = None
    count_down: list | None = None


def _find_line(text: str, path: str) -> int | None:
    """Line of a dotted path: each key is searched from the line of the one before it."""
    lines, found = text.splitlines(), None
    for key in path.split("."):  # a key that is not found is skipped
        found = next((i for i in range(found or 0, len(lines)) if f'"{key}"' in lines[i]), found)
    return None if found is None else found + 1


def _require(cond: bool, message: str, path: str, text: str, key: str | None = None):
    if not cond:
        raise ScenarioError(message, path, _find_line(text, key or path))


def _as_complex(value, path: str, text: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(isinstance(x, (int, float)) for x in value):
        return complex(value[0], value[1])
    raise ScenarioError("expected a number or a [re, im] pair", path, _find_line(text, path))


def _build_state(spec, cutoff: int, slot: str, text: str):
    """Build one state; returns (DensityMatrix, ket_or_None)."""
    path = slot
    if not isinstance(spec, dict):
        raise ScenarioError("state spec must be an object", path, _find_line(text, slot))
    kind = spec.get("kind")
    joint = slot == "state_joint"
    allowed = JOINT_KINDS if joint else SINGLE_MODE_KINDS
    if kind not in allowed:
        known = ", ".join(allowed)
        raise ScenarioError(
            f"unknown state constructor {kind!r} for {slot} (known: {known})",
            f"{path}.kind",
            _find_line(text, f"{path}.kind"),
        )
    params = {k: v for k, v in spec.items() if k != "kind"}

    def _take(name, default=None, required=False):
        if required and name not in params:
            raise ScenarioError(f"constructor {kind!r} requires parameter {name!r}", f"{path}.{name}",
                                _find_line(text, f"{path}.{kind}"))
        return params.pop(name, default)

    try:
        if kind == "fock":
            n = _take("n", required=True)
            built, ket = states.fock(int(n), cutoff), states.fock_ket(int(n), cutoff)
        elif kind == "coherent":
            alpha = _as_complex(_take("alpha", required=True), f"{path}.alpha", text)
            built, ket = states.coherent(alpha, cutoff), states.coherent_ket(alpha, cutoff)
        elif kind == "thermal":
            built, ket = states.thermal(float(_take("nbar", required=True)), cutoff), None
        elif kind == "bell_singlet":
            _require(cutoff == 2, "bell_singlet needs cutoff 2", f"{path}", text, "cutoff")
            built, ket = states.bell_singlet(), None
        elif kind == "classical_correlated":
            _require(cutoff == 2, "classical_correlated needs cutoff 2", f"{path}", text, "cutoff")
            built, ket = states.classical_correlated(), None
        elif kind == "werner":
            _require(cutoff == 2, "werner needs cutoff 2", f"{path}", text, "cutoff")
            built, ket = states.werner(float(_take("p", required=True))), None
        elif kind == "ginibre_mixed":
            rank = int(_take("rank", required=True))
            seed = int(_take("seed", 0))
            if joint:
                built = states.ginibre_mixed(cutoff * cutoff, rank, seed, dims=(cutoff, cutoff))
            else:
                built = states.ginibre_mixed(cutoff, rank, seed)
            ket = None
        else:  # pure
            amps = _take("amplitudes", required=True)
            if not isinstance(amps, list):
                raise ScenarioError("amplitudes must be a list", f"{path}.amplitudes",
                                    _find_line(text, f"{path}.amplitudes"))
            vec = np.array([_as_complex(x, f"{path}.amplitudes", text) for x in amps])
            want = cutoff * cutoff if joint else cutoff
            if vec.size != want:
                raise ScenarioError(
                    f"amplitude count {vec.size} does not match cutoff (expected {want})",
                    f"{path}.amplitudes", _find_line(text, f"{path}.amplitudes"))
            dims = (cutoff, cutoff) if joint else None
            built = states.pure(vec, dims=dims)
            ket = vec / np.linalg.norm(vec)
    except ScenarioError:
        raise
    except (ValueError, TypeError) as exc:
        raise ScenarioError(str(exc), path, _find_line(text, f"{path}.{kind}")) from exc

    if params:
        extra = sorted(params)
        raise ScenarioError(f"unknown parameter(s) {extra} for constructor {kind!r}",
                            f"{path}.{extra[0]}", _find_line(text, f"{path}.{extra[0]}"))
    return built, ket


def _parse_device_mode(label: str, cutoff: int, text: str) -> DeviceMode:
    if label == "ideal":
        return IDEAL
    if label == "physical":
        return PHYSICAL
    if label.startswith("hamiltonian:"):
        kind = label.split(":", 1)[1]
        builders = {
            "linear_coupling": linear_coupling,
            "dispersive_cps": dispersive_cps,
            "ion_qnd": ion_qnd,
        }
        if kind in builders:
            return hamiltonian_mode(builders[kind](1.0, cutoff))
    raise ScenarioError(
        f"unknown device_mode {label!r} (use ideal, physical, or hamiltonian:<kind>)",
        "device_mode", _find_line(text, "device_mode"))


def parse_scenario(text: str) -> Scenario:
    """Parse and validate one scenario document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc.msg}", "", exc.lineno) from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")

    unknown = sorted(set(doc) - _TOP_KEYS)
    if unknown:
        raise ScenarioError(f"unknown field {unknown[0]!r}", unknown[0], _find_line(text, unknown[0]))

    name = doc.get("name")
    _require(isinstance(name, str) and name != "", "scenario needs a nonempty string 'name'", "name", text)
    task = doc.get("task")
    if task not in ALL_TASKS:
        raise ScenarioError(f"unknown task {task!r} (known: {', '.join(ALL_TASKS)})",
                            "task", _find_line(text, "task"))
    cutoff = doc.get("cutoff")
    _require(isinstance(cutoff, int) and cutoff >= 2, "cutoff must be an integer >= 2", "cutoff", text)

    phases = doc.get("phases", 8)
    _require(isinstance(phases, int) and phases >= 3, "phases must be an integer >= 3", "phases", text)
    shots_raw = doc.get("shots", "exact")
    if shots_raw == "exact":
        shots = None
    elif isinstance(shots_raw, int) and shots_raw >= 1:
        shots = shots_raw
    else:
        raise ScenarioError("shots must be a positive integer or \"exact\"", "shots",
                            _find_line(text, "shots"))
    seed = doc.get("seed", 0)
    _require(isinstance(seed, int), "seed must be an integer", "seed", text)
    output = doc.get("output")
    if output is not None:
        _require(isinstance(output, str), "output must be a path string", "output", text)
    expected = doc.get("expected")
    if expected is not None:
        _require(isinstance(expected, dict), "expected must be an object", "expected", text)
        bad = sorted(set(expected) - {"device_value", "tol"})
        _require(not bad, f"unknown expected field {bad[0] if bad else ''!r}", "expected", text)

    device_label = doc.get("device_mode", "ideal")
    mode = _parse_device_mode(device_label, cutoff, text)

    has_pair = "state_a" in doc or "state_b" in doc
    has_joint = "state_joint" in doc
    if task in TASKS_JOINT:
        _require(has_joint and not has_pair,
                 f"task {task!r} takes state_joint, not state_a/state_b", "state_joint", text,
                 key="task")
    elif task in TASKS_SINGLE:
        _require("state_a" in doc and "state_b" not in doc and not has_joint,
                 f"task {task!r} takes state_a only", "state_a", text, key="task")
    else:
        _require("state_a" in doc and "state_b" in doc and not has_joint,
                 f"task {task!r} takes state_a and state_b", "state_a", text, key="task")

    state_a = state_b = state_joint = None
    ket_b = None
    if "state_a" in doc:
        state_a, _ = _build_state(doc["state_a"], cutoff, "state_a", text)
    if "state_b" in doc:
        state_b, ket_b = _build_state(doc["state_b"], cutoff, "state_b", text)
    if has_joint:
        state_joint, _ = _build_state(doc["state_joint"], cutoff, "state_joint", text)

    if task == "fidelity" and ket_b is None:
        raise ScenarioError(
            "task 'fidelity' needs a pure state_b (constructors fock, coherent or pure)",
            "state_b", _find_line(text, "state_b"))

    return Scenario(
        name=name, task=task, cutoff=cutoff, device_mode=mode,
        device_mode_label=device_label, state_a=state_a, state_b=state_b,
        state_b_vector=ket_b, state_joint=state_joint, phase_count=phases,
        shots=shots, seed=seed, output=output, expected=expected,
    )


def _check_safe_support(state: DensityMatrix | ProductState, mode: DeviceMode, name: str):
    """Warn when a non-ideal device sees support above the safe sector."""
    if mode.kind == "ideal":
        return
    if isinstance(state, ProductState):
        pops = np.outer(np.diag(state.a.mat).real, np.diag(state.b.mat).real)
    else:
        pops = np.diag(state.mat).real.reshape(state.space.dims)
    d0, d1 = pops.shape
    total = np.add.outer(np.arange(d0), np.arange(d1))
    unsafe = float(pops[total > d0 - 1].sum())
    if unsafe > 1e-10:
        warnings.warn(
            f"scenario {name!r}: input has population {unsafe:.2e} above total photon "
            f"number {d0 - 1}; composed-gate devices are exact only below the cutoff",
            UserWarning,
            stacklevel=3,
        )


def run_scenario(scenario: Scenario, stamp: bool = False) -> ResultRecord:
    """Execute a scenario; deterministic given (scenario, seed).

    When the scenario names an ``output`` path, the JSON record is written
    there.  ``stamp=True`` adds a wall-clock UTC timestamp to the record
    (off by default so records stay byte-identical across reruns).
    """
    s = scenario
    device_input = (s.state_joint if s.task == "witness"
                    else ProductState(s.state_a, s.state_b or s.state_a))
    _check_safe_support(device_input, s.device_mode, s.name)
    settings = MeasurementSettings(mode=s.device_mode, phase_count=s.phase_count,
                                   shots=s.shots, seed=s.seed)
    if s.task == "witness":
        report = observables.witness(s.state_joint, settings)
    elif s.task == "fidelity":
        report = observables.fidelity_with_pure(s.state_a, s.state_b_vector, settings)
    elif s.task in TASKS_SINGLE:
        report = getattr(observables, s.task)(s.state_a, settings)
    elif s.task != "repeat_check":  # overlap, hs_distance
        report = getattr(observables, s.task)(s.state_a, s.state_b, settings)
    else:  # second-pass visibility against the first
        run = protocol.sweep_visibility(device_input, s.phase_count, s.device_mode)
        report = observables.ObservableReport(
            name="repeat_check",
            device_value=run.post_visibility,
            oracle_value=run.visibility,
            abs_error=abs(run.post_visibility - run.visibility),
            shots_used=None,
            run=run,
        )

    run, counts = report.run, report.counts
    timestamp = _dt.datetime.now(_dt.timezone.utc).isoformat() if stamp else None
    record = ResultRecord(
        scenario=s.name,
        task=s.task,
        device_value=report.device_value,
        oracle_value=report.oracle_value,
        abs_error=report.abs_error,
        std_error=report.std_error,
        verdict=report.verdict,
        seed=s.seed,
        shots=report.shots_used,
        rng=RNG_ALGORITHM,
        timestamp=timestamp,
        phases=[float(x) for x in run.phases],
        p_up=[float(x) for x in run.p_up],
        p_down=[float(x) for x in run.p_down],
        count_up=None if counts is None else [int(x) for x in counts[:, 0]],
        count_down=None if counts is None else [int(x) for x in counts[:, 1]],
    )
    if s.output:
        write_record(record, s.output, "json")
    return record


# ---------------------------------------------------------------------------
# serialization

def format_float(x: float) -> str:
    """17 significant digits, the format of every float in JSON and CSV output."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("cannot serialize non-finite float")
    return format(x, ".17g")


def _dumps(doc: dict) -> str:
    """A flat record as JSON: one field per line, each list on one line."""

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


def record_to_dict(record: ResultRecord) -> dict:
    return asdict(record)


def record_from_dict(doc: dict) -> ResultRecord:
    return ResultRecord(**doc)


def emit(record: ResultRecord, format: str = "json") -> bytes:
    """Serialize one record; floats carry 17 significant digits.

    ``json`` emits the full record as one object; ``csv`` emits the per-phase
    table with header ``phase,p_up,p_down,count_up,count_down`` (count cells
    empty in exact mode).
    """
    if format == "json":
        return (_dumps(vars(record)) + "\n").encode()
    if format == "csv":
        lines = ["phase,p_up,p_down,count_up,count_down"]
        for k in range(len(record.phases)):
            cu = "" if record.count_up is None else str(record.count_up[k])
            cd = "" if record.count_down is None else str(record.count_down[k])
            lines.append(
                f"{format_float(record.phases[k])},{format_float(record.p_up[k])},"
                f"{format_float(record.p_down[k])},{cu},{cd}"
            )
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {format!r}")


def write_record(record: ResultRecord, path: str | Path, format: str = "json") -> Path:
    """Write the record; CSV output gains a JSON summary sidecar (no table)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(emit(record, format))
    if format == "csv":
        summary = {k: v for k, v in vars(record).items()
                   if k not in ("phases", "p_up", "p_down", "count_up", "count_down")}
        sidecar = path.with_suffix(".summary.json")
        sidecar.write_text(_dumps(summary) + "\n")
    return path
