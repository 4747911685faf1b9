"""Declarative scenario runner: JSON description in, measurement record out.

A scenario names one task (overlap, fidelity, purity, linear_entropy,
hs_distance, witness, repeat_check), the input states by constructor, the
device realization, the phase-grid size and the shot budget.  Records
serialize deterministically: identical (scenario, seed) pairs give
byte-identical output.
"""

from __future__ import annotations

import datetime as _dt
import functools
import json
import math
import re
import struct
import sys
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
_REPEAT_CHECK_EXACT = "task 'repeat_check' always runs exact: shots must be \"exact\""

_TOP_KEYS = {
    "name", "task", "cutoff", "device_mode", "state_a", "state_b",
    "state_joint", "phases", "shots", "seed", "output", "expected",
}

_HAMILTONIANS = {make.__name__: make for make in (linear_coupling, dispersive_cps, ion_qnd)}
DEVICE_MODE_LABELS = ("ideal", "physical") + tuple(f"hamiltonian:{kind}" for kind in _HAMILTONIANS)

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
    """Line of a dotted path: each key is searched from the line of the one before it.

    A key matches only as a key, ``"key"`` followed by ``:``, so a string
    value equal to a key name is passed over.
    """
    lines, found = text.splitlines(), None
    for key in path.split("."):  # a key that is not found is skipped
        pattern = re.compile(rf'"{re.escape(key)}"\s*:')
        found = next((i for i in range(found or 0, len(lines)) if pattern.search(lines[i])), found)
    return None if found is None else found + 1


def _require(cond: bool, message: str, path: str, text: str, key: str | None = None):
    if not cond:
        raise ScenarioError(message, path, _find_line(text, key or path))


def _is_number(value) -> bool:
    """A JSON number a float holds: an int or a float, not a bool, NaN or infinite."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _as_complex(value, path: str, text: str) -> complex:
    if _is_number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(map(_is_number, value)):
        return complex(value[0], value[1])
    raise ScenarioError("expected a finite number or a [re, im] pair", path, _find_line(text, path))


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
                                _find_line(text, f"{path}.kind"))
        return params.pop(name, default)

    def _take_int(name, default=None, required=False):
        value = _take(name, default, required)
        _require(type(value) is int, f"{name} must be an integer", f"{path}.{name}", text)
        return value

    def _take_number(name):
        value = _take(name, required=True)
        _require(_is_number(value), f"{name} must be a finite number", f"{path}.{name}", text)
        return float(value)

    if kind in ("bell_singlet", "classical_correlated", "werner"):
        _require(cutoff == 2, f"{kind} needs cutoff 2", path, text, "cutoff")
    try:
        if kind == "fock":
            ket = states.fock_ket(_take_int("n", required=True), cutoff)
            built = states.pure(ket)
        elif kind == "coherent":
            alpha = _as_complex(_take("alpha", required=True), f"{path}.alpha", text)
            ket = states.coherent_ket(alpha, cutoff)
            built = states.pure(ket)
        elif kind == "thermal":
            built, ket = states.thermal(_take_number("nbar"), cutoff), None
        elif kind == "bell_singlet":
            built, ket = states.bell_singlet(), None
        elif kind == "classical_correlated":
            built, ket = states.classical_correlated(), None
        elif kind == "werner":
            built, ket = states.werner(_take_number("p")), None
        elif kind == "ginibre_mixed":
            rank = _take_int("rank", required=True)
            seed = _take_int("seed", 0)
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
        raise ScenarioError(str(exc), path, _find_line(text, f"{path}.kind")) from exc

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
    if label in DEVICE_MODE_LABELS:
        return hamiltonian_mode(_HAMILTONIANS[label.split(":", 1)[1]](1.0, cutoff))
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
    _require(type(cutoff) is int and cutoff >= 2, "cutoff must be an integer >= 2", "cutoff", text)

    phases = doc.get("phases", 8)
    _require(type(phases) is int and phases >= 3, "phases must be an integer >= 3", "phases", text)
    shots_raw = doc.get("shots", "exact")
    if shots_raw == "exact":
        shots = None
    elif type(shots_raw) is int and shots_raw >= 1:
        shots = shots_raw
    else:
        raise ScenarioError("shots must be a positive integer or \"exact\"", "shots",
                            _find_line(text, "shots"))
    _require(shots is None or task != "repeat_check", _REPEAT_CHECK_EXACT, "shots", text)
    seed = doc.get("seed", 0)
    _require(type(seed) is int, "seed must be an integer", "seed", text)
    output = doc.get("output")
    if output is not None:
        _require(isinstance(output, str), "output must be a path string", "output", text)
    expected = doc.get("expected")
    if expected is not None:
        _require(isinstance(expected, dict), "expected must be an object", "expected", text)
        bad = sorted(set(expected) - {"device_value", "tol"})
        _require(not bad, f"unknown expected field {bad[0] if bad else ''!r}", "expected", text)
        value, tol = expected.get("device_value", 0.0), expected.get("tol", 1.0)
        _require(_is_number(value), "expected.device_value must be a finite number", "expected.device_value", text)
        _require(_is_number(tol) and tol > 0, "expected.tol must be a finite number > 0", "expected.tol", text)

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


def _device_input(s: Scenario) -> DensityMatrix | ProductState:
    """What the device sees: the joint state, or the pair kept as its factors."""
    return s.state_joint if s.task == "witness" else ProductState(s.state_a, s.state_b or s.state_a)


@functools.lru_cache(maxsize=32)
def _unsafe_mask(d: int) -> np.ndarray:
    """Where n0 + n1 > d - 1 on a d x d grid of populations p[n0, n1], read-only."""
    mask = np.add.outer(np.arange(d), np.arange(d)) > d - 1
    mask.flags.writeable = False
    return mask


def _check_safe_support(s: Scenario):
    """Warn once when an input of a non-ideal device has support above the safe sector.

    The inputs are the products the task's device runs.  ``hs_distance`` runs
    a (x) a and b (x) b, then the product of their reduced post-states; at
    the default time, where the parser builds every mode, the reduced
    post-state of a safe x (x) x is x up to rounding, so the first two
    decide.  The warning quotes the largest population above the sector.
    """
    if s.task == "hs_distance":
        inputs = (ProductState(s.state_a, s.state_a), ProductState(s.state_b, s.state_b))
    else:
        inputs = (_device_input(s),)
    mask = _unsafe_mask(s.cutoff)
    unsafe = max(float(state.populations()[mask].sum()) for state in inputs)
    if unsafe > 1e-10:
        warnings.warn(
            f"scenario {s.name!r}: input has population {unsafe:.2e} above total photon "
            f"number {s.cutoff - 1}; composed-gate devices are exact only below the cutoff",
            UserWarning,
            stacklevel=3,
        )


def run_scenario(scenario: Scenario, stamp: bool = False) -> ResultRecord:
    """Execute a scenario; deterministic given (scenario, seed).

    When the scenario names an ``output`` path, the JSON record is written
    there.  ``stamp=True`` adds a wall-clock UTC timestamp to the record
    (off by default so records stay byte-identical across reruns).  A
    ``repeat_check`` scenario with ``shots`` set is refused, as the parser
    refuses it.
    """
    s = scenario
    if s.task == "repeat_check" and s.shots is not None:
        raise ScenarioError(_REPEAT_CHECK_EXACT, "shots")
    if s.device_mode.kind != "ideal":
        _check_safe_support(s)
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
        run = protocol.sweep_visibility(_device_input(s), s.phase_count, s.device_mode)
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
        phases=run.phases.tolist(),
        p_up=run.p_up.tolist(),
        p_down=run.p_down.tolist(),
        count_up=None if counts is None else counts[:, 0].tolist(),
        count_down=None if counts is None else counts[:, 1].tolist(),
    )
    if s.output:
        write_record(record, s.output, "json")
    return record


# ---------------------------------------------------------------------------
# serialization

_quote = json.encoder.encode_basestring_ascii  # what json.dumps writes for a str

# A record is written as one JSON object, one field per line, each list on
# one line.  Its scalar fields alone make a CSV record's summary sidecar.
_SUMMARY_LAYOUT = (
    '{\n  "scenario": %s,\n  "task": %s,\n  "device_value": %s,\n  "oracle_value": %s,\n'
    '  "abs_error": %s,\n  "std_error": %s,\n  "verdict": %s,\n  "seed": %s,\n'
    '  "shots": %s,\n  "rng": %s,\n  "timestamp": %s'
)
_TABLE_LAYOUT = (
    ',\n  "phases": [%s],\n  "p_up": [%s],\n  "p_down": [%s],\n'
    '  "count_up": %s,\n  "count_down": %s\n}\n'
)
_CSV_HEADER = "phase,p_up,p_down,count_up,count_down\n"
_CSV_ROW = "%s,%.17g,%.17g,%s,%s\n"

# Phase texts kept per process, by the phases' bits, for lists of up to
# protocol._GRID_MAX_CACHED phases (as the grids are kept); the memo is
# emptied when it holds this many lists.
_PHASE_TEXTS_MAX = 64
_PHASE_TEXTS: dict[bytes, tuple[str, ...]] = {}


def format_float(x: float) -> str:
    """17 significant digits, the format of every float in JSON and CSV output."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("cannot serialize non-finite float")
    return format(x, ".17g")


def _scalar(value) -> str:
    """One JSON value.

    Floats go through :func:`format_float`; None and exact ints (not bools)
    are written directly, strings escaped as ``json.dumps`` escapes them;
    anything else (bools) goes through ``json.dumps``.
    """
    if isinstance(value, float):
        return format_float(value)
    if value is None:
        return "null"
    if type(value) is int:
        return str(value)
    if isinstance(value, str):
        return _quote(value)
    return json.dumps(value)


def _floats(values) -> str:
    """A list's floats, comma-separated, in one ``%.17g`` format and one finiteness check."""
    text = ", ".join(["%.17g"] * len(values)) % tuple(values)
    # %.17g writes a finite float with digits, ".", "e", "+" and "-" only, and
    # inf or nan otherwise: an "n" marks a non-finite float.
    if "n" in text:
        raise ValueError("cannot serialize non-finite float")
    return text


def _phase_texts(phases: list) -> tuple[str, ...]:
    """Each phase's text; the phases of one grid are formatted once per process.

    The texts are kept by the phases' bits, so 0.0 and -0.0 are told apart,
    and only for finite phases.
    """
    if len(phases) > protocol._GRID_MAX_CACHED:
        return tuple(map(format_float, phases))
    key = struct.pack("%dd" % len(phases), *phases)
    texts = _PHASE_TEXTS.get(key)
    if texts is None:
        texts = tuple(map(format_float, phases))
        if len(_PHASE_TEXTS) >= _PHASE_TEXTS_MAX:
            _PHASE_TEXTS.clear()
        _PHASE_TEXTS[key] = texts
    return texts


def _counts(counts: list | None) -> str:
    return "null" if counts is None else "[" + ", ".join(map(str, counts)) + "]"


def _summary(record: ResultRecord) -> str:
    """The JSON of the record's scalar fields, without the closing brace."""
    r = record
    return _SUMMARY_LAYOUT % tuple(map(_scalar, (
        r.scenario, r.task, r.device_value, r.oracle_value, r.abs_error, r.std_error,
        r.verdict, r.seed, r.shots, r.rng, r.timestamp)))


def record_to_dict(record: ResultRecord) -> dict:
    return asdict(record)


def record_from_dict(doc: dict) -> ResultRecord:
    return ResultRecord(**doc)


def emit(record: ResultRecord, format: str = "json") -> bytes:
    """Serialize one record; floats carry 17 significant digits.

    ``json`` emits the full record as one object; ``csv`` emits the per-phase
    table with header ``phase,p_up,p_down,count_up,count_down`` (count cells
    empty in exact mode).  A non-finite float raises ``ValueError``.
    """
    r = record
    if format == "json":
        table = (", ".join(_phase_texts(r.phases)), _floats(r.p_up), _floats(r.p_down),
                 _counts(r.count_up), _counts(r.count_down))
        return (_summary(r) + _TABLE_LAYOUT % table).encode()
    if format == "csv":
        n = len(r.phases)
        up = [""] * n if r.count_up is None else r.count_up
        down = [""] * n if r.count_down is None else r.count_down
        rows = "".join(map(_CSV_ROW.__mod__, zip(_phase_texts(r.phases), r.p_up, r.p_down, up, down,
                                                 strict=True)))
        # the phases are finite and the counts integers: an "n" is a non-finite p
        if "n" in rows:
            raise ValueError("cannot serialize non-finite float")
        return (_CSV_HEADER + rows).encode()
    raise ValueError(f"unknown format {format!r}")


def write_record(record: ResultRecord, path: str | Path, format: str = "json") -> Path:
    """Write the record; CSV output gains a JSON summary sidecar (no table)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(emit(record, format))
    if format == "csv":
        path.with_suffix(".summary.json").write_text(_summary(record) + "\n}\n")
    return path
