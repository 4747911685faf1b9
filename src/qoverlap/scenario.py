"""Declarative scenario runner: JSON description in, measurement record out.

A scenario names one task (overlap, fidelity, purity, linear_entropy,
hs_distance, witness, repeat_check), the input states by constructor, the
device realization, the phase-grid size and the shot budget.  Records
serialize deterministically: identical (scenario, seed) pairs give
byte-identical output on one numpy version and one BLAS kernel.
"""

from __future__ import annotations

import datetime as _dt
import json
import math
import re
import sys
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import observables, protocol, states
from .dynamics import _DEFAULT_ANGLE, _spec
from .linalg import DensityMatrix, ProductState
# Bound here although unused: perfbench/tests/test_bench.py
# (test_every_patched_name_is_restored) patches and restores it by this name.
from .linalg import tensor_states  # noqa: F401
from .observables import MeasurementSettings
from .protocol import IDEAL, MAX_SHOTS, PHYSICAL, DeviceMode, hamiltonian_mode
from .states import RNG_ALGORITHM

# Each task's state fields, in the order its observable takes them.
_PAIR, _SINGLE = ("state_a", "state_b"), ("state_a",)
TASK_STATES = {"overlap": _PAIR, "fidelity": _PAIR, "hs_distance": _PAIR, "repeat_check": _PAIR,
               "purity": _SINGLE, "linear_entropy": _SINGLE, "witness": ("state_joint",)}
ALL_TASKS = tuple(TASK_STATES)
_STATE_FIELDS = ("state_a", "state_b", "state_joint")
_REPEAT_CHECK_EXACT = "task 'repeat_check' always runs exact: shots must be \"exact\""

_TOP_KEYS = {
    "name", "task", "cutoff", "device_mode", "state_a", "state_b",
    "state_joint", "phases", "shots", "seed", "output", "expected",
}

_FIXED_MODES = {"ideal": IDEAL, "physical": PHYSICAL}
DEVICE_MODE_LABELS = tuple(_FIXED_MODES) + tuple(f"hamiltonian:{kind}" for kind in _DEFAULT_ANGLE)

SINGLE_MODE_KINDS = ("fock", "coherent", "thermal", "ginibre_mixed", "pure")
JOINT_KINDS = ("bell_singlet", "classical_correlated", "werner", "ginibre_mixed", "pure")
_QUBIT_KINDS = ("bell_singlet", "classical_correlated", "werner")


class ScenarioError(ValueError):
    """Validation failure, annotated with the offending field path and line.

    :func:`parse_scenario` reports the line of ``key``, ``path`` unless a check names another.
    """

    def __init__(self, message: str, path: str = "", line: int | None = None, key: str | None = None):
        super().__init__(message)
        self.path, self.line, self.key = path, line, key or path

    def __str__(self) -> str:
        loc = [f"at {self.path}"] * bool(self.path) + [f"line {self.line}"] * (self.line is not None)
        return self.args[0] + (f" ({', '.join(loc)})" if loc else "")


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
    """Line of a dotted path: each key is searched inside the object of the one before it.

    A key matches only as a key, ``"key"`` followed by ``:``, and only at its
    own brace depth, so a string value equal to a key name and a nested key
    of the same name are passed over.  A key that is not found ends the
    search at the line of the one before it.
    """
    keys, found, depth, line = path.split("."), 0, 0, None
    for token in re.finditer(r'("(?:[^"\\]|\\.)*")(\s*:)?|[{}]', text):
        string, colon = token.groups()
        if string is None:  # a brace
            depth += 1 if token[0] == "{" else -1
            if depth < found:  # the object holding the last key found closed
                break
        elif colon:
            if depth <= found:  # a key beside or above the last one found: its value ended
                break
            if depth == found + 1 and string == f'"{keys[found]}"':
                found, line = found + 1, text.count("\n", 0, token.start()) + 1
                if found == len(keys):
                    break
    return line


def _is_number(value) -> bool:
    """A JSON number a float holds: an int or a float, not a bool, NaN or infinite."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _require(cond: bool, message: str, path: str):
    if not cond:
        raise ScenarioError(message, path)


def _as_complex(value, path: str) -> complex:
    if _is_number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(map(_is_number, value)):
        return complex(value[0], value[1])
    raise ScenarioError("expected a finite number or a [re, im] pair", path)


def _param(spec: dict, name: str, slot: str, kind: str, check: type | None = None, default=None):
    """Pop a constructor parameter, required unless it has a default; ``check`` is ``int`` or ``float``."""
    if default is None and name not in spec:
        raise ScenarioError(f"constructor {kind!r} requires parameter {name!r}", f"{slot}.{name}",
                            key=f"{slot}.kind")
    value = spec.pop(name, default)
    if check is int and type(value) is not int:
        raise ScenarioError(f"{name} must be an integer", f"{slot}.{name}")
    if check is float and not _is_number(value):
        raise ScenarioError(f"{name} must be a finite number", f"{slot}.{name}")
    return float(value) if check is float else value


def _build_state(spec, cutoff: int, slot: str):
    """Build one state; returns (DensityMatrix, ket_or_None).

    ``spec`` is the decoded document's own object: each parameter is popped
    as it is read, so what is left at the end is unknown.
    """
    _require(isinstance(spec, dict), "state spec must be an object", slot)
    joint = slot == "state_joint"
    allowed = JOINT_KINDS if joint else SINGLE_MODE_KINDS
    kind = spec.pop("kind", None)
    if kind not in allowed:
        raise ScenarioError(f"unknown state constructor {kind!r} for {slot} (known: {', '.join(allowed)})",
                            f"{slot}.kind")
    if kind in _QUBIT_KINDS and cutoff != 2:
        raise ScenarioError(f"{kind} needs cutoff 2", slot, key="cutoff")
    dims = (cutoff, cutoff) if joint else (cutoff,)
    ket = None
    try:
        if kind == "fock":
            ket = states.fock_ket(_param(spec, "n", slot, kind, int), cutoff)
        elif kind == "coherent":
            ket = states.coherent_ket(_as_complex(_param(spec, "alpha", slot, kind), f"{slot}.alpha"), cutoff)
        elif kind == "pure":
            path = f"{slot}.amplitudes"
            amps = _param(spec, "amplitudes", slot, kind)
            _require(isinstance(amps, list), "amplitudes must be a list", path)
            ket = np.array([_as_complex(x, path) for x in amps])
            if ket.size != math.prod(dims):
                raise ScenarioError(
                    f"amplitude count {ket.size} does not match cutoff (expected {math.prod(dims)})", path)
        elif kind == "thermal":
            built = states.thermal(_param(spec, "nbar", slot, kind, float), cutoff)
        elif kind in ("bell_singlet", "classical_correlated"):
            built = getattr(states, kind)()
        elif kind == "werner":
            built = states.werner(_param(spec, "p", slot, kind, float))
        else:  # ginibre_mixed
            rank, seed = _param(spec, "rank", slot, kind, int), _param(spec, "seed", slot, kind, int, 0)
            built = states.ginibre_mixed(math.prod(dims), rank, seed, dims=dims)
        if ket is not None:
            built = states.pure(ket, dims=dims)
    except ScenarioError:
        raise
    except (ValueError, TypeError) as exc:
        raise ScenarioError(str(exc), slot, key=f"{slot}.kind") from exc

    if spec:
        extra = sorted(spec)
        raise ScenarioError(f"unknown parameter(s) {extra} for constructor {kind!r}", f"{slot}.{extra[0]}")
    if kind == "pure" and slot == "state_b":  # the one ket kept, as Scenario.state_b_vector
        ket = ket / np.linalg.norm(ket)
    return built, ket


def parse_scenario(text: str) -> Scenario:
    """Parse and validate one scenario document.

    A document that does not validate raises :class:`ScenarioError` naming
    the field's dotted path and the line of its key in ``text``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc.msg}", "", exc.lineno) from exc
    try:
        return _scenario(doc)
    except ScenarioError as exc:
        if exc.key:
            exc.line = _find_line(text, exc.key)
        raise


def _scenario(doc) -> Scenario:
    """Validate a decoded document; errors carry a path but no line."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    if not _TOP_KEYS.issuperset(doc):
        unknown = min(set(doc) - _TOP_KEYS)
        raise ScenarioError(f"unknown field {unknown!r}", unknown)

    name = doc.get("name")
    _require(isinstance(name, str) and name != "", "scenario needs a nonempty string 'name'", "name")
    task = doc.get("task")
    if task not in ALL_TASKS:
        raise ScenarioError(f"unknown task {task!r} (known: {', '.join(ALL_TASKS)})", "task")
    cutoff = doc.get("cutoff")
    _require(type(cutoff) is int and cutoff >= 2, "cutoff must be an integer >= 2", "cutoff")

    phases = doc.get("phases", 8)
    _require(type(phases) is int and phases >= 3, "phases must be an integer >= 3", "phases")
    shots = doc.get("shots", "exact")
    if shots == "exact":
        shots = None
    elif type(shots) is not int or shots < 1:
        raise ScenarioError("shots must be a positive integer or \"exact\"", "shots")
    elif shots > MAX_SHOTS:
        raise ScenarioError(f"shots must be at most {MAX_SHOTS}", "shots")
    elif task == "repeat_check":
        raise ScenarioError(_REPEAT_CHECK_EXACT, "shots")
    seed = doc.get("seed", 0)
    _require(type(seed) is int, "seed must be an integer", "seed")
    output = doc.get("output")
    _require(output is None or isinstance(output, str), "output must be a path string", "output")
    expected = doc.get("expected")
    if expected is not None:
        _require(isinstance(expected, dict), "expected must be an object", "expected")
        bad = sorted(set(expected) - {"device_value", "tol"})
        if bad:
            raise ScenarioError(f"unknown expected field {bad[0]!r}", "expected")
        value, tol = expected.get("device_value", 0.0), expected.get("tol", 1.0)
        _require(_is_number(value), "expected.device_value must be a finite number", "expected.device_value")
        _require(_is_number(tol) and tol > 0, "expected.tol must be a finite number > 0", "expected.tol")

    device_label = doc.get("device_mode", "ideal")
    if device_label not in DEVICE_MODE_LABELS:
        raise ScenarioError(f"unknown device_mode {device_label!r} (use ideal, physical, or hamiltonian:<kind>)",
                            "device_mode")
    mode = _FIXED_MODES.get(device_label)
    if mode is None:
        mode = hamiltonian_mode(_spec(device_label.split(":", 1)[1], 1.0, cutoff, None))

    fields = TASK_STATES[task]
    if tuple(f for f in _STATE_FIELDS if f in doc) != fields:
        raise ScenarioError(f"task {task!r} takes {' and '.join(fields)} only", fields[0], key="task")
    (state_a, _), (state_b, ket_b), (state_joint, _) = [
        _build_state(doc[f], cutoff, f) if f in doc else (None, None) for f in _STATE_FIELDS]
    if task == "fidelity" and ket_b is None:
        raise ScenarioError("task 'fidelity' needs a pure state_b (constructors fock, coherent or pure)",
                            "state_b")

    return Scenario(
        name=name, task=task, cutoff=cutoff, device_mode=mode,
        device_mode_label=device_label, state_a=state_a, state_b=state_b,
        state_b_vector=ket_b, state_joint=state_joint, phase_count=phases,
        shots=shots, seed=seed, output=output, expected=expected,
    )


def run_scenario(scenario: Scenario, stamp: bool = False) -> ResultRecord:
    """Execute a scenario; deterministic given (scenario, seed).

    When the scenario names an ``output`` path, the JSON record is written
    there.  ``stamp=True`` adds a wall-clock UTC timestamp to the record
    (off by default so records stay byte-identical across reruns).  A
    ``repeat_check`` scenario with ``shots`` set is refused, as the parser
    refuses it.  When the report's ``unsafe_population`` (the largest over
    the runs behind its value) exceeds 1e-10, one ``UserWarning`` quotes it.
    """
    s = scenario
    if s.task == "repeat_check" and s.shots is not None:
        raise ScenarioError(_REPEAT_CHECK_EXACT, "shots")
    settings = MeasurementSettings(mode=s.device_mode, phase_count=s.phase_count,
                                   shots=s.shots, seed=s.seed)
    inputs = [getattr(s, f) for f in TASK_STATES[s.task]]
    if s.task == "fidelity":
        report = observables.fidelity_with_pure(s.state_a, s.state_b_vector, settings)
    elif s.task != "repeat_check":
        report = getattr(observables, s.task)(*inputs, settings)
    else:  # second-pass visibility against the first
        run = protocol.sweep_visibility(ProductState(*inputs), s.phase_count, s.device_mode)
        report = observables._report("repeat_check", run.post_visibility, run.visibility, settings, run=run)
    if report.unsafe_population > 1e-10:
        warnings.warn(
            f"scenario {s.name!r}: input has population {report.unsafe_population:.2e} above total "
            f"photon number {s.cutoff - 1}; composed-gate devices are exact only below the cutoff",
            UserWarning,
            stacklevel=2,
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
        seed=settings.seed,
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

# A record is written as one JSON object, one field per line in ResultRecord's
# order, each list on one line.  The per-phase table's fields are the CSV
# columns; the record's other fields make a CSV record's summary sidecar.
_FIELDS = tuple(f.name for f in fields(ResultRecord))
_TABLE = ("phases", "p_up", "p_down", "count_up", "count_down")
_SUMMARY = tuple(name for name in _FIELDS if name not in _TABLE)
_CSV_HEADER = ",".join(("phase",) + _TABLE[1:]) + "\n"
_CSV_ROW = "%.17g,%.17g,%.17g,%s,%s\n"


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
    numpy numbers as the Python numbers they hold, anything else (bools)
    through ``json.dumps``.
    """
    if isinstance(value, float):
        return format_float(value)
    if value is None:
        return "null"
    if type(value) is int:
        return str(value)
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, np.integer):
        return str(int(value))
    if isinstance(value, np.floating):
        return format_float(value)
    return json.dumps(value)


def _floats(values) -> str:
    """A list's floats, comma-separated, in one ``%.17g`` format and one finiteness check."""
    text = ", ".join(["%.17g"] * len(values)) % tuple(values)
    # %.17g writes a finite float with digits, ".", "e", "+" and "-" only, and
    # inf or nan otherwise: an "n" marks a non-finite float.
    if "n" in text:
        raise ValueError("cannot serialize non-finite float")
    return text


def _counts(counts: list | None) -> str:
    return "null" if counts is None else "[" + ", ".join(map(str, counts)) + "]"


# Each field's value writer: the table's float lists, its count lists, and scalars for the rest.
_WRITERS = dict.fromkeys(_SUMMARY, _scalar) | dict.fromkeys(_TABLE[:3], lambda values: f"[{_floats(values)}]")
_WRITERS |= dict.fromkeys(_TABLE[3:], _counts)


def _json(record: ResultRecord, names) -> str:
    """The JSON object of the record's named fields, one per line."""
    return "{\n" + ",\n".join(
        [f'  "{name}": {_WRITERS[name](getattr(record, name))}' for name in names]) + "\n}\n"


def emit(record: ResultRecord, format: str = "json") -> bytes:
    """Serialize one record; floats carry 17 significant digits.

    ``json`` emits the full record as one object; ``csv`` emits the per-phase
    table with header ``phase,p_up,p_down,count_up,count_down`` (count cells
    empty in exact mode).  A non-finite float raises ``ValueError``.
    """
    r = record
    if format == "json":
        return _json(r, _FIELDS).encode()
    if format == "csv":
        n = len(r.phases)
        up = [""] * n if r.count_up is None else r.count_up
        down = [""] * n if r.count_down is None else r.count_down
        rows = "".join(map(_CSV_ROW.__mod__, zip(r.phases, r.p_up, r.p_down, up, down, strict=True)))
        # the counts are integers: an "n" is a non-finite float
        if "n" in rows:
            raise ValueError("cannot serialize non-finite float")
        return (_CSV_HEADER + rows).encode()
    raise ValueError(f"unknown format {format!r}")


def write_record(record: ResultRecord, path: str | Path, format: str = "json") -> Path:
    """Write the record into an existing directory; CSV output gains a JSON summary sidecar (no table).

    Both files are built before either is written, so a refused record leaves no file.
    A path that cannot be written raises :class:`ScenarioError`; no directory is created.
    """
    path, data = Path(path), emit(record, format)
    sidecar = _json(record, _SUMMARY) if format == "csv" else None
    try:
        path.write_bytes(data)
        if sidecar is not None:
            path.with_suffix(".summary.json").write_text(sidecar)
    except OSError as exc:
        raise ScenarioError(f"cannot write {path}: {exc}") from exc
    return path
