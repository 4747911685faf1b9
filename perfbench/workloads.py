"""Seeded inputs, timed passes and correctness checks of the three workloads.

* ``scenario_suite``: ``qoverlap suite`` through ``cli.main`` on the eleven
  bundled scenario documents, their state parameters redrawn from the seed.
  This is what users run; its time goes to dense d^2 x d^2 joint matrices.
* ``device_modes``: the library pipelines in exact mode on every non-ideal
  device mode at several cutoffs.  Its time goes to compiling W, the dense
  kernel, the post-state and the full-space ion run.
* ``shot_batch``: many small shot-mode documents through parse -> run ->
  emit.  It measures per-call overhead, sampling and estimation.

Every workload is a closed loop: one client, each call starting after the
previous one returned.  Calls look functions up on their qoverlap module at
call time, so a tracer installed after set-up sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from qoverlap import cli, dynamics, linalg, observables, protocol, scenario

WORKLOADS = ("scenario_suite", "device_modes", "shot_batch")

# Exact-mode device values must match the oracle, and every oracle the
# benchmark's own reference, to this absolute error.
EXACT_TOL = 1e-9
# Shot mode: a miss beyond this many standard errors counts as a failure.
GROSS_MISS_SE = 6.0
# Shot mode: the nominal interval whose coverage is reported.
COVERAGE_SE = 2.0
NOMINAL_COVERAGE = 0.9545

# Cutoff 4 puts the median call inside the group of cheap cutoff-16 calls
# rather than on the edge between two groups, where it would jump from pass
# to pass.  Ion cutoff 12 would take about 5 s of a pass by itself; 10 leaves
# room for several passes per run.
DEVICE_MODES = (
    ("physical", (4, 8, 16, 20)),
    ("hamiltonian:linear_coupling", (4, 8, 16, 20)),
    ("hamiltonian:dispersive_cps", (4, 8, 16, 20)),
    ("hamiltonian:ion_qnd", (4, 8, 10)),
)
SHOT_DOCS = 1200
SHOT_TASKS = ("overlap", "fidelity", "purity", "linear_entropy", "hs_distance", "witness")
SHOT_COUNTS = (1000, 10_000, 100_000)


@dataclass
class Call:
    """One timed call and the check of what it returned."""

    run: Callable[[], object]
    check: Callable[[object], tuple[str | None, bool | None]]


@dataclass
class Workload:
    name: str
    calls: list[Call]
    # scenario_suite only: the documents' directory, scenario name ->
    # reference value, and file name -> scenario name.
    directory: Path | None = None
    references: dict | None = None
    files: dict | None = None


@dataclass
class Outcome:
    latency_ns: int
    failure: str | None  # None when the call was correct
    inside: bool | None  # shot mode: oracle within COVERAGE_SE std errors
    value: object  # what the call returned; the printed row for scenario_suite


@dataclass
class PassResult:
    wall_ns: int
    outcomes: list[Outcome]


def prepare(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the workload's inputs from ``seed``; documents are validated here."""
    if name == "scenario_suite":
        return prepare_suite(seed, workdir)
    if name == "device_modes":
        return prepare_device_modes(seed)
    if name == "shot_batch":
        return prepare_shot_batch(seed)
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")


def run_pass(work: Workload, tracer=None) -> PassResult:
    """One timed pass; correctness is checked after the clock stops.

    With a ``tracer``, its ``call_id`` names the call in progress and its
    ``begin``/``end`` bracket the timed pass.
    """
    if work.name == "scenario_suite":
        return _suite_pass(work, tracer)
    raw = []
    if tracer:
        tracer.begin()
    start = time.perf_counter_ns()
    for i, call in enumerate(work.calls):
        if tracer:
            tracer.call_id = i
        t = time.perf_counter_ns()
        try:
            value = call.run()
        except Exception as exc:  # a failed call is counted, and the pass goes on
            value = exc
        raw.append((time.perf_counter_ns() - t, value))
    wall = time.perf_counter_ns() - start
    if tracer:
        tracer.end()
    outcomes = []
    for call, (latency, value) in zip(work.calls, raw):
        outcomes.append(Outcome(latency, *_checked(call, value), value))
    return PassResult(wall, outcomes)


def _checked(call: Call, value) -> tuple[str | None, bool | None]:
    if isinstance(value, Exception):
        return f"raised {value!r}", None
    try:
        return call.check(value)
    except Exception as exc:  # a result of an unexpected shape is a failed call
        return f"unexpected result {value!r}: {exc!r}", None


def coverage_gap(outcomes: list[Outcome]) -> tuple[float, int]:
    """|share of shot-mode results inside +-2 std errors - 0.9545| and their count."""
    shots = [o.inside for o in outcomes if o.inside is not None]
    if not shots:
        return 0.0, 0
    return abs(sum(shots) / len(shots) - NOMINAL_COVERAGE), len(shots)


# ---------------------------------------------------------------------------
# references, computed by the benchmark from the input matrices


def _flip_expectation(joint: np.ndarray, d: int) -> float:
    return float(np.einsum("ijji->", joint.reshape(d, d, d, d)).real)


def reference(s: scenario.Scenario) -> float:
    """The quantity a parsed scenario measures, by direct matrix algebra."""
    if s.task == "witness":
        return _flip_expectation(s.state_joint.mat, s.cutoff)
    a = s.state_a.mat
    if s.task in ("purity", "linear_entropy"):
        p = float(np.trace(a @ a).real)
        return p if s.task == "purity" else 1.0 - p
    if s.task == "fidelity":
        v = s.state_b_vector
        return float((v.conj() @ a @ v).real)
    b = s.state_b.mat
    if s.task == "hs_distance":
        return float(0.5 * np.trace((a - b) @ (a - b)).real)
    return float(np.trace(a @ b).real)  # overlap, repeat_check


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# scenario_suite


def _suite_docs(rng: random.Random) -> dict[str, dict]:
    """The bundled documents with task, cutoff and device mode unchanged.

    State parameters are redrawn; the one non-ideal document keeps its Fock
    pair inside the safe sector (total photon number <= cutoff - 1).
    ``expected.device_value`` is dropped, so the suite checks device against
    oracle at each document's tolerance.
    """

    def fock(n):
        return {"kind": "fock", "n": n}

    def coherent():
        return {"kind": "coherent", "alpha": [rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)]}

    def ginibre(rank):
        return {"kind": "ginibre_mixed", "rank": rank, "seed": rng.randrange(2**31)}

    def doc(name, task, cutoff, mode, tol, **states):
        return {"name": name, "task": task, "cutoff": cutoff, "device_mode": mode,
                **states, "expected": {"tol": tol}}

    n_disp = rng.randint(0, 3)
    return {
        "fidelity_thermal_vacuum.json": doc(
            "fidelity-thermal-vacuum", "fidelity", 32, "ideal", 1e-6,
            state_a={"kind": "thermal", "nbar": rng.uniform(0.2, 2.0)}, state_b=fock(rng.randint(0, 4))),
        "hs_distance_fock.json": doc(
            "hs-distance-fock-01", "hs_distance", 4, "ideal", 1e-9,
            state_a=fock(rng.randint(0, 3)), state_b=fock(rng.randint(0, 3))),
        "linear_entropy_ginibre.json": doc(
            "linear-entropy-ginibre", "linear_entropy", 4, "ideal", 1e-9, state_a=ginibre(2)),
        "overlap_coherent_vacuum.json": doc(
            "overlap-coherent-vacuum", "overlap", 32, "ideal", 1e-6,
            state_a=coherent(), state_b=coherent()),
        "overlap_dispersive_gate.json": doc(
            "overlap-dispersive-gate", "overlap", 4, "hamiltonian:dispersive_cps", 1e-9,
            state_a=fock(n_disp), state_b=fock(rng.randint(0, 3 - n_disp))),
        "overlap_fock_orthogonal.json": doc(
            "overlap-fock-orthogonal", "overlap", 4, "ideal", 1e-9,
            state_a=fock(rng.randint(0, 3)), state_b=fock(rng.randint(0, 3))),
        "overlap_sampled.json": {
            **doc("overlap-sampled-identical", "overlap", 4, "ideal", 0.05,
                  state_a=fock(rng.randint(0, 3)), state_b=fock(rng.randint(0, 3))),
            "shots": 10_000, "seed": rng.randrange(2**31)},
        "purity_thermal.json": doc(
            "purity-thermal", "purity", 64, "ideal", 1e-6,
            state_a={"kind": "thermal", "nbar": rng.uniform(0.2, 2.0)}),
        "repeat_check_ginibre.json": doc(
            "repeat-check-ginibre", "repeat_check", 3, "ideal", 1e-9,
            state_a=ginibre(2), state_b=ginibre(3)),
        "witness_singlet.json": doc(
            "witness-singlet", "witness", 2, "ideal", 1e-9, state_joint={"kind": "bell_singlet"}),
        "witness_werner.json": doc(
            "witness-werner-05", "witness", 2, "ideal", 1e-9,
            state_joint={"kind": "werner", "p": rng.uniform(0.0, 1.0)}),
    }


def prepare_suite(seed: int, workdir: Path) -> Workload:
    directory = workdir / "scenario_suite"
    directory.mkdir(parents=True, exist_ok=True)
    references, files = {}, {}
    for filename, doc in _suite_docs(random.Random(f"scenario_suite:{seed}")).items():
        text = json.dumps(doc, indent=2)
        references[doc["name"]] = reference(scenario.parse_scenario(text))
        files[filename] = doc["name"]
        (directory / filename).write_text(text + "\n")
    return Workload("scenario_suite", [], directory, references, files)


class _RowClock(io.StringIO):
    """stdout sink that timestamps each completed line; the suite prints one per scenario."""

    def __init__(self, on_line: Callable[[int], None]):
        super().__init__()
        self.times: list[int] = []
        self._on_line = on_line

    def write(self, s: str) -> int:
        n = super().write(s)
        for _ in range(s.count("\n")):
            self.times.append(time.perf_counter_ns())
            self._on_line(len(self.times))
        return n


def _suite_pass(work: Workload, tracer) -> PassResult:
    # The header comes first; each scenario runs until its row is written.
    def on_line(lines):
        if tracer:
            tracer.call_id = lines - 1

    clock = _RowClock(on_line)
    if tracer:
        tracer.begin()
    start = time.perf_counter_ns()
    error = None
    try:
        with contextlib.redirect_stdout(clock):
            code = cli.main(["suite", str(work.directory)])
    except Exception as exc:  # counted below as failures of the rows never written
        error, code = f"raised {exc!r}", None
    wall = time.perf_counter_ns() - start
    if tracer:
        tracer.end()
    outcomes, seen = [], set()
    for i, line in enumerate(clock.getvalue().splitlines()[1:], start=1):
        fields = line.split()
        # Rows name the scenario, or its file when the file is invalid.
        name = work.files.get(fields[0], fields[0]) if fields else None
        if name not in work.references:
            continue
        seen.add(name)
        latency = clock.times[i] - clock.times[i - 1]
        outcomes.append(Outcome(latency, _check_row(fields, work.references[name]), None, line))
    outcomes += [Outcome(0, error or f"no suite row for {name}", None, None)
                 for name in work.references if name not in seen]
    if code != 0 and all(o.failure is None for o in outcomes):
        outcomes[-1].failure = f"suite exited {code}"
    return PassResult(wall, outcomes)


def _check_row(fields: list[str], ref: float) -> str | None:
    # Columns: name, task, device, oracle, abs_err, then the status.
    if "PASS" not in fields[5:]:
        return f"suite row not PASS: {' '.join(fields)}"
    try:
        oracle = float(fields[3])
    except ValueError:
        return f"suite row without a readable oracle: {' '.join(fields)}"
    if not _finite(oracle) or abs(oracle - ref) > EXACT_TOL:
        return f"{fields[0]}: oracle {oracle} differs from reference {ref}"
    return None


# ---------------------------------------------------------------------------
# device_modes


def _device_mode(label: str, d: int) -> protocol.DeviceMode:
    if label == "physical":
        return protocol.PHYSICAL
    builders = {"linear_coupling": dynamics.linear_coupling,
                "dispersive_cps": dynamics.dispersive_cps,
                "ion_qnd": dynamics.ion_qnd}
    return protocol.hamiltonian_mode(builders[label.split(":", 1)[1]](1.0, d))


def _ginibre_padded(rng: np.random.Generator, k: int, d: int, joint: bool) -> linalg.DensityMatrix:
    """Random mixed state on the lowest k Fock levels of each mode, zero-padded to cutoff d."""
    n = k * k if joint else k
    rank = int(rng.integers(1, n + 1))
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    m = g @ g.conj().T
    m = 0.5 * (m + m.conj().T) / np.trace(m).real
    if joint:
        padded = np.zeros((d, d, d, d), dtype=complex)
        padded[:k, :k, :k, :k] = m.reshape(k, k, k, k)
        return linalg.DensityMatrix(linalg.CompositeSpace((d, d)), padded.reshape(d * d, d * d))
    padded = np.zeros((d, d), dtype=complex)
    padded[:k, :k] = m
    return linalg.DensityMatrix(linalg.CompositeSpace((d,)), padded)


def _exact_check(ref: float):
    def check(report) -> tuple[str | None, None]:
        dv, ov = report.device_value, report.oracle_value
        if not _finite(dv, ov):
            return f"non-finite {report.name}: {dv}, {ov}", None
        if abs(ov - ref) > EXACT_TOL:
            return f"{report.name} oracle {ov!r} differs from reference {ref!r}", None
        if abs(dv - ov) > EXACT_TOL:
            return f"{report.name} device {dv!r} misses oracle {ov!r}", None
        return None, None

    return check


def _repeat_check(ref: float):
    def check(pair) -> tuple[str | None, None]:
        first, second = pair
        if not _finite(first, second):
            return f"non-finite repeat check: {pair}", None
        if abs(first - ref) > EXACT_TOL or abs(second - first) > EXACT_TOL:
            return f"repeat check {pair} against overlap {ref!r}", None
        return None, None

    return check


def prepare_device_modes(seed: int, modes=DEVICE_MODES) -> Workload:
    calls = []
    configs = [(label, d) for label, cutoffs in modes for d in cutoffs]
    for index, (label, d) in enumerate(configs):
        rng = np.random.default_rng([seed, index])
        # Inputs live on levels <= (d-1)//2, so every pair stays in the safe
        # sector and every mode is exact.
        k = (d - 1) // 2 + 1
        a, b = _ginibre_padded(rng, k, d, False), _ginibre_padded(rng, k, d, False)
        joint = _ginibre_padded(rng, k, d, True)
        settings = observables.MeasurementSettings(mode=_device_mode(label, d))
        ma, mb = a.mat, b.mat
        ab = float(np.trace(ma @ mb).real)
        calls += [
            Call(lambda a=a, b=b, s=settings: observables.overlap(a, b, s), _exact_check(ab)),
            Call(lambda a=a, s=settings: observables.purity(a, s),
                 _exact_check(float(np.trace(ma @ ma).real))),
            Call(lambda a=a, b=b, s=settings: observables.hs_distance(a, b, s),
                 _exact_check(float(0.5 * np.trace((ma - mb) @ (ma - mb)).real))),
            Call(lambda j=joint, s=settings: observables.witness(j, s),
                 _exact_check(_flip_expectation(joint.mat, d))),
            Call(lambda a=a, b=b, m=settings.mode: protocol.repeat_measurement_check(a, b, m),
                 _repeat_check(ab)),
        ]
    return Workload("device_modes", calls)


# ---------------------------------------------------------------------------
# shot_batch


def _amplitudes(rng: random.Random, n: int, support) -> list:
    return [[rng.gauss(0, 1), rng.gauss(0, 1)] if i in support else [0.0, 0.0] for i in range(n)]


def _single_state(rng: random.Random, mode: str, d: int, pure_only: bool) -> dict:
    if mode == "physical":
        # Safe sector: both modes on levels <= (d-1)//2.
        top = (d - 1) // 2
        if rng.random() < 0.5:
            return {"kind": "fock", "n": rng.randint(0, top)}
        return {"kind": "pure", "amplitudes": _amplitudes(rng, d, range(top + 1))}
    kinds = ("fock", "coherent", "pure") if pure_only else ("fock", "coherent", "pure", "thermal", "ginibre_mixed")
    kind = rng.choice(kinds)
    if kind == "fock":
        return {"kind": "fock", "n": rng.randint(0, d - 1)}
    if kind == "coherent":
        return {"kind": "coherent", "alpha": [rng.uniform(-1, 1), rng.uniform(-1, 1)]}
    if kind == "pure":
        return {"kind": "pure", "amplitudes": _amplitudes(rng, d, range(d))}
    if kind == "thermal":
        return {"kind": "thermal", "nbar": rng.uniform(0.1, 2.0)}
    return {"kind": "ginibre_mixed", "rank": rng.randint(1, d), "seed": rng.randrange(2**31)}


def shot_documents(seed: int, count: int = SHOT_DOCS) -> list[str]:
    """Small shot-mode scenario documents, all inputs in the safe sector."""
    rng = random.Random(f"shot_batch:{seed}")
    docs = []
    for i in range(count):
        task = rng.choice(SHOT_TASKS)
        mode = rng.choice(("ideal", "physical"))
        doc = {"name": f"shot-{i}", "task": task, "device_mode": mode,
               "shots": rng.choice(SHOT_COUNTS), "seed": rng.randrange(2**31)}
        if task == "witness" and mode == "ideal":
            doc.update(cutoff=2, state_joint={"kind": "werner", "p": rng.uniform(0.05, 0.95)})
        elif task == "witness":
            d = rng.randint(2, 6)
            safe = [p * d + q for p in range(d) for q in range(d) if p + q <= d - 1]
            doc.update(cutoff=d, state_joint={"kind": "pure", "amplitudes": _amplitudes(rng, d * d, safe)})
        else:
            d = rng.randint(2, 6)
            doc.update(cutoff=d, state_a=_single_state(rng, mode, d, False))
            if task not in ("purity", "linear_entropy"):
                doc["state_b"] = _single_state(rng, mode, d, task == "fidelity")
        docs.append(json.dumps(doc))
    return docs


def _shot_call(text: str):
    record = scenario.run_scenario(scenario.parse_scenario(text))
    return record, scenario.emit(record, "json"), scenario.emit(record, "csv")


def _shot_check(ref: float):
    def check(value) -> tuple[str | None, bool | None]:
        record, js, csv = value
        dv, ov, se = record.device_value, record.oracle_value, record.std_error
        if not _finite(dv, ov, se):
            return f"{record.scenario}: non-finite value {dv}, {ov}, {se}", None
        if abs(ov - ref) > EXACT_TOL:
            return f"{record.scenario}: oracle {ov!r} differs from reference {ref!r}", None
        err = abs(dv - ov)
        if err > GROSS_MISS_SE * se:
            return f"{record.scenario}: |device - oracle| = {err:.3g} above {GROSS_MISS_SE} x {se:.3g}", None
        if json.loads(js)["device_value"] != dv:
            return f"{record.scenario}: emitted json does not round-trip device_value", None
        if len(csv.decode().splitlines()) != len(record.phases) + 1:
            return f"{record.scenario}: emitted csv has the wrong row count", None
        return None, err <= COVERAGE_SE * se

    return check


def prepare_shot_batch(seed: int, count: int = SHOT_DOCS) -> Workload:
    calls = []
    for text in shot_documents(seed, count):
        ref = reference(scenario.parse_scenario(text))
        calls.append(Call(lambda t=text: _shot_call(t), _shot_check(ref)))
    return Workload("shot_batch", calls)
