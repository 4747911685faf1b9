"""Self-checks of the benchmark: tracer, inputs and correctness gate.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

The inputs are the benchmark's own, cut down so the checks stay quick.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import qoverlap
from qoverlap import observables, protocol, scenario

import run
import tracer as tracing
import worker
import workloads

BENCH = Path(__file__).resolve().parent.parent
SMALL_MODES = (("physical", (4,)), ("hamiltonian:dispersive_cps", (6,)), ("hamiltonian:ion_qnd", (4,)))


def small_workload(name, seed, tmp_path):
    if name == "device_modes":
        return workloads.prepare_device_modes(seed, SMALL_MODES)
    if name == "shot_batch":
        return workloads.prepare_shot_batch(seed, count=60)
    work = workloads.prepare_suite(seed, tmp_path)
    # The cutoff-64 document alone takes most of a suite pass and 1.8 GB.
    (work.directory / "purity_thermal.json").unlink()
    del work.references["purity-thermal"]
    return work


def comparable(value):
    """What a call returned, reduced to plain data that must not depend on the tracer."""
    if isinstance(value, tuple) and isinstance(value[0], scenario.ResultRecord):
        return value[1], value[2]  # emitted json and csv bytes
    if isinstance(value, observables.ObservableReport):
        return value.device_value, value.oracle_value, value.std_error, value.verdict
    return value  # a suite row, or a repeat-check pair


def qoverlap_bindings():
    modules = [m for n, m in sys.modules.items() if n == "qoverlap" or n.startswith("qoverlap.")]
    snapshot = {(m.__name__, a): v for m in modules for a, v in vars(m).items()}
    snapshot[("DensityMatrix", "__init__")] = qoverlap.DensityMatrix.__init__
    return snapshot


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_outputs_identical_with_tracer_on_and_off(name, tmp_path):
    work = small_workload(name, 3, tmp_path)
    plain = workloads.run_pass(work)
    traced, layers = worker.traced_pass(work, memory=True)
    assert [o.failure for o in plain.outcomes] == [None] * len(plain.outcomes)
    assert [comparable(o.value) for o in traced.outcomes] == [comparable(o.value) for o in plain.outcomes]
    assert layers["observables.pipeline.calls"] + layers["cli.main.calls"] > 0


def test_every_patched_name_is_restored(tmp_path):
    before = qoverlap_bindings()
    tracer = tracing.Tracer(memory=False)
    tracer.install()
    try:
        assert protocol.sweep_visibility is not before[("qoverlap.protocol", "sweep_visibility")]
        assert scenario.tensor_states is not before[("qoverlap.scenario", "tensor_states")]
        assert qoverlap.DensityMatrix.__init__ is not before[("DensityMatrix", "__init__")]
        workloads.run_pass(small_workload("shot_batch", 4, tmp_path), tracer)
    finally:
        tracer.uninstall()
    after = qoverlap_bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


@pytest.mark.parametrize("name", ["device_modes", "shot_batch"])
def test_self_times_and_remainder_sum_to_traced_wall(name, tmp_path):
    work = small_workload(name, 5, tmp_path)
    tracer = tracing.Tracer(memory=False)
    tracer.install()
    try:
        result = workloads.run_pass(work, tracer)
    finally:
        tracer.uninstall()
    accounted = sum(s.self_ns for s in tracer.spans) + tracer.outside_ns
    # begin/end bracket the pass clock by a few microseconds.
    assert abs(accounted - result.wall_ns) <= 0.001 * result.wall_ns + 200_000
    by_id = {s.span_id: s for s in tracer.spans}
    for s in tracer.spans:
        assert s.self_ns >= 0
        if s.parent_id >= 0:
            parent = by_id[s.parent_id]
            assert parent.start_ns <= s.start_ns <= s.end_ns <= parent.end_ns
            assert parent.call_id == s.call_id


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_counts_repeat_across_traced_runs_of_one_seed(name, tmp_path):
    counts = []
    for i in range(2):
        _, layers = worker.traced_pass(small_workload(name, 6, tmp_path / str(i)), memory=False)
        counts.append({k: v for k, v in layers.items()
                       if k.rsplit(".", 1)[-1] in tracing.COUNT_STATS or k == tracing.USEFUL_FRAC})
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in spec["per_layer"]] == tracing.layer_metric_names() + [
        "trace.overhead_frac", "failed_frac", "coverage_gap"]
    assert {m["unit"] for m in spec["end_to_end"]} <= set(run.END_TO_END_UNITS.values())
    assert all(m["unit"] == run._unit(m["name"]) for m in spec["per_layer"] + spec["end_to_end"])


def test_inputs_follow_the_seed_and_stay_in_the_safe_sector():
    docs = workloads.shot_documents(11, count=200)
    assert docs == workloads.shot_documents(11, count=200)
    assert docs != workloads.shot_documents(12, count=200)
    for text in docs:
        s = scenario.parse_scenario(text)
        assert s.shots is not None
        if s.device_mode_label == "ideal":
            continue
        d = s.cutoff
        if s.state_joint is not None:
            pops = s.state_joint.mat.diagonal().real.reshape(d, d)
            assert pops[np.add.outer(np.arange(d), np.arange(d)) > d - 1].sum() == 0, text
        for state in (s.state_a, s.state_b):
            if state is not None:
                assert state.mat.diagonal().real[(d - 1) // 2 + 1:].sum() == 0, text


@pytest.mark.parametrize("name", ["device_modes", "scenario_suite"])
def test_wrong_answers_are_counted_and_the_pass_goes_on(name, monkeypatch, tmp_path):
    work = small_workload(name, 7, tmp_path)
    original = observables.purity

    def off_by_a_little(*args, **kwargs):
        out = original(*args, **kwargs)
        if kwargs.get("return_detail"):  # hs_distance and linear_entropy take the sweep too
            return replace(out[0], device_value=out[0].device_value + 1e-6), out[1]
        return replace(out, device_value=out.device_value + 1e-6)

    monkeypatch.setattr(observables, "purity", off_by_a_little)
    result = workloads.run_pass(work)
    failures = [o.failure for o in result.outcomes if o.failure]
    if name == "device_modes":
        assert len(result.outcomes) == 5 * len(SMALL_MODES)
        assert len(failures) == 2 * len(SMALL_MODES)
        assert all(f.startswith(("purity device", "hs_distance device")) for f in failures)
    else:
        assert len(result.outcomes) == len(work.references)
        assert len(failures) == 2
        assert all("hs-distance-fock-01" in f or "linear-entropy-ginibre" in f for f in failures)


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "shot_batch", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
