import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"


def run_cli(*args):
    # This checkout's package first, ahead of any installed copy.
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "qoverlap", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_run_to_stdout():
    r = run_cli("run", str(SCENARIOS / "witness_werner.json"))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert abs(doc["device_value"] + 0.25) < 1e-9
    assert doc["verdict"] == "entangled"


def test_run_with_output_file_and_csv(tmp_path):
    out = tmp_path / "res.csv"
    r = run_cli("run", str(SCENARIOS / "overlap_fock_orthogonal.json"),
                "--format", "csv", "--out", str(out))
    assert r.returncode == 0
    assert out.exists()
    assert (tmp_path / "res.summary.json").exists()
    header = out.read_text().splitlines()[0]
    assert header == "phase,p_up,p_down,count_up,count_down"


def test_run_with_overrides(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out, seed in ((out1, "1"), (out2, "2")):
        r = run_cli("run", str(SCENARIOS / "overlap_sampled.json"),
                    "--seed", seed, "--shots", "500", "--out", str(out))
        assert r.returncode == 0
    d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    assert d1["seed"] == 1 and d1["shots"] == 500
    assert d1["count_up"] != d2["count_up"]


def test_validate_good_and_bad(tmp_path):
    good = run_cli("validate", str(SCENARIOS / "purity_thermal.json"))
    assert good.returncode == 0
    assert "OK" in good.stdout

    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "task": "overlap", "cutoff": 4, '
                   '"state_a": {"kind": "squeezed"}, "state_b": {"kind": "fock", "n": 0}}')
    r = run_cli("validate", str(bad))
    assert r.returncode == 1
    assert "squeezed" in r.stderr


def test_run_invalid_scenario_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x"}')
    r = run_cli("run", str(bad))
    assert r.returncode == 1
    assert "validation error" in r.stderr


def test_suite_passes_on_bundled_scenarios():
    r = run_cli("suite", str(SCENARIOS))
    assert r.returncode == 0, r.stdout + r.stderr
    lines = [l for l in r.stdout.splitlines() if l and not l.startswith("scenario")]
    assert len(lines) == len(list(SCENARIOS.glob("*.json"))) - 1  # schema excluded
    assert all("PASS" in l for l in lines)


def test_suite_tolerance_failure_exits_two(tmp_path):
    doc = json.loads((SCENARIOS / "witness_werner.json").read_text())
    doc["expected"]["device_value"] = 0.5
    (tmp_path / "broken.json").write_text(json.dumps(doc))
    r = run_cli("suite", str(tmp_path))
    assert r.returncode == 2
    assert "FAIL" in r.stdout


def test_suite_validation_failure_exits_one(tmp_path):
    (tmp_path / "broken.json").write_text("{not json")
    r = run_cli("suite", str(tmp_path))
    assert r.returncode == 1
    assert "INVALID" in r.stdout


def test_suite_refuses_a_mistyped_expected_block(tmp_path):
    doc = json.loads((SCENARIOS / "witness_werner.json").read_text())
    doc["expected"]["tol"] = "abc"
    (tmp_path / "broken.json").write_text(json.dumps(doc, indent=1))
    r = run_cli("suite", str(tmp_path))
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    (row,) = [line for line in r.stdout.splitlines() if line.startswith("broken.json")]
    assert "INVALID" in row and "expected.tol" in row


def test_stamp_flag_records_time(tmp_path):
    out = tmp_path / "stamped.json"
    r = run_cli("run", str(SCENARIOS / "overlap_fock_orthogonal.json"),
                "--stamp", "--out", str(out))
    assert r.returncode == 0
    assert json.loads(out.read_text())["timestamp"] is not None
