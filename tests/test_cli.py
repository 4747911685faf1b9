import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qoverlap import cli

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"


def run_python(*args):
    # This checkout's package first, ahead of any installed copy.
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_cli(*args):
    return run_python("-m", "qoverlap", *args)


def test_importing_the_package_needs_numpy_alone():
    # scipy, hypothesis and pytest are test extras; the library must not load them
    r = run_python("-c", "import sys, qoverlap; "
                         "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'hypothesis', 'pytest'}))")
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"


def test_importing_the_cli_loads_no_argparse():
    # argparse and the gettext catalogues it reads cost a fresh process milliseconds
    r = run_python("-c", "import sys, qoverlap.cli; "
                         "print(sorted({m.split('.')[0] for m in sys.modules} & {'argparse', 'gettext'}))")
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"


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


def test_suite_skips_only_schema_files(tmp_path, capsys):
    (tmp_path / "schema_probe.json").write_text((SCENARIOS / "purity_thermal.json").read_text())
    assert cli.main(["suite", str(tmp_path)]) == 0
    assert "PASS" in capsys.readouterr().out


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


def test_run_writes_only_to_out_when_the_document_names_an_output(tmp_path):
    doc = json.loads((SCENARIOS / "overlap_fock_orthogonal.json").read_text())
    doc["output"] = str(tmp_path / "from_doc.json")
    scenario = tmp_path / "doc.json"
    scenario.write_text(json.dumps(doc))
    for format in ("json", "csv"):
        out = tmp_path / f"cli.{format}"
        r = run_cli("run", str(scenario), "--format", format, "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert out.exists()
    assert not (tmp_path / "from_doc.json").exists()


def test_validate_refuses_a_shot_count_numpy_cannot_draw(tmp_path):
    doc = json.loads((SCENARIOS / "overlap_sampled.json").read_text())
    doc["shots"] = 2**63
    text = json.dumps(doc, indent=2)
    (tmp_path / "big.json").write_text(text)
    r = run_cli("validate", str(tmp_path / "big.json"))
    assert r.returncode == 1
    line = next(i for i, row in enumerate(text.splitlines(), 1) if '"shots":' in row)
    assert r.stderr == f"validation error: shots must be at most 9223372036854775807 (at shots, line {line})\n"


@pytest.mark.parametrize("out", ["missing/deeper/r.json", "."])
def test_run_refuses_an_out_path_it_cannot_write(tmp_path, out, capsys):
    assert cli.main(["run", str(SCENARIOS / "witness_werner.json"), "--out", str(tmp_path / out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"validation error: cannot write {tmp_path / out}: ")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_run_refuses_shots_on_repeat_check():
    scenario = SCENARIOS / "repeat_check_ginibre.json"
    r = run_cli("run", str(scenario), "--shots", "100")
    assert r.returncode == 1
    assert "repeat_check" in r.stderr and "--shots" in r.stderr
    r = run_cli("run", str(scenario), "--shots", "exact")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["shots"] is None


@pytest.mark.parametrize("argv", [["--help"], ["run", "-h"], ["suite", "scenarios", "--help"]])
def test_help_prints_usage_and_exits_zero(argv, capsys):
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert out == cli.USAGE + "\n" and err == ""


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["run"],
    ["run", "x.json", "--bogus"],
    ["run", "x.json", "--out"],
    ["run", "x.json", "--out", "--stamp"],
    ["run", "x.json", "--stamp=yes"],
    ["run", "x.json", "--format", "xml"],
    ["run", "x.json", "--seed", "abc"],
    ["run", "x.json", "y.json"],
    ["run", "x.json", "--form", "csv"],  # long options are spelled in full
    ["suite", "scenarios", "--seed", "1"],
    ["validate", "x.json", "--seed=1"],
    ["run", "x.json", "--shots", "abc"],  # --shots is exact or an integer >= 1
    ["run", "x.json", "--shots", "0"],
    ["run", "x.json", "--shots", "-2"],
    ["run", "x.json", "--shots=1.5"],
    ["run", "x.json", "--shots", "9223372036854775808"],  # above numpy's largest binomial count
])
def test_usage_errors_exit_two(argv, capsys):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(cli.USAGE + "\nqoverlap: error: ")
    assert "Traceback" not in err


def test_options_take_either_spelling_and_either_place(tmp_path, capsys):
    doc = str(SCENARIOS / "overlap_sampled.json")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["run", doc, "--format", "csv", "--seed", "-3", "--out", str(a)]) == 0
    assert cli.main(["run", "--out=" + str(b), "--seed=-3", "--format=csv", doc]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads((tmp_path / "b.summary.json").read_text())["seed"] == -3
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith(str(a)) and out[1].endswith(str(b))


def test_main_reads_sys_argv_when_given_none(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["qoverlap", "validate", str(SCENARIOS / "purity_thermal.json")])
    assert cli.main() == 0
    assert capsys.readouterr().out.startswith("OK: ")


def test_readme_shows_the_usage_block():
    readme = (REPO / "README.md").read_text()
    assert f"```text\n$ qoverlap --help\n{cli.USAGE}\n```" in readme
