"""Command-line interface: run, validate, or batch-check scenario files."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .scenario import ScenarioError, emit, parse_scenario, run_scenario, write_record

DEFAULT_SUITE_TOL = 1e-9


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qoverlap",
        description="Interferometric overlap-measurement simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario file")
    run_p.add_argument("scenario", type=Path)
    run_p.add_argument("--format", choices=("json", "csv"), default="json")
    run_p.add_argument("--out", type=Path, default=None)
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.add_argument("--shots", default=None, help="override shots (integer or 'exact')")
    run_p.add_argument("--stamp", action="store_true", help="record a wall-clock timestamp")

    val_p = sub.add_parser("validate", help="validate a scenario file")
    val_p.add_argument("scenario", type=Path)

    suite_p = sub.add_parser("suite", help="run every scenario in a directory")
    suite_p.add_argument("directory", type=Path)
    return parser


def _load(path: Path):
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}")
    return parse_scenario(text)


def _apply_overrides(scenario, args):
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    if args.shots is not None:
        if args.shots == "exact":
            scenario = replace(scenario, shots=None)
        else:
            try:
                shots = int(args.shots)
            except ValueError:
                raise ScenarioError("--shots must be an integer or 'exact'")
            if shots < 1:
                raise ScenarioError("--shots must be positive")
            if scenario.task == "repeat_check":
                raise ScenarioError("task 'repeat_check' always runs exact: --shots must be 'exact'")
            scenario = replace(scenario, shots=shots)
    return scenario


def _cmd_run(args) -> int:
    try:
        scenario = _apply_overrides(_load(args.scenario), args)
        record = run_scenario(replace(scenario, output=None), stamp=args.stamp)
    except ScenarioError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    out = args.out or (Path(scenario.output) if scenario.output else None)
    if out is None:
        sys.stdout.write(emit(record, args.format).decode())
    else:
        write_record(record, out, args.format)
        err = "" if record.std_error is None else f" +- {record.std_error:.3g}"
        print(
            f"{record.scenario}: {record.task} device={record.device_value:.12g}{err} "
            f"oracle={record.oracle_value:.12g} -> {out}"
        )
    return 0


def _cmd_validate(args) -> int:
    try:
        scenario = _load(args.scenario)
    except ScenarioError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    print(f"OK: {scenario.name} ({scenario.task})")
    return 0


def _cmd_suite(args) -> int:
    paths = sorted(p for p in args.directory.glob("*.json") if "schema" not in p.name)
    if not paths:
        print(f"no scenario files in {args.directory}", file=sys.stderr)
        return 1
    any_invalid = False
    any_fail = False
    print(f"{'scenario':32s} {'task':14s} {'device':>22s} {'oracle':>22s} {'abs_err':>10s} status")
    for path in paths:
        try:
            scenario = _load(path)
            record = run_scenario(scenario)
        except ScenarioError as exc:
            any_invalid = True
            print(f"{path.name:32s} {'-':14s} {'-':>22s} {'-':>22s} {'-':>10s} INVALID ({exc})")
            continue
        expected = scenario.expected or {}
        tol = float(expected.get("tol", DEFAULT_SUITE_TOL))
        ok = record.abs_error <= tol
        if "device_value" in expected:
            ok = ok and abs(record.device_value - float(expected["device_value"])) <= tol
        any_fail = any_fail or not ok
        status = "PASS" if ok else f"FAIL (tol {tol:g})"
        print(
            f"{record.scenario:32s} {record.task:14s} {record.device_value:22.15g} "
            f"{record.oracle_value:22.15g} {record.abs_error:10.2e} {status}"
        )
    if any_invalid:
        return 1
    return 2 if any_fail else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "validate": _cmd_validate, "suite": _cmd_suite}
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
