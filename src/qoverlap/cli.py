"""Command-line interface: run, validate, or batch-check scenario files."""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

from .protocol import MAX_SHOTS
from .scenario import ScenarioError, emit, parse_scenario, run_scenario, write_record

DEFAULT_SUITE_TOL = 1e-9


def _shots(value: str) -> int | str:
    """``exact`` or a shot count in [1, ``MAX_SHOTS``]; anything else raises ``ValueError``."""
    if value != "exact" and not 1 <= int(value) <= MAX_SHOTS:
        raise ValueError(value)
    return value if value == "exact" else int(value)


# Each command's positional argument and options.  An option maps to the
# converter of its value, to its choices (the first is the default) or to
# ``bool`` for a flag.  Long options are spelled in full.
COMMANDS = {
    "run": ("scenario", {"--format": ("json", "csv"), "--out": Path, "--seed": int,
                         "--shots": _shots, "--stamp": bool}),
    "validate": ("scenario", {}),
    "suite": ("directory", {}),
}
USAGE = "usage: " + "\n       ".join(" ".join([f"qoverlap {command} {positional.upper()}"] + [
    f"[{o}]" if k is bool else f"[{o} {'|'.join(k) if isinstance(k, tuple) else o[2:].upper()}]"
    for o, k in options.items()]) for command, (positional, options) in COMMANDS.items())


def _parse(argv: list[str]) -> SimpleNamespace:
    """Read argv against ``COMMANDS``; a usage error raises ``ValueError``."""
    if not argv or argv[0] not in COMMANDS:
        raise ValueError(f"unknown command {argv[0]!r}" if argv else "no command given")
    positional, options = COMMANDS[argv[0]]
    args = {positional: None, **{o[2:]: False if k is bool else k[0] if isinstance(k, tuple) else None
                                 for o, k in options.items()}}
    rest = iter(argv[1:])
    for arg in rest:  # options come as --opt value or --opt=value, before or after the positional
        option, eq, value = arg.partition("=") if arg.startswith("-") else ("", "", arg)
        kind = options.get(option)
        if not option and args[positional] is None:
            args[positional] = Path(value)
        elif kind is None:
            raise ValueError(f"unrecognized {'option' if option else 'argument'} {option or arg!r}")
        elif kind is bool and not eq:
            args[option[2:]] = True
        else:
            value = value if eq else next(rest, "--")
            if kind is bool or value.startswith("--"):
                raise ValueError(f"{option} takes no value" if kind is bool else f"{option} needs a value")
            try:
                args[option[2:]] = kind(value) if callable(kind) else kind[kind.index(value)]
            except ValueError:
                raise ValueError(f"invalid {option} value {value!r}") from None
    if args[positional] is None:
        raise ValueError(f"{argv[0]} needs {positional.upper()}")
    return SimpleNamespace(**args)


def _load(path: Path):
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}")
    return parse_scenario(text)


def _apply_overrides(scenario, args):
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    if args.shots in (None, "exact"):
        return scenario if args.shots is None else replace(scenario, shots=None)
    if scenario.task == "repeat_check":
        raise ScenarioError("task 'repeat_check' always runs exact: --shots must be 'exact'")
    return replace(scenario, shots=args.shots)


def _cmd_run(args) -> int:
    scenario = _apply_overrides(_load(args.scenario), args)
    record = run_scenario(replace(scenario, output=None), stamp=args.stamp)
    out = args.out or (Path(scenario.output) if scenario.output else None)
    if out is None:
        sys.stdout.write(emit(record, args.format).decode())
    else:
        write_record(record, out, args.format)
        err = "" if record.std_error is None else f" +- {record.std_error:.3g}"
        print(f"{record.scenario}: {record.task} device={record.device_value:.12g}{err} "
              f"oracle={record.oracle_value:.12g} -> {out}")
    return 0


def _cmd_validate(args) -> int:
    scenario = _load(args.scenario)
    print(f"OK: {scenario.name} ({scenario.task})")
    return 0


def _cmd_suite(args) -> int:
    paths = sorted(p for p in args.directory.glob("*.json") if not p.name.endswith(".schema.json"))
    if not paths:
        print(f"no scenario files in {args.directory}", file=sys.stderr)
        return 1
    any_invalid = any_fail = False
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
        print(f"{record.scenario:32s} {record.task:14s} {record.device_value:22.15g} "
              f"{record.oracle_value:22.15g} {record.abs_error:10.2e} {status}")
    if any_invalid:
        return 1
    return 2 if any_fail else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        print(USAGE)
        return 0
    try:
        args = _parse(argv)
    except ValueError as exc:
        print(f"{USAGE}\nqoverlap: error: {exc}", file=sys.stderr)
        return 2
    try:
        return {"run": _cmd_run, "validate": _cmd_validate, "suite": _cmd_suite}[argv[0]](args)
    except ScenarioError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
