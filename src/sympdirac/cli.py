"""Batch experiment runner: JSON configs, verification suites, spectra.

Three subcommands:

    verify    run the checks of sympdirac.checks and emit a JSON report
    spectrum  tabulate eigenvalues of the second-order operator per degree
    schema    print the JSON schema for the config file

Reports are reproducible for a fixed config; the runtime_ms fields are the
only part of a report that varies between runs.  Exit codes: 0 all checks
pass, 1 at least one failure, 2 unusable config or arguments, or an --out
path that cannot be written (reported after the run, as "error: cannot
write ...").
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__, checks
from . import dirac as dr
from . import fock as fk
from . import geometry as ge
from . import symplinalg as sl

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "sympdirac experiment configuration",
    "type": "object",
    "required": ["model", "fock", "torus"],
    "additionalProperties": False,
    "properties": {
        "model": {
            "type": "object",
            "required": ["n", "hbar"],
            "additionalProperties": False,
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "hbar": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "fock": {
            "type": "object",
            "required": ["N"],
            "additionalProperties": False,
            "properties": {"N": {"type": "integer", "minimum": 2}},
        },
        "torus": {
            "type": "object",
            "required": ["M"],
            "additionalProperties": False,
            "properties": {
                "M": {"type": "integer", "minimum": 1},
                "grid": {"type": "integer", "minimum": 3},
            },
        },
        "connection": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "gamma_modes": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["direction", "k", "matrix"],
                        "additionalProperties": False,
                        "properties": {
                            "direction": {"type": "integer", "minimum": 0},
                            "k": {"type": "array",
                                  "items": {"type": "integer"}},
                            "kind": {"enum": ["cos", "sin"]},
                            "matrix": {
                                "type": "array",
                                "items": {"type": "array",
                                          "items": {"type": "number"}},
                            },
                        },
                    },
                },
                "a_modes": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["direction", "k", "value"],
                        "additionalProperties": False,
                        "properties": {
                            "direction": {"type": "integer", "minimum": 0},
                            "k": {"type": "array",
                                  "items": {"type": "integer"}},
                            "kind": {"enum": ["cos", "sin"]},
                            "value": {
                                "type": "number",
                                "description": "coefficient t of the"
                                               " imaginary mode i*t*mode(x)",
                            },
                        },
                    },
                },
            },
        },
        "suites": {
            "type": "array",
            "items": {"enum": list(checks.SUITES)},
            "uniqueItems": True,
        },
        "seed": {"type": "integer", "minimum": 0},
        "tolerances": {
            "type": "object",
            "additionalProperties": {"type": "number", "exclusiveMinimum": 0},
        },
        "quad_order": {"type": "integer", "minimum": 10},
    },
}


class ConfigError(Exception):
    """The run cannot go as asked: schema violation, bad matrices, band
    budget, a bad argument, or an output path that cannot be written."""


def default_config() -> dict:
    return {
        "model": {"n": 1, "hbar": 0.7},
        "fock": {"N": 5},
        "torus": {"M": 4},
        "connection": {
            "gamma_modes": [
                {"direction": 0, "k": [1, 0], "kind": "cos",
                 "matrix": [[0.0, -0.3], [0.3, 0.0]]},
            ],
            "a_modes": [
                {"direction": 1, "k": [0, 1], "kind": "sin", "value": 0.2},
            ],
        },
        "suites": list(checks.SUITES),
        "seed": 20260814,
        "tolerances": {},
        "quad_order": 60,
    }


def emit_schema() -> str:
    return json.dumps(CONFIG_SCHEMA, indent=2, sort_keys=True)


@functools.cache
def _validator():
    """The config validator, its schema checked once per process."""
    import jsonschema

    cls = jsonschema.validators.validator_for(CONFIG_SCHEMA)
    cls.check_schema(CONFIG_SCHEMA)
    return cls(CONFIG_SCHEMA)


def _non_finite(value, path: str):
    """(path, value) of each NaN or infinite number, as json.load reads
    NaN, Infinity and 1e400 and the schema's "number" takes them."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _non_finite(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _non_finite(item, f"{path}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        yield path, value


def build_setup(config: dict) -> checks.RunSetup:
    """Validated setup; integer fields are cast, as the schema admits 1.0."""
    import jsonschema

    for path, value in _non_finite(config, "config"):
        raise ConfigError(f"{path} is {value}, not a finite number")
    error = jsonschema.exceptions.best_match(_validator().iter_errors(config))
    if error is not None:
        raise ConfigError(f"config rejected by schema: {error.message}") \
            from error
    tolerances = dict(config.get("tolerances", {}))
    unknown = sorted(set(tolerances) - {c.name for c in checks.CHECKS})
    if unknown:
        raise ConfigError("tolerances name unknown checks: "
                          + ", ".join(unknown))
    n = int(config["model"]["n"])
    d = 2 * n
    model = sl.standard_model(n, hbar=config["model"]["hbar"])
    basis = fk.fock_basis(n, int(config["fock"]["N"]))
    grid = config["torus"].get("grid")
    try:
        torus = ge.torus_model(model, int(config["torus"]["M"]),
                               None if grid is None else int(grid))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    gamma_modes, a_modes = [], []
    cmodes = config.get("connection", {})
    for entry in cmodes.get("gamma_modes", []):
        mode = _mode_indices(entry, d, torus)
        rows = entry["matrix"]
        if len(rows) != d or any(len(row) != d for row in rows):
            raise ConfigError(f"gamma matrix must be {d}x{d}")
        mat = np.array(rows, dtype=float)
        gamma_modes.append(mode + (entry.get("kind", "cos"), mat))
    for entry in cmodes.get("a_modes", []):
        a_modes.append(_mode_indices(entry, d, torus)
                       + (entry.get("kind", "cos"), 1j * entry["value"]))
    try:
        conn = ge.connection_from_modes(torus, gamma_modes, a_modes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return checks.RunSetup(
        model=model,
        basis=basis,
        torus=torus,
        conn=conn,
        seed=int(config.get("seed", 0)),
        quad_order=int(config.get("quad_order", 60)),
        tolerances=tolerances,
        suites=tuple(config.get("suites", checks.SUITES)),
    )


def _mode_indices(entry: dict, d: int, torus: ge.TorusModel) -> tuple:
    """(direction, k) of a mode entry as ints, checked against 2n and band."""
    direction, k = int(entry["direction"]), [int(x) for x in entry["k"]]
    if direction >= d:
        raise ConfigError(f"mode direction {direction} out of"
                          f" range for 2n = {d}")
    if len(k) != d:
        raise ConfigError(f"mode k-vector must have length {d}")
    if max(abs(x) for x in k) > torus.nyquist:
        raise ConfigError("mode k-vector exceeds the grid band budget")
    return direction, k


def run_verify(config: dict, suites=None) -> tuple[dict, int]:
    """Run the selected suites and assemble the report; (report, exit code)."""
    setup = build_setup(config)
    chosen = tuple(suites) if suites else setup.suites
    for name in chosen:
        if name not in checks.SUITES:
            raise ConfigError(f"unknown suite {name!r}")
    if "kernels" in chosen and setup.model.n != 1:
        raise ConfigError("the kernels suite requires n = 1")
    rows = checks.run_checks(setup, chosen)
    report = {
        "environment": {
            "version": __version__,
            "seed": setup.seed,
            "numpy": np.__version__,
            "scipy": _installed_version("scipy"),
            "threads": os.environ.get("SYMPDIRAC_THREADS"),
        },
        "checks": rows,
        "all_pass": all(row["pass"] for row in rows),
    }
    return report, 0 if report["all_pass"] else 1


@functools.cache
def _installed_version(package: str) -> str | None:
    """package's version from its metadata, without importing it, or None."""
    import importlib.metadata
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def run_spectrum(config: dict, degrees) -> list[tuple[int, int, float, float]]:
    """Eigenvalue rows (degree, index, re, im) for the requested degrees."""
    setup = build_setup(config)
    ctx = dr.make_context(setup.conn, setup.basis)
    rows = []
    for degree in degrees:
        try:
            eig = dr.spectrum(ctx, degree)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        rows.extend((degree, i, float(v.real), float(v.imag))
                    for i, v in enumerate(eig))
    return rows


def _json_safe(obj):
    """obj with each NaN or infinite float as None, which JSON writes null.

    RFC 8259 has no NaN or Infinity, and a failing trial's residual can be
    either; the in-memory report keeps the floats.
    """
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _json_safe(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_json_safe(value) for value in obj]
    return obj


def _write_output(text: str, path: str | None) -> None:
    """text to the file at path as it stands, line ends included, or to
    stdout when path is None; a path that cannot be written raises
    ConfigError."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") \
            from exc


def _refuse_unwritable(path: str | None) -> None:
    """Raise ConfigError when the file at path could not be written.

    Looks at the path without opening it, so that a refused path is found
    before any work runs and nothing is created or truncated until the
    output is ready (_write_output still reports a failure at that point).
    """
    if not path:
        return
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        code = errno.EISDIR
    elif os.path.exists(path):
        code = None if os.access(path, os.W_OK) else errno.EACCES
    elif not os.path.exists(parent):
        code = errno.ENOENT
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR
    else:
        code = None if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    if code is not None:
        raise ConfigError(f"cannot write {path}: {os.strerror(code)}")


def _write_report(report: dict, path: str | None) -> None:
    text = json.dumps(_json_safe(report), indent=2, sort_keys=True,
                      allow_nan=False)
    _write_output(text + "\n", path)


def _write_csv(rows, path: str | None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["degree", "index", "re", "im"])
    writer.writerows(rows)
    _write_output(buf.getvalue(), path)


def _load_config(path: str | None) -> dict:
    if path is None:
        return default_config()
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _parse_degrees(text: str) -> list[int]:
    """The distinct degrees of a comma-separated list, in the given order."""
    try:
        degrees = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --degrees value {text!r}") from exc
    if not degrees:
        raise ConfigError("--degrees names no degree")
    if len(set(degrees)) != len(degrees):
        raise ConfigError(f"--degrees repeats a degree: {text!r}")
    return degrees


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sympdirac",
        description="verification suites and spectra for the symplectic"
                    " Dirac operator calculus")
    sub = parser.add_subparsers(dest="command", required=True)
    p_verify = sub.add_parser(
        "verify", help="run verification suites from a JSON config")
    p_verify.add_argument("--config", help="path to a config file"
                          " (built-in default when omitted)")
    p_verify.add_argument("--suite", action="append", dest="suites",
                          choices=list(checks.SUITES),
                          help="restrict to one or more suites")
    p_verify.add_argument("--out", help="write the JSON report here"
                          " instead of stdout")
    p_spec = sub.add_parser(
        "spectrum", help="tabulate eigenvalues of the second-order operator")
    p_spec.add_argument("--config")
    p_spec.add_argument("--degrees", required=True,
                        help="comma-separated fiber degrees, e.g. 0,1,2")
    p_spec.add_argument("--out", help="write CSV here instead of stdout")
    sub.add_parser("schema", help="print the config JSON schema")
    args = parser.parse_args(argv)

    if args.command == "schema":
        sys.stdout.write(emit_schema() + "\n")
        return 0
    try:
        _refuse_unwritable(args.out)
        config = _load_config(args.config)
        if args.command == "verify":
            report, code = run_verify(config, suites=args.suites)
            _write_report(report, args.out)
            return code
        rows = run_spectrum(config, _parse_degrees(args.degrees))
        _write_csv(rows, args.out)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
