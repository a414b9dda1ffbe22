"""Tests for the config-driven command line runner."""

import csv
import json
import re
from itertools import product
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import scipy

import sympdirac
from sympdirac import checks, cli
from sympdirac import dirac as dr


def flat_config(M=2, N=4):
    cfg = cli.default_config()
    cfg["torus"] = {"M": M}
    cfg["fock"] = {"N": N}
    cfg.pop("connection")
    return cfg


# ---------------------------------------------------------------------------
# schema


def test_schema_is_valid_and_accepts_default():
    schema = json.loads(cli.emit_schema())
    jsonschema.Draft202012Validator.check_schema(schema)
    jsonschema.validate(cli.default_config(), schema)


def test_schema_rejects_missing_and_unknown_fields():
    schema = json.loads(cli.emit_schema())
    bad = cli.default_config()
    del bad["model"]["n"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, schema)
    extra = cli.default_config()
    extra["plotting"] = True
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(extra, schema)


def test_schema_round_trips_a_sample_config(tmp_path):
    cfg = cli.default_config()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    loaded = json.loads(path.read_text())
    jsonschema.validate(loaded, json.loads(cli.emit_schema()))
    assert loaded == cfg


def test_schema_subcommand(capsys):
    assert cli.main(["schema"]) == 0
    out = capsys.readouterr().out
    jsonschema.Draft202012Validator.check_schema(json.loads(out))


def test_build_setup_keeps_the_schema_messages():
    jsonschema.Draft202012Validator.check_schema(cli.CONFIG_SCHEMA)
    negative = cli.default_config()
    negative["model"]["hbar"] = -1
    extra = cli.default_config()
    extra["extra"] = 1
    missing = cli.default_config()
    del missing["torus"]
    for cfg, message in [
            (negative, "-1 is less than or equal to the minimum of 0"),
            (extra, "Additional properties are not allowed"
                    " ('extra' was unexpected)"),
            (missing, "'torus' is a required property")]:
        with pytest.raises(cli.ConfigError) as info:
            cli.build_setup(cfg)
        assert str(info.value) == f"config rejected by schema: {message}"


def test_build_setup_checks_the_schema_once(monkeypatch):
    calls = []
    check = jsonschema.Draft202012Validator.check_schema

    def counting(schema, *args, **kwargs):
        calls.append(schema)
        return check(schema, *args, **kwargs)

    monkeypatch.setattr(jsonschema.Draft202012Validator, "check_schema",
                        counting)
    cli._validator.cache_clear()
    try:
        cli.build_setup(cli.default_config())
        cli.build_setup(flat_config())
    finally:
        cli._validator.cache_clear()
    assert calls == [cli.CONFIG_SCHEMA]


# ---------------------------------------------------------------------------
# verify


def test_verify_default_config_all_pass(tmp_path):
    report, code = cli.run_verify(cli.default_config())
    assert code == 0
    assert report["all_pass"] is True
    assert report["environment"]["seed"] == cli.default_config()["seed"]
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names))
    for check in report["checks"]:
        assert check["pass"] is True
        assert check["max_residual"] < check["tolerance"]
        assert check["anchor"]
        assert check["runtime_ms"] >= 0


def test_verify_is_deterministic_modulo_runtime():
    def stripped(report):
        blob = json.loads(json.dumps(report, sort_keys=True))
        for check in blob["checks"]:
            check.pop("runtime_ms")
        return json.dumps(blob, sort_keys=True)

    r1, _ = cli.run_verify(cli.default_config())
    r2, _ = cli.run_verify(cli.default_config())
    assert stripped(r1) == stripped(r2)


def test_verify_suite_restriction_and_out_file(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--suite", "cz", "--suite", "fock",
                     "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    suites = {c["suite"] for c in report["checks"]}
    assert suites == {"cz", "fock"}


def test_verify_environment_records_versions_and_threads(monkeypatch):
    cfg = cli.default_config()
    cfg["suites"] = ["cz"]
    monkeypatch.delenv("SYMPDIRAC_THREADS", raising=False)
    env = cli.run_verify(cfg)[0]["environment"]
    assert env["numpy"] == np.__version__
    assert env["scipy"] == scipy.__version__
    assert env["threads"] is None
    monkeypatch.setenv("SYMPDIRAC_THREADS", "3")
    assert cli.run_verify(cfg)[0]["environment"]["threads"] == "3"


def test_verify_records_a_null_scipy_version_without_scipy(monkeypatch):
    import importlib.metadata

    def absent(name):
        raise importlib.metadata.PackageNotFoundError(name)

    cfg = cli.default_config()
    cfg["suites"] = ["cz"]
    monkeypatch.setattr(importlib.metadata, "version", absent)
    cli._installed_version.cache_clear()
    try:
        assert cli.run_verify(cfg)[0]["environment"]["scipy"] is None
    finally:
        cli._installed_version.cache_clear()


def test_verify_failure_exit_code():
    cfg = cli.default_config()
    cfg["suites"] = ["cz"]
    cfg["tolerances"] = {"cz-roundtrip": 1e-30}
    report, code = cli.run_verify(cfg)
    assert code == 1
    assert report["all_pass"] is False
    failed = [c for c in report["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["cz-roundtrip"]


def test_verify_nan_residual_fails(tmp_path):
    # at hbar = 1e-4 every coherent-state trial overflows to NaN
    cfg = cli.default_config()
    cfg["model"]["hbar"] = 1e-4
    cfg["suites"] = ["fock"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    with np.errstate(all="ignore"):
        code = cli.main(["verify", "--config", str(path), "--out", str(out)])
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    for name in ("heisenberg-unitarity", "heisenberg-group-law"):
        assert checks[name]["max_residual"] is None
        assert checks[name]["pass"] is False


def test_verify_report_is_strict_json(tmp_path):
    # RFC 8259 has no NaN token: the NaN residuals at hbar = 1e-4 are
    # written as null, while run_verify keeps them as floats
    cfg = cli.default_config()
    cfg["model"]["hbar"] = 1e-4
    cfg["suites"] = ["fock"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    with np.errstate(all="ignore"):
        cli.main(["verify", "--config", str(path), "--out", str(out)])
        report, _ = cli.run_verify(cfg)

    def refuse(token):
        raise ValueError(f"{token} is not RFC 8259 JSON")

    written = json.loads(out.read_text(), parse_constant=refuse)
    nulls = [c["name"] for c in written["checks"] if c["max_residual"] is None]
    nans = [c["name"] for c in report["checks"]
            if np.isnan(c["max_residual"])]
    assert nulls and nulls == nans


@pytest.mark.parametrize("hbar", [1e-4, 10.0])
def test_verify_commutator_checks_are_scale_free(hbar):
    # both commutators scale as 1/hbar; their residuals are relative to it
    cfg = cli.default_config()
    cfg["model"]["hbar"] = hbar
    cfg["suites"] = ["fock"]
    with np.errstate(all="ignore"):
        report, _ = cli.run_verify(cfg)
    checks = {c["name"]: c for c in report["checks"]}
    for name in ("ccr-commutator", "clifford-commutator"):
        assert checks[name]["tolerance"] == 1e-13
        assert checks[name]["pass"] is True


@pytest.mark.parametrize("hbar", [1e-2, 0.05, 0.7, 3.0])
def test_verify_heisenberg_checks_are_scale_free(hbar):
    # coherent-state norms grow as exp(|v|^2/4hbar); the gaps are relative
    # to their Cauchy-Schwarz bounds, so the fock suite passes at small hbar
    # (at 1e-2 the squared norms overflow, and the bound is taken in logs)
    cfg = cli.default_config()
    cfg["model"]["hbar"] = hbar
    cfg["suites"] = ["fock"]
    report, code = cli.run_verify(cfg)
    assert code == 0
    checks = {c["name"]: c for c in report["checks"]}
    for name in ("heisenberg-unitarity", "heisenberg-group-law"):
        assert checks[name]["tolerance"] == 1e-12
        assert checks[name]["pass"] is True


def test_heisenberg_group_law_fails_on_a_nan_gap(monkeypatch):
    # the ratio is formed in logs; a NaN evaluation must not read as log 0
    combo_eval = checks.fk.combo_eval
    calls = []

    def nan_once(model, c, z):
        vals = combo_eval(model, c, z)
        if not calls:
            vals[0] = np.nan
        calls.append(1)
        return vals

    monkeypatch.setattr(checks.fk, "combo_eval", nan_once)
    cfg = cli.default_config()
    cfg["suites"] = ["fock"]
    report, code = cli.run_verify(cfg)
    checks_ = {c["name"]: c for c in report["checks"]}
    assert np.isnan(checks_["heisenberg-group-law"]["max_residual"])
    assert checks_["heisenberg-group-law"]["pass"] is False
    assert code != 0


def test_gauss_hermite_rule_is_computed_once_per_order(monkeypatch):
    cfg = cli.default_config()
    cli.run_verify(cfg, suites=["kernels"])
    calls = []
    hermgauss = np.polynomial.hermite.hermgauss
    monkeypatch.setattr(np.polynomial.hermite, "hermgauss",
                        lambda order: calls.append(order) or hermgauss(order))
    report, _ = cli.run_verify(cfg, suites=["kernels"])
    assert calls == []
    assert [c["name"] for c in report["checks"]][:3] == [
        "kernel-composition", "gaussian-integral-identity",
        "heisenberg-covariance"]


def test_verify_reports_package_version():
    cfg = cli.default_config()
    cfg["suites"] = ["cz"]
    version = cli.run_verify(cfg)[0]["environment"]["version"]
    assert version == sympdirac.__version__
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert version == re.search(r'^version = "([^"]+)"', text, re.M).group(1)


def test_verify_config_errors(tmp_path, capsys):
    bad = cli.default_config()
    bad["connection"]["gamma_modes"][0]["matrix"] = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(cli.ConfigError):
        cli.run_verify(bad)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert cli.main(["verify", "--config", str(path)]) == 2
    assert "sp(2n" in capsys.readouterr().err
    assert cli.main(["verify", "--config", str(tmp_path / "absent.json")]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli.main(["verify", "--config", str(broken)]) == 2


@pytest.mark.parametrize("command", [["verify", "--suite", "cz"],
                                     ["spectrum", "--degrees", "0"]])
@pytest.mark.parametrize("where", ["absent-dir/out", "."])
def test_unwritable_out_path_exits_2(tmp_path, capsys, monkeypatch, command,
                                    where):
    # a missing directory, and a directory in the place of the file; the
    # path is refused before any check or eigensolve runs
    def never(*args, **kwargs):
        raise AssertionError("ran before the --out path was refused")

    monkeypatch.setattr(checks, "run_checks", never)
    monkeypatch.setattr(dr, "spectrum", never)
    out = tmp_path / where
    assert cli.main(command + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in captured.err


def test_kernels_suite_passes_on_config_seed_40():
    # heisenberg-covariance read 3.6e-5 here at a fixed quadrature order 40
    cfg = cli.default_config()
    cfg["seed"] = 40
    report, code = cli.run_verify(cfg, suites=["kernels"])
    assert code == 0, [c["name"] for c in report["checks"] if not c["pass"]]


def test_default_config_passes_every_row_at_hbar_0_05():
    cfg = cli.default_config()
    cfg["model"]["hbar"] = 0.05
    report, code = cli.run_verify(cfg)
    assert code == 0, [c["name"] for c in report["checks"] if not c["pass"]]


def test_verify_rejects_band_budget_violations():
    cfg = cli.default_config()
    cfg["torus"]["grid"] = 11  # below 3M + 1 for M = 4
    with pytest.raises(cli.ConfigError):
        cli.run_verify(cfg)
    cfg2 = cli.default_config()
    cfg2["connection"]["gamma_modes"][0]["k"] = [9, 0]  # beyond Nyquist
    with pytest.raises(cli.ConfigError):
        cli.run_verify(cfg2)


def test_kernels_suite_requires_n1():
    cfg = cli.default_config()
    cfg["model"] = {"n": 2, "hbar": 1.0}
    cfg.pop("connection")
    with pytest.raises(cli.ConfigError):
        cli.run_verify(cfg, suites=["kernels"])


@pytest.mark.parametrize("modes, key, value, message", [
    ("gamma_modes", "matrix", [[0.1]], "gamma matrix must be 2x2"),
    ("a_modes", "direction", 2, "mode direction 2 out of range for 2n = 2"),
    ("a_modes", "k", [0, 1, 0], "mode k-vector must have length 2"),
])
def test_mode_entries_of_the_wrong_size_are_refused(tmp_path, capsys, modes,
                                                    key, value, message):
    cfg = cli.default_config()
    cfg["connection"][modes][0][key] = value
    with pytest.raises(cli.ConfigError, match=re.escape(message)):
        cli.build_setup(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["verify", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("matrix", [[[0.0, 1.0], [0.0]], [[0.0], [1.0, 0.0]]])
@pytest.mark.parametrize("command", [["verify"], ["spectrum", "--degrees", "0"]])
def test_ragged_gamma_matrix_is_refused(tmp_path, capsys, matrix, command):
    # the schema admits rows of any length; exit code 1 would read as a
    # failed check, so a ragged matrix must be a config error (code 2)
    cfg = cli.default_config()
    cfg["connection"]["gamma_modes"][0]["matrix"] = matrix
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(command + ["--config", str(path)]) == 2
    assert "gamma matrix must be 2x2" in capsys.readouterr().err


@pytest.mark.parametrize("keys, literal", [
    (("model", "hbar"), "NaN"),
    (("model", "hbar"), "1e400"),  # json.load reads it as inf
    (("connection", "gamma_modes", 0, "matrix", 1, 0), "NaN"),
    (("connection", "a_modes", 0, "value"), "NaN"),
    (("tolerances", "cz-roundtrip"), "NaN"),
])
def test_non_finite_config_numbers_are_refused(tmp_path, capsys, keys,
                                               literal):
    cfg = cli.default_config()
    entry = cfg
    for key in keys[:-1]:
        entry = entry[key]
    entry[keys[-1]] = 0.123456789  # replaced by the literal in the text
    text = json.dumps(cfg).replace("0.123456789", literal)
    name = "config" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                              for k in keys)
    with pytest.raises(cli.ConfigError, match=re.escape(name)):
        cli.build_setup(json.loads(text))
    path = tmp_path / "config.json"
    path.write_text(text)
    assert cli.main(["verify", "--config", str(path)]) == 2
    assert f"{name} is " in capsys.readouterr().err


def test_unknown_suite_argument_is_refused():
    with pytest.raises(cli.ConfigError, match="unknown suite 'nope'"):
        cli.run_verify(cli.default_config(), suites=["nope"])


@pytest.mark.parametrize("hbar", [3.0, 10.0])
def test_verify_adjoint_check_is_scale_free(hbar):
    # the fiber weights grow as (2 hbar)^degree; the residual is relative
    cfg = cli.default_config()
    cfg["model"]["hbar"] = hbar
    assert cli.run_verify(cfg, suites=["dirac"])[1] == 0


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_flat_closed_form_rows(tmp_path):
    cfg = flat_config(M=2, N=4)
    rows = cli.run_spectrum(cfg, [0])
    hbar = cfg["model"]["hbar"]
    want = sorted(-(k1 * k1 + k2 * k2) / hbar
                  for k1, k2 in product(range(-2, 3), repeat=2))
    got = sorted(r[2] for r in rows)
    assert np.abs(np.array(got) - np.array(want)).max() < 1e-10
    assert max(abs(r[3]) for r in rows) < 1e-10


def test_spectrum_csv_and_identical_degree_columns(tmp_path):
    out = tmp_path / "eigs.csv"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(flat_config(M=2, N=4)))
    assert cli.main(["spectrum", "--config", str(path),
                     "--degrees", "0,1", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == ["degree", "index", "re", "im"]
    body = table[1:]
    d0 = [row[2:] for row in body if row[0] == "0"]
    d1 = [row[2:] for row in body if row[0] == "1"]
    # flat fibers evolve degree by degree with the same scalar symbol
    assert len(d0) == len(d1) > 0
    a = np.sort(np.array([float(r[0]) for r in d0]))
    b = np.sort(np.array([float(r[0]) for r in d1]))
    assert np.abs(a - b).max() < 1e-9


def test_spectrum_refuses_empty_and_repeated_degrees(capsys):
    for text in ("", " , ", "0,0", "1,0,1"):
        assert cli.main(["spectrum", "--degrees", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--degrees" in captured.err


def test_spectrum_rejects_out_of_range_degree(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(flat_config(M=2, N=4)))
    assert cli.main(["spectrum", "--config", str(path),
                     "--degrees", "4"]) == 2
    assert "degree" in capsys.readouterr().err
    assert cli.main(["spectrum", "--config", str(path),
                     "--degrees", "x"]) == 2


def test_spectrum_refuses_non_unitary_connection(tmp_path, capsys):
    cfg = cli.default_config()
    cfg["connection"]["gamma_modes"][0]["matrix"] = [[0.3, 0.0], [0.0, -0.3]]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["spectrum", "--config", str(path),
                     "--degrees", "0"]) == 2
    assert "unitary" in capsys.readouterr().err


def test_spectrum_block_beyond_physical_memory_exits_2(tmp_path, capsys,
                                                       monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(flat_config(M=2, N=4)))
    monkeypatch.setattr(dr, "_physical_memory", lambda: 2 ** 10)
    assert cli.main(["spectrum", "--config", str(path),
                     "--degrees", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(r"block of dimension 25 needs about .* MiB",
                     captured.err)
    assert "physical memory" in captured.err


# ---------------------------------------------------------------------------
# registry and config robustness


def test_suites_everywhere_follow_the_check_registry(capsys):
    suites = list(checks.SUITES)
    schema = json.loads(cli.emit_schema())
    assert schema["properties"]["suites"]["items"]["enum"] == suites
    assert cli.default_config()["suites"] == suites
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    choices = re.search(r"--suite \{([^}]*)\}", capsys.readouterr().out)
    assert choices.group(1).split(",") == suites
    report, _ = cli.run_verify(cli.default_config())
    assert [(c["name"], c["suite"]) for c in report["checks"]] == [
        (c.name, c.suite) for c in checks.CHECKS]


def stripped_report(config):
    report, code = cli.run_verify(config)
    for row in report["checks"]:
        row.pop("runtime_ms")
    return report, code


def test_integral_floats_give_the_integer_report(tmp_path):
    cfg = cli.default_config()
    cfg["seed"] = 3
    cfg["torus"]["grid"] = 13
    want = stripped_report(cfg)
    floats = json.loads(json.dumps(cfg))
    floats["model"]["n"] = 1.0
    floats["fock"]["N"] = 5.0
    floats["torus"] = {"M": 4.0, "grid": 13.0}
    floats["seed"] = 3.0
    floats["quad_order"] = 60.0
    for mode in (floats["connection"]["gamma_modes"]
                 + floats["connection"]["a_modes"]):
        mode["direction"] = float(mode["direction"])
        mode["k"] = [float(k) for k in mode["k"]]
    assert stripped_report(floats) == want
    path = tmp_path / "config.json"
    path.write_text(json.dumps(floats))
    assert cli.main(["verify", "--config", str(path),
                     "--out", str(tmp_path / "r.json")]) == want[1]


def test_unknown_tolerance_names_are_refused(tmp_path, capsys):
    cfg = cli.default_config()
    cfg["suites"] = ["cz"]
    cfg["tolerances"] = {"cz-rountrip": 1e-30}
    with pytest.raises(cli.ConfigError, match="cz-rountrip"):
        cli.run_verify(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["verify", "--config", str(path)]) == 2
    assert "cz-rountrip" in capsys.readouterr().err
    # a check of a suite this run does not select may still be named
    cfg["tolerances"] = {"weitzenbock-identity": 1e-3}
    assert cli.run_verify(cfg)[1] == 0
