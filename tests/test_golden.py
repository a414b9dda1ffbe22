"""The verify reports and the spectrum table against committed golden files.

tests/golden/ holds the default `sympdirac verify` report, the report for
tests/golden/n2-config.json (n = 2), both without runtime_ms, and the default
`sympdirac spectrum --degrees 0,1,2,3` table, all written by
tests/golden/regenerate.py.  A change that keeps the maths must reproduce
them: the same rows in the same order, with the same suites, anchors,
tolerances and pass flags, and residuals within

    RESIDUAL_ATOL + RESIDUAL_RTOL |golden residual|.

The largest shift of a residual under a rewrite that kept the maths has been
5.2e-16, and the reports are bit-identical at one and two BLAS threads; the
absolute term allows about three times that shift, and the relative term
covers the central-difference residuals of the kernels suite (1e-8 .. 1e-7).
The bound stays at most 1/50 of every row's tolerance.  Eigenvalues compare
per degree as multisets: each golden eigenvalue is matched to its own new
one, within EIGEN_RTOL times the degree's largest |eigenvalue|; changing the
BLAS thread count moves them by up to 6.5e-15 of it.  The environment's
numpy, scipy and threads entries describe the host and are not compared.
"""

import copy
import csv
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from sympdirac import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
RESIDUAL_ATOL = 1.5e-15
RESIDUAL_RTOL = 1e-6
EIGEN_RTOL = 1e-12
HOST_FACTS = ("numpy", "scipy", "threads")
SPECTRUM_DEGREES = [0, 1, 2, 3]


def residual_bound(row: dict) -> float:
    return RESIDUAL_ATOL + RESIDUAL_RTOL * abs(row["max_residual"])


def report_mismatches(report: dict, golden: dict) -> list:
    """Every way report differs from golden beyond the stated bounds."""
    out = []
    if set(report) != set(golden):
        out.append(f"top-level keys {sorted(report)} != {sorted(golden)}")
    env, want_env = ({k: v for k, v in r["environment"].items()
                      if k not in HOST_FACTS} for r in (report, golden))
    if env != want_env:
        out.append(f"environment {env} != {want_env}")
    if report["all_pass"] != golden["all_pass"]:
        out.append(f"all_pass {report['all_pass']} != {golden['all_pass']}")
    names = [row["name"] for row in report["checks"]]
    want = [row["name"] for row in golden["checks"]]
    if names != want:
        return out + [f"rows {names} != {want}"]
    for row, gold in zip(report["checks"], golden["checks"]):
        for key in ("suite", "anchor", "tolerance", "pass"):
            if row[key] != gold[key]:
                out.append(f"{gold['name']}: {key} {row[key]!r} != {gold[key]!r}")
        gap = abs(row["max_residual"] - gold["max_residual"])
        # written so that a NaN residual fails
        if not gap <= residual_bound(gold):
            out.append(f"{gold['name']}: residual {row['max_residual']!r}"
                       f" moved {gap:.3g} from {gold['max_residual']!r}")
    return out


def _by_degree(rows) -> dict:
    out = {}
    for degree, index, re, im in rows:
        out.setdefault(int(degree), []).append((int(index),
                                                complex(float(re), float(im))))
    return out


def spectrum_mismatches(rows, golden_rows) -> list:
    """Per degree: the same indices, and eigenvalues matched as multisets."""
    got, want = _by_degree(rows), _by_degree(golden_rows)
    if list(got) != list(want):
        return [f"degrees {list(got)} != {list(want)}"]
    out = []
    for degree, pairs in want.items():
        if [i for i, _ in got[degree]] != [i for i, _ in pairs]:
            out.append(f"degree {degree}: row indices differ")
            continue
        a = np.array([v for _, v in got[degree]])
        b = np.array([v for _, v in pairs])
        dist = np.abs(a[:, None] - b[None, :])
        worst = dist[linear_sum_assignment(dist)].max()
        bound = EIGEN_RTOL * np.abs(b).max()
        if not worst <= bound:
            out.append(f"degree {degree}: an eigenvalue moved {worst:.3g},"
                       f" beyond {bound:.3g}")
    return out


def _golden_report(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text())


def _golden_spectrum() -> list:
    with open(GOLDEN / "spectrum-default.csv", newline="") as fh:
        return list(csv.reader(fh))[1:]


CASES = {
    "verify-default.json": cli.default_config,
    "verify-n2.json": lambda: json.loads(
        (GOLDEN / "n2-config.json").read_text()),
}


@pytest.mark.parametrize("name", list(CASES))
def test_verify_report_matches_golden(name):
    report, code = cli.run_verify(CASES[name]())
    golden = _golden_report(name)
    assert report_mismatches(report, golden) == []
    assert code == (0 if golden["all_pass"] else 1)


def test_default_spectrum_matches_golden():
    rows = cli.run_spectrum(cli.default_config(), SPECTRUM_DEGREES)
    assert spectrum_mismatches(rows, _golden_spectrum()) == []


@pytest.mark.parametrize("name", list(CASES))
def test_residual_bounds_sit_far_below_tolerances(name):
    for row in _golden_report(name)["checks"]:
        assert residual_bound(row) <= row["tolerance"] / 50, row["name"]


@pytest.mark.parametrize("name", list(CASES))
def test_a_residual_moved_past_its_bound_fails(name):
    """Negative control: every row, moved by twice its bound, is caught, and
    half the bound is not."""
    golden = _golden_report(name)
    for k, row in enumerate(golden["checks"]):
        for factor, caught in ((2.0, True), (0.5, False)):
            moved = copy.deepcopy(golden)
            moved["checks"][k]["max_residual"] += factor * residual_bound(row)
            assert bool(report_mismatches(moved, golden)) is caught, \
                (row["name"], factor)
    renamed = copy.deepcopy(golden)
    renamed["checks"][0]["anchor"] += " "
    assert report_mismatches(renamed, golden)
    nan = copy.deepcopy(golden)
    nan["checks"][-1]["max_residual"] = float("nan")
    assert report_mismatches(nan, golden)


def test_an_eigenvalue_moved_past_the_bound_fails():
    """Negative control: one eigenvalue moved by twice the bound is caught,
    and by half of it is not."""
    golden = _golden_spectrum()
    bound = EIGEN_RTOL * max(abs(complex(float(re), float(im)))
                             for d, _, re, im in golden if d == "1")
    k = next(i for i, row in enumerate(golden) if row[0] == "1")
    for factor, caught in ((2.0, True), (0.5, False)):
        moved = [list(row) for row in golden]
        moved[k][2] = repr(float(moved[k][2]) + factor * bound)
        assert bool(spectrum_mismatches(moved, golden)) is caught, factor
    dropped = [row for i, row in enumerate(golden) if i != k]
    assert spectrum_mismatches(dropped, golden)
