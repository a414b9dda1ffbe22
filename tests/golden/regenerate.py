"""Rewrite the golden reports that tests/test_golden.py compares against.

    SYMPDIRAC_THREADS=1 PYTHONPATH=src python tests/golden/regenerate.py

writes, next to this script:

    verify-default.json   the default `sympdirac verify` report
    verify-n2.json        the report for n2-config.json (n = 2)
    spectrum-default.csv  `sympdirac spectrum --degrees 0,1,2,3`

Each report drops its runtime_ms fields, the only part that varies between
runs.  Run it only for a change that moves a residual or an eigenvalue on
purpose, and say in CHANGES.md which rows moved and by how much.
"""

from __future__ import annotations

import json
from pathlib import Path

from sympdirac import cli

HERE = Path(__file__).resolve().parent


def verify_report(config: dict) -> dict:
    """run_verify's report without its runtime_ms fields."""
    report, _ = cli.run_verify(config)
    for row in report["checks"]:
        del row["runtime_ms"]
    return report


def main() -> None:
    n2 = json.loads((HERE / "n2-config.json").read_text())
    for name, config in (("verify-default.json", cli.default_config()),
                         ("verify-n2.json", n2)):
        text = json.dumps(verify_report(config), indent=2, sort_keys=True,
                          allow_nan=False)
        (HERE / name).write_text(text + "\n", encoding="ascii")
    cli.main(["spectrum", "--degrees", "0,1,2,3",
              "--out", str(HERE / "spectrum-default.csv")])


if __name__ == "__main__":
    main()
