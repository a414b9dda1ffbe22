"""No library path loads SciPy, and only config validation loads
jsonschema.

Each probe runs in a fresh interpreter, since this test process has long
imported both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
import numpy as np
from sympdirac import cli
from sympdirac import dirac as dr
from sympdirac import fock as fk
from sympdirac import geometry as ge
from sympdirac import symplinalg as sl


def loaded():
    return sorted({"scipy", "scipy.linalg", "jsonschema"} & set(sys.modules))


stages = {}
torus = ge.torus_model(sl.standard_model(1, hbar=0.7), 2)
basis = fk.fock_basis(1, 4)
conn = ge.random_connection(torus, np.random.default_rng(0))
ctx = dr.make_context(conn, basis)
dr.P_op(ctx, ge.random_spinor_field(torus, basis, np.random.default_rng(1)))
stages["operators"] = loaded()
cli.run_spectrum(cli.default_config(), [0])
stages["spectrum"] = loaded()
cli.run_verify(cli.default_config())
stages["verify"] = loaded()
import scipy.linalg
stages["control"] = loaded()
print(json.dumps(stages))
"""


def test_dirac_layer_and_spectrum_run_without_scipy_linalg():
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path),
                          check=True)
    stages = json.loads(done.stdout.splitlines()[-1])
    assert stages["operators"] == []
    # config validation loads jsonschema, and nothing loads SciPy, not
    # even the default verify, which exponentiates group elements and
    # records the SciPy version from the package metadata
    assert stages["spectrum"] == ["jsonschema"]
    assert stages["verify"] == ["jsonschema"]
    # the negative control: the probe does see scipy once it loads
    assert stages["control"] == ["jsonschema", "scipy", "scipy.linalg"]
