"""Verified calculus for symplectic spinor geometry.

symplinalg   symplectic linear algebra and the (C, Z) parameter splitting
fock         truncated Fock fibers, coherent states, Heisenberg operators
mpc          circle-extended group arithmetic, fiber actions, Berezin kernels
geometry     flat-torus fields, connections, torsion and curvature
dirac        the four first-order operators, adjoints, spectra
checks       the verification checks, one ordered registry of residuals
cli          the command line: JSON configs, verify reports, spectrum tables
"""

import os as _os

# honor the documented thread knob before any BLAS-backed import
_threads = _os.environ.get("SYMPDIRAC_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from . import dirac, fock, geometry, mpc, symplinalg  # noqa: E402

__all__ = ["dirac", "fock", "geometry", "mpc", "symplinalg"]
__version__ = "0.1.0"
