"""The public functions, methods and properties that no library code uses.

An ast scan of src/sympdirac collects every public (no leading underscore)
module-level function, and every public method or property of a module-level
class.  One counts as used when its name appears anywhere in src/ as a name
or an attribute.  The scan matches names, not bindings, so two definitions
that share a name are used together.  The unused set must equal UNCALLED,
each entry with the reason it stays: a new public function with no library
caller fails here, and so does an entry whose function gained a caller or
was deleted.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sympdirac"

UNCALLED = {
    "dirac.aj_tau": "tests; adjoint_residual takes the windowed kernel",
    "dirac.dirac_Dsecond": "tests; adjoint_residual takes the windowed kernel",
    "dirac.dirac_Dprime": "tests; adjoint_residual takes the windowed kernel",
    "dirac.nabla_star": "tests; laplacian takes the windowed kernel",
    "dirac.dirac_D": "the fields benchmark; ROADMAP item 6 gives it a check",
    "dirac.dirac_Dtilde": "tests; ROADMAP item 6 (commutator identity)",
    "dirac.dirac_via_frame": "tests; ROADMAP item 6 (frame independence)",
    "dirac.laplacian": "the fields benchmark and the tests",
    "dirac.nabla_dir": "tests of nabla_X; ROADMAP item 10",
    "dirac.oneform_inner": "tests of the adjoint of nabla; ROADMAP item 10",
    "dirac.symbol_check": "tests; ROADMAP item 6 (principal symbol)",
    "fock.FockBasis.degree_slice": "tests; ROADMAP item 10",
    "fock.berezin_kernel_eval": "tests of truncated Berezin kernels",
    "fock.coherent_inner": "test oracle for combo_inner",
    "fock.fock_inner": "tests of the weighted fiber pairing",
    "fock.heisenberg_inverse": "tests; ROADMAP item 10",
    "fock.heisenberg_lie_act": "tests of the Heisenberg Lie action",
    "fock.monomial_norm": "test oracle for norm_weights",
    "geometry.band_mass_outside": "tests; ROADMAP item 8 (band exterior)",
    "geometry.lie_matrix_field":
        "dense test oracle for fiber_action; the benchmark traces it",
    "geometry.spinor_cov_deriv":
        "field-level nabla_b for the tests; the benchmark counts it",
    "geometry.spinor_curvature": "tests; ROADMAP item 10 (fiber suite)",
    "mpc.identity_mpc": "tests of the group law",
    "mpc.lie_group_kernel_residual": "tests; ROADMAP item 1 decides",
    "mpc.mpc_lie_bracket": "tests; ROADMAP item 10 (fiber suite)",
    "symplinalg.antilinear_real": "tests, as the inverse of antilinear_matrix",
    "symplinalg.metric_form": "tests; ROADMAP item 10",
    "symplinalg.u_residual": "tests of U(n) membership",
    "symplinalg.vec_from_complex": "tests; ROADMAP item 10",
}


def _public(node) -> bool:
    return isinstance(node, ast.FunctionDef) and not node.name.startswith("_")


def scan(src: Path) -> set:
    """Qualified names of the public definitions src/ never names."""
    defined, named = {}, set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if _public(node):
                defined[f"{path.stem}.{node.name}"] = node.name
            elif isinstance(node, ast.ClassDef):
                for item in filter(_public, node.body):
                    defined[f"{path.stem}.{node.name}.{item.name}"] = item.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return {qual for qual, name in defined.items() if name not in named}


def test_uncalled_public_surface_is_the_listed_one():
    found = scan(SRC)
    assert sorted(found - set(UNCALLED)) == [], "new uncalled functions"
    assert sorted(set(UNCALLED) - found) == [], "stale UNCALLED entries"


def test_scan_sees_an_uncalled_function_and_its_caller(tmp_path):
    # negative control: the scan flags an unused public function, a method
    # and a property, and drops each once something names it
    (tmp_path / "a.py").write_text(
        "class K:\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "    def grow(self):\n"
        "        return self.size\n"
        "def used():\n"
        "    return 1\n"
        "def unused():\n"
        "    return used()\n"
        "def _private():\n"
        "    return 0\n")
    assert scan(tmp_path) == {"a.K.grow", "a.unused"}
    (tmp_path / "b.py").write_text("from . import a\n"
                                   "x = a.unused() + a.K().grow()\n")
    assert scan(tmp_path) == set()
