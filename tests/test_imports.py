"""The import boundary: the spectral-density side needs only numpy, and scipy
loads on the first analytic call.  Each check runs in a fresh interpreter,
since this test process has scipy loaded already."""

import subprocess
import sys

SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def run_fresh(src_env, code: str) -> None:
    subprocess.run([sys.executable, "-c", "import sys\n" + code], env=src_env, check=True)


def test_import_loads_no_scipy(src_env):
    run_fresh(src_env, f"import l2tor, l2tor.cli\nassert not {SCIPY_LOADED}, {SCIPY_LOADED}")


def test_suite_run_loads_no_scipy(src_env):
    run_fresh(src_env, f"""
from l2tor import run_suite
report = run_suite("basic", 7, 2)
assert report.instances == 2 and not report.violations
assert not {SCIPY_LOADED}, {SCIPY_LOADED}
""")


def test_finite_determinant_loads_special_functions_only(src_env):
    run_fresh(src_env, """
import math
from l2tor import Spectrum, zeta_det
assert abs(zeta_det(Spectrum.from_pairs([(math.e, 1.0)])) - math.e) < 1e-10
assert 'scipy.special' in sys.modules
assert 'scipy.integrate' not in sys.modules
""")


def test_torsion_constant_from_a_fresh_interpreter(src_env):
    run_fresh(src_env, """
import math
from l2tor import load_plancherel_table, torsion_constant
assert abs(torsion_constant(load_plancherel_table()) + 1 / (3 * math.pi)) < 1e-6
assert 'scipy.integrate' in sys.modules
""")
