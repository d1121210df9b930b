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


def test_circle_determinants_of_every_length_load_no_quadrature(src_env):
    run_fresh(src_env, """
import math
from l2tor import HeatTraceModel, Spectrum, analytic_torsion, zeta_det
for L in (1e-8, 1.0, 1e6):
    assert abs(zeta_det(HeatTraceModel.from_circle(L)) / L ** 2 - 1.0) < 1e-9
models = {p: HeatTraceModel.from_spectrum(Spectrum.from_pairs([(0.5 + p, 1.0)]))
          for p in range(3)}
assert math.isfinite(analytic_torsion(models).total)
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


def test_one_module_decides_step_function_relations():
    # sdf holds the step-function algebra and takes no slack from config;
    # the one tie shift is checks.tie_shifted, the only reader of TIE_RTOL
    import ast
    from pathlib import Path

    import l2tor

    package = Path(l2tor.__file__).parent
    sdf = ast.parse((package / "sdf.py").read_text())
    assert not [node.module for node in ast.walk(sdf)
                if isinstance(node, ast.ImportFrom) and node.module in ("config", "l2tor.config")]
    readers = []
    for path in sorted(package.glob("*.py")):
        if path.name == "config.py":
            continue
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                names = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
                if "TIE_RTOL" in names or fn.name == "tie_shifted":
                    readers.append((path.stem, fn.name))
    assert readers == [("checks", "tie_shifted")]


def test_every_config_constant_has_a_reader():
    # a constant that no function in the package reads (config's own
    # functions count) is configuration that nothing reads: delete it
    import ast
    from pathlib import Path

    import l2tor

    package = Path(l2tor.__file__).parent
    config = ast.parse((package / "config.py").read_text())
    constants = {target.id for node in config.body if isinstance(node, ast.Assign)
                 for target in node.targets
                 if isinstance(target, ast.Name) and target.id.isupper()}
    read = set()
    for path in package.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                read |= {node.id for node in ast.walk(fn)
                         if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
                read |= {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)}
    assert constants and not sorted(constants - read)
