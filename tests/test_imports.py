"""The import boundary: the spectral-density side and the H3 torsion constant
need only numpy, and scipy.special loads on the first determinant of a
finite spectrum or a circle.  Each check runs in a fresh interpreter, since
this test process has scipy loaded already."""

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
    # neither scipy.integrate nor scipy.special: the H3 quadratures end
    # after QUADPACK's first 21-point rule, which heattrace.quad runs
    # itself, and the table's odd terms, whose E_n would come from
    # scipy.special, are all 0
    run_fresh(src_env, f"""
import math
from l2tor import load_plancherel_table, torsion_constant
assert abs(torsion_constant(load_plancherel_table()) + 1 / (3 * math.pi)) < 1e-6
assert not {SCIPY_LOADED}, {SCIPY_LOADED}
""")


def test_hyperbolic_constant_command_loads_no_scipy(src_env):
    run_fresh(src_env, f"""
import contextlib, io, json, math
from l2tor.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert main(["hyperbolic", "--op", "constant"]) == 0
assert abs(json.loads(out.getvalue())["value"] + 1 / (3 * math.pi)) < 1e-6
assert not {SCIPY_LOADED}, {SCIPY_LOADED}
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


# public members that nothing outside the tests names, each kept for a reason
_TEST_ONLY_MEMBERS = {
    "Spectrum.counting_function": "the paper's counting function F, documented in README",
    "TracedMap.identity": "with TracedMap.zero, the exact maps any space has",
}


def _names(tree) -> set[str]:
    """The names a module's code uses: its names, attributes and imports, and
    the words of its string literals (bench/tracing.py patches members by
    name), without its docstrings and its __all__."""
    import ast
    import re

    skip = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and body
                and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)):
            skip.add(id(body[0].value))
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            skip.update(id(n) for n in ast.walk(node.value))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def test_every_public_member_is_reached_outside_the_tests():
    # a public function, method or property of l2tor that no code in src/,
    # bench/ or scripts/ names is surface that only the tests reach: delete
    # it, or move it into the tests as a helper.  Names are matched as
    # names, so a member that shares its name with another one that is used
    # counts as reached.
    import ast
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    members, used = [], set()
    for path in sorted((root / "src" / "l2tor").glob("*.py")):
        tree = ast.parse(path.read_text())
        used |= _names(tree)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                members.append((node.name, node.name))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                members += [(f"{node.name}.{sub.name}", sub.name) for sub in node.body
                            if isinstance(sub, ast.FunctionDef)]
    for path in sorted([*(root / "bench").rglob("*.py"), *(root / "scripts").rglob("*.py")]):
        used |= _names(ast.parse(path.read_text()))
    unreached = sorted(qualified for qualified, name in members
                       if not name.startswith("_") and name not in used)
    assert unreached == sorted(_TEST_ONLY_MEMBERS)
