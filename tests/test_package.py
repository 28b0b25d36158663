"""Package surface: every name the package advertises can be imported, the
command-line module loads without numpy or dataclasses, the records are
frozen, the count of defaulted parameters does not creep back up, no public
helper goes unused, and every source file parses with the oldest supported
Python."""

import ast
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dyonfw
from dyonfw import dynamics, fw, hamiltonians, reduction

# Parameters with a default value across src/dyonfw.  Each one is an option
# every caller and test may set; lower this when one goes, never raise it.
MAX_DEFAULTED_PARAMETERS = 14


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from dyonfw import *", namespace)
    assert set(dyonfw.__all__) <= set(namespace)


def _modules_stay_unloaded(code: str, *modules: str) -> None:
    """Run code in a fresh interpreter under python -S, so that no site .pth
    file preloads a module and hides a regression, then check that none of
    modules was ever imported."""
    src = str(Path(dyonfw.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    check = (f"\nimport sys\nloaded = sorted(set(sys.modules).intersection({sorted(modules)!r}))"
             "\nassert not loaded, loaded")
    subprocess.run([sys.executable, "-S", "-c", code + check],
                   check=True, timeout=120, stdout=subprocess.DEVNULL,
                   env=dict(os.environ, PYTHONPATH=path))


def test_cli_import_leaves_numpy_unloaded():
    # Only simulate runs numpy; verify and derive never pay for importing it.
    # The records are named tuples and the fixtures a path beside the
    # package, so no run pays for dataclasses (which loads inspect) or for
    # importlib.resources either.
    _modules_stay_unloaded("import dyonfw.cli",
                           "numpy", "dataclasses", "inspect", "importlib.resources")


def test_dynamics_import_leaves_numpy_and_dataclasses_unloaded():
    # simulate would pay for dataclasses inside its timed run.
    _modules_stay_unloaded("import dyonfw.dynamics", "numpy", "dataclasses")


def test_boost_dipole_leaves_numpy_unloaded():
    # The boosts run on float tuples; importing dynamics loads no numpy.
    _modules_stay_unloaded('from dyonfw import cli\n'
                           'assert cli.main(["boost-dipole", "--beta", "0.6,0,0"]) == 0',
                           "numpy")


_ZERO = dyonfw.Expression.zero()
# Each immutable record, built with its defaults where it has them, and its fields.
RECORDS = {
    "ParticleParams": (hamiltonians.ParticleParams(), ("m", "e", "etilde", "ge", "gte")),
    "OddEvenSplit": (fw.OddEvenSplit(_ZERO, _ZERO, _ZERO), ("mass", "even", "odd")),
    "FWRunResult": (fw.FWRunResult("dirac", (), {1: _ZERO}), ("model", "stages", "even_slices")),
    "SeriesCheckReport": (reduction.SeriesCheckReport("identity", (1, 0), (1, 0)),
                          ("name", "derived", "expected")),
    "FieldConfig": (dynamics.FieldConfig(), ("E", "B")),
    "PhaseState": (dynamics.PhaseState(), ("x", "u", "s", "t")),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_frozen_and_print_their_fields(name):
    record, fields = RECORDS[name]
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = None
    shown = ", ".join(f"{field}={getattr(record, field)!r}" for field in fields)
    assert repr(record) == f"{name}({shown})"


def test_records_keep_their_defaults_and_checks():
    params = hamiltonians.ParticleParams()
    values = [getattr(params, field) for field in RECORDS["ParticleParams"][1]]
    assert values == [1, 1, 0, 2, 2] and {type(v) for v in values} == {Fraction}
    assert hamiltonians.ParticleParams(ge=3, e="1/2") == hamiltonians.ParticleParams(
        1, Fraction(1, 2), 0, Fraction(3), 2)
    state = dynamics.PhaseState()
    assert (state.x, state.u, state.s, state.t) == ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
                                                    (0.0, 0.0, 1.0), 0.0)
    state = dynamics.PhaseState(u=[1, 2, 3], t=0.5)
    assert state.u == (1.0, 2.0, 3.0) and type(state.u[0]) is float and state.t == 0.5
    fields = dynamics.FieldConfig()
    assert (fields.E, fields.B) == ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    assert dynamics.FieldConfig(B=(0, 0, 1)).B == (0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        hamiltonians.ParticleParams(ge="x")
    with pytest.raises(ValueError, match="^B must be three numbers, got 2$"):
        dynamics.FieldConfig(B=(1, 2))
    with pytest.raises(ValueError, match="^s must be three numbers, got 2$"):
        dynamics.PhaseState((0, 0, 0), (0, 0, 0), (1, 2))


def test_parameters_with_defaults_do_not_grow():
    count = 0
    for path in Path(dyonfw.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
    assert count == MAX_DEFAULTED_PARAMETERS


def _names_used(tree: ast.AST) -> set:
    """Every identifier a module reads, imports or spells in a string other
    than a docstring (the perfbench tracer wraps attributes by name)."""
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            names.update(re.findall(r"\w+", node.value))
    return names


def test_every_public_helper_is_used():
    # A top-level public function or class of the package must be named
    # somewhere in the package, the tests or the benchmark.
    package = Path(dyonfw.__file__).parent
    root = package.parents[1]
    used = set()
    for directory in ("src", "tests", "perfbench"):
        for path in (root / directory).rglob("*.py"):
            used |= _names_used(ast.parse(path.read_text()))
    unused = [f"{path.stem}.{node.name}"
              for path in sorted(package.rglob("*.py"))
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used]
    assert unused == []


def test_sources_parse_with_the_oldest_supported_python():
    # The grammar of the lowest Python pyproject.toml's requires-python
    # admits, read with a regex because tomllib is 3.11+.
    root = Path(dyonfw.__file__).resolve().parents[2]
    minor = re.search(r'requires-python\s*=\s*">=\s*3\.(\d+)"',
                      (root / "pyproject.toml").read_text())[1]
    paths = [*Path(dyonfw.__file__).parent.rglob("*.py"), *(root / "tests").rglob("*.py")]
    assert paths
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=(3, int(minor)))


def _module_aliases(tree: ast.AST) -> set:
    """The names a module binds to other dyonfw modules: `from . import x`,
    `from . import x as y`, `from dyonfw import x` and `import dyonfw.x as y`,
    at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                (node.level and node.module is None) or node.module == "dyonfw"):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.asname for alias in node.names
                         if alias.asname and alias.name.startswith("dyonfw."))
    return names


def test_no_module_reads_another_modules_private_names():
    # Each module keeps its own layout: algebra's packed terms, for one, are
    # read through its public splits (split_groups, split_terms) only.  The
    # test oracles keep to them too, and type the integrator's law again
    # rather than import dynamics, so they share no code with what they check.
    package = Path(dyonfw.__file__).parent
    oracles = Path(__file__).with_name("oracles.py")
    reads = []
    for path in [*sorted(package.glob("*.py")), oracles]:
        tree = ast.parse(path.read_text())
        modules = _module_aliases(tree)
        reads += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and node.attr.startswith("_")
                  and not (node.attr.startswith("__") and node.attr.endswith("__"))]
    assert reads == []
    imports = [f"{node.module}.{alias.name}" if isinstance(node, ast.ImportFrom) else alias.name
               for node in ast.walk(ast.parse(oracles.read_text()))
               if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert "dyonfw.algebra" in imports
    assert [name for name in imports if name.startswith("dyonfw.dynamics")] == []
