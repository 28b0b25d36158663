"""Package surface: every name the package advertises can be imported, the
command-line module loads without numpy, and the count of defaulted
parameters does not creep back up."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import dyonfw

# Parameters with a default value across src/dyonfw.  Each one is an option
# every caller and test may set; lower this when one goes, never raise it.
MAX_DEFAULTED_PARAMETERS = 18


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from dyonfw import *", namespace)
    assert set(dyonfw.__all__) <= set(namespace)


def test_cli_import_leaves_numpy_unloaded():
    # Only simulate and boost-dipole run numpy; verify and derive never pay
    # for importing it.
    src = str(Path(dyonfw.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = 'import dyonfw.cli; import sys; assert "numpy" not in sys.modules'
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env=dict(os.environ, PYTHONPATH=path))


def test_parameters_with_defaults_do_not_grow():
    count = 0
    for path in Path(dyonfw.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
    assert count <= MAX_DEFAULTED_PARAMETERS
