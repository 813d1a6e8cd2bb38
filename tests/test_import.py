import ast
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import trihybrid
from test_experiments import MINI


def test_import_loads_no_scipy():
    # A fresh interpreter, so modules the test session loaded do not count.
    src = str(Path(trihybrid.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import trihybrid; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_runtime_dependencies_are_the_third_party_imports():
    # pyproject.toml's runtime dependencies name exactly the top-level
    # modules outside the standard library that the package imports.
    import tomllib

    package = Path(trihybrid.__file__).parent
    imported = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {package.name}
    with open(package.parents[1] / "pyproject.toml", "rb") as f:
        dependencies = tomllib.load(f)["project"]["dependencies"]
    assert {re.match(r"[A-Za-z0-9_.-]+", spec)[0] for spec in dependencies} == third_party


def test_run_loads_no_numpy_ma(tmp_path):
    # numpy's `unique` imports numpy.ma on its first call; a run needs neither.
    src = str(Path(trihybrid.__file__).parents[1])
    config = tmp_path / "config.ini"
    config.write_text(MINI)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "from trihybrid.experiments import run_experiment; "
        f"run_experiment({str(config)!r}); print('numpy.ma' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_runner_import_leaves_the_process_pool_out():
    # The pool is imported only by a run with more than one worker.
    src = str(Path(trihybrid.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import trihybrid.experiments; "
        "print('concurrent.futures.process' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_readme_library_section_runs_as_written_and_names_every_export():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library entry points", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    state, trace = namespace["state"], namespace["trace"]
    matrix = state.antenna_matrix
    assert np.array_equal(matrix, np.eye(matrix.shape[1])[matrix.argmax(axis=1)])  # one-hot
    assert trace.n_iterations >= 1
    exports = {
        name
        for name, value in vars(trihybrid).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert not {name for name in exports if name not in section}
