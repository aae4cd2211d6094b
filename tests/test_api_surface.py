"""Public names that the README's library use and the benchmark rely on
must keep resolving, so that a deletion cannot quietly break either; and
the CLI must not import modules it does not use."""
import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import meadjust

ROOT = Path(__file__).resolve().parents[1]


def test_all_names_resolve():
    missing = [name for name in meadjust.__all__ if not hasattr(meadjust, name)]
    assert not missing


def test_readme_library_use_imports():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    imports = [node for node in ast.parse(block).body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


def test_benchmark_names_resolve():
    """Every attribute the tracer patches, plus the entry points the
    benchmark workloads call directly."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PATCHES
    names = [(module_name, attr) for module_name, attr, _ in tracing.PATCHES]
    names += [("meadjust.experiment", "priors_for"), ("meadjust.mcmc", "ModelSpec")]
    for module_name, attr in names:
        assert hasattr(importlib.import_module(module_name), attr), f"{module_name}.{attr}"
    assert callable(meadjust.ModelSpec.from_cohort)


def test_import_loads_no_scipy():
    """The package needs numpy only; scipy, about half of every CLI start,
    is a test dependency."""
    code = (
        "import sys, meadjust, meadjust.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
