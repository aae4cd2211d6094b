"""Public names that the README's library use and the benchmark rely on
must keep resolving, so that a deletion cannot quietly break either; the
package root must export nothing else that the tests and the benchmark do
not read, so that an unused export cannot return unnoticed; the
benchmark's tracer must see every sampler block; the CLI must not
import modules it does not use; and each input rule must be written once,
in ``errors``."""
import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import meadjust
from meadjust import mcmc
from meadjust.experiment import priors_for

ROOT = Path(__file__).resolve().parents[1]


def test_all_names_resolve():
    missing = [name for name in meadjust.__all__ if not hasattr(meadjust, name)]
    assert not missing


def _readme_library_imports():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return [node for node in ast.parse(block).body if isinstance(node, ast.ImportFrom)]


def _root_names_read_by(paths):
    """The names each file reads from the package root, as
    `from meadjust import NAME` or `meadjust.NAME`."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "meadjust" and node.level == 0:
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "meadjust":
                names.add(node.attr)
    return names


def test_readme_library_use_imports():
    imports = _readme_library_imports()
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


def test_root_exports_only_what_the_readme_tests_or_benchmark_read():
    """Every root export is imported by the README's library use or read
    from the root by a test or the benchmark; every other public name
    lives in its own module."""
    allowed = {alias.name for node in _readme_library_imports() if node.module == "meadjust" for alias in node.names}
    allowed |= _root_names_read_by([*(ROOT / "tests").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")])
    assert sorted(set(meadjust.__all__) - allowed) == []


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_names_resolve():
    """Every attribute the tracer patches, plus the entry points the
    benchmark workloads call directly."""
    tracing = _load_tracing()
    assert tracing.PATCHES
    names = [(module_name, attr) for module_name, attr, _ in tracing.PATCHES]
    names += [("meadjust.experiment", "priors_for"), ("meadjust.mcmc", "ModelSpec")]
    for module_name, attr in names:
        assert hasattr(importlib.import_module(module_name), attr), f"{module_name}.{attr}"
    assert callable(meadjust.ModelSpec.from_cohort)


def test_tracer_times_every_sampler_block():
    """A scan calls each block through its module attribute, so the
    tracer's wrappers time every block and nothing else runs inside
    run_chains."""
    tracing = _load_tracing()
    cohort = meadjust.simulate_cohort(meadjust.CohortConfig(n=50, seed=1))
    mcmc_config = meadjust.McmcConfig(n_chains=1, burn_in=2, keep=2, thin=1)
    for kind in mcmc.MODEL_KINDS:
        spec = meadjust.ModelSpec.from_cohort(cohort, kind, priors_for(kind, "typeA"))
        tracer = tracing.Tracer()
        with tracer.patched():
            mcmc.run_chains(spec, mcmc_config)
        blocks = {f"mcmc.{kind}.{block}" for block in tracing.MCMC_BLOCKS}
        assert blocks <= set(tracer.names)
        assert {inner for _, inner in tracer.nested_in(".run_chains")} == blocks


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


_RULE_WORDING = ("must be an integer", "must be finite and > 0", "must be 1-D", "expected one of")


def test_input_rules_are_written_only_in_errors():
    """No module but errors raises the wording of an input rule (in a
    string constant or an f-string part), so a hand-written copy of a rule
    cannot return unnoticed."""
    copies = []
    for path in sorted((ROOT / "src" / "meadjust").glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                for part in ast.walk(node):
                    if isinstance(part, ast.Constant) and isinstance(part.value, str):
                        if any(wording in part.value for wording in _RULE_WORDING):
                            copies.append((path.name, node.lineno, part.value))
    assert copies == []
