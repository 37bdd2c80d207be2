"""Names that other code looks up by string or by position.

The benchmark's tracer (``perfbench/spans.py``) rebinds library functions
named in its ``TRACED`` table and wraps ``GridFunction.__init__``; the
packages list their public names in ``__all__``; the README shows a Python
quickstart.  None of these is checked by an import statement, so a rename or
a deletion would go unnoticed without the tests below.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

import metaplectic
import metaplectic.metaplectic_numeric
import metaplectic.probes
import metaplectic.symplectic_core
from metaplectic.metaplectic_numeric import GridFunction

ROOT = Path(__file__).resolve().parents[1]


def _load_spans():
    # loaded from its path, so that perfbench/ never enters sys.path (its
    # oracles.py would shadow the tests' own)
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("modname, attr", sorted(_load_spans().TRACED.values()))
def test_traced_names_resolve(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr))


def test_grid_function_init_takes_grid_and_values():
    assert list(inspect.signature(GridFunction.__init__).parameters) == ["self", "grid", "values"]


@pytest.mark.parametrize(
    "package",
    [
        metaplectic,
        metaplectic.metaplectic_numeric,
        metaplectic.symplectic_core,
        metaplectic.probes,
    ],
    ids=lambda package: package.__name__,
)
def test_all_entries_resolve(package):
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []


def test_readme_quickstart_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md quickstart", "exec"), {})
    # the printed digits depend on the BLAS build; only the run is checked
    assert capsys.readouterr().out.strip()
