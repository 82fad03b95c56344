"""The package's public names, and README.md's Library example run as
written, so neither can drift from the code."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import dacsim

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(dacsim.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_modules_all_resolves(name):
    module = importlib.import_module(f"dacsim.{name}")
    exported = getattr(module, "__all__", ())  # the command line declares none
    assert [n for n in exported if not hasattr(module, n)] == []


def test_every_package_export_resolves_to_its_modules_public_name():
    tree = ast.parse(Path(dacsim.__file__).read_text())
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imports
    for module, name in imports:
        assert getattr(dacsim, name) is getattr(importlib.import_module(f"dacsim.{module}"), name)
        assert name in importlib.import_module(f"dacsim.{module}").__all__, name


def test_readme_library_example_runs(capsys):
    section = (ROOT / "README.md").read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    tail, sign, cap = capsys.readouterr().out.split()
    assert sign == "<=" and float(tail) <= float(cap)
