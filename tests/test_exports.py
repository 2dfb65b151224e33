"""Every exported name resolves: each module's __all__ and the names the
package's __init__ imports, so a stale export fails here rather than at a
user's import."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import permlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(permlab.__path__))


def test_the_package_has_its_modules():
    assert MODULES == ["cli", "families", "ffcore", "permcheck", "transform"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    mod = importlib.import_module(f"permlab.{name}")
    assert mod.__all__
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_only_names_the_module_defines(name):
    """No module re-exports another's names: each name in __all__ is bound
    by a def, a class or an assignment at the module's top level, not by an
    import."""
    mod = importlib.import_module(f"permlab.{name}")
    defined = set()
    for node in ast.parse(Path(mod.__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    assert [n for n in mod.__all__ if n not in defined] == []


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(permlab.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} == {
        "ffcore", "permcheck", "families", "transform"}
    for node in imports:
        mod = importlib.import_module(f"permlab.{node.module}")
        for alias in node.names:
            assert hasattr(mod, alias.name), (node.module, alias.name)
            assert hasattr(permlab, alias.asname or alias.name), alias.name


def test_the_scalar_evaluator_is_a_test_oracle_only():
    """The pointwise evaluator and the two map-shape builders live in
    tests/scalar_oracle.py: permcheck and the package export none of them."""
    from permlab import permcheck
    for name in ("evaluate", "_eval_terms", "make_fn_trinomial", "make_fn_delta"):
        assert not hasattr(permcheck, name) and not hasattr(permlab, name), name
    assert not hasattr(permcheck.FnSpec, "evaluate")
