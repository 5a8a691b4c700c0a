"""Every imported name in the package and the tests is used.

An AST scan: a name bound by ``import`` or ``from ... import`` counts as
used when the module reads it anywhere (a bare name, the root of an
attribute chain, a decorator or an annotation).  The package
``__init__.py`` is skipped, since its imports are the public re-exports.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(
    p for p in [*(ROOT / "src" / "relqft").glob("*.py"),
                *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py")

#: Imports that are kept although the module never reads them, with the
#: reason.  ``net.born_measure`` is read through the module attribute by
#: ``perfbench/test_perfbench.py``, which checks that the tracer rebinds
#: every ``relqft.*`` binding of a function and restores it afterwards.
ALLOWED = {("src/relqft/net.py", "born_measure")}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module, at any depth."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("path", MODULES,
                         ids=[p.relative_to(ROOT).as_posix() for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = read_names(tree)
    rel = path.relative_to(ROOT).as_posix()
    unused = [f"{rel}:{line}: {name}"
              for name, line in imported_names(tree).items()
              if name not in used and (rel, name) not in ALLOWED]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_allowed_imports_are_still_unused():
    # an allowance that no longer applies must be removed, not kept
    for rel, name in ALLOWED:
        tree = ast.parse((ROOT / rel).read_text(encoding="utf-8"))
        assert name in imported_names(tree)
        assert name not in read_names(tree)
