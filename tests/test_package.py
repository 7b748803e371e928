import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "icosahedral"


def names_used(module):
    """The names the other modules of the package take from module: by
    ``from .module import name``, or as ``module.name`` after
    ``from . import module``."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.stem == module:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 \
                    and node.module == module:
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == module:
                used.add(node.attr)
    return used


@pytest.mark.parametrize("module", ["exact", "quintic", "localfield", "hecke",
                                    "repn", "icosa", "qcurve"])
def test_all_is_what_the_package_uses(module):
    # each domain module's __all__ names exactly what the rest of the
    # package uses of it, and none of those names is private
    used = names_used(module)
    exported = importlib.import_module(f"icosahedral.{module}").__all__
    assert sorted(exported) == sorted(used)
    assert not [name for name in used if name.startswith("_")]
