import ast
import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "icosahedral"


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


# the proofs beyond the *_mismatch functions whose data once came in by
# arguments that only tests set
_PROOFS = ["quintic.hyperelliptic_3adic", "qcurve._isogeny_identity",
           "dealer._cpus"]


def test_proofs_take_no_test_only_parameters():
    # a proof reads its data from its own module, which a mutation test
    # patches: no *_mismatch of a domain module, nor a proof of _PROOFS,
    # has a parameter with a default or a **kwargs to take a mutation
    proofs = [f"{module}.{name}"
              for module in ["exact", "quintic", "localfield", "hecke",
                             "repn", "icosa", "qcurve"]
              for name in vars(importlib.import_module(f"icosahedral.{module}"))
              if name.endswith("_mismatch")]
    # the count of proofs today, so that a lost proof shows
    assert len(proofs) >= 22
    for proof in proofs + _PROOFS:
        module, name = proof.split(".")
        function = getattr(importlib.import_module(f"icosahedral.{module}"),
                           name)
        params = inspect.signature(function).parameters.values()
        assert [p.name for p in params
                if p.default is not p.empty or p.kind is p.VAR_KEYWORD] \
            == [], proof


def readme_section(heading):
    """The text of README.md's section ``## heading``, up to the next."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(rf"^## {heading}\n(.*?)(?=^## |\Z)", readme,
                     re.M | re.S).group(1)


def test_claim_ledger_names_every_golden_check():
    # the ids that README's "What is checked" names are the ids of the
    # committed reports, so a check added, renamed or deleted must move
    # its ledger row
    named = set(re.findall(r"`([a-z-]+/[A-Za-z0-9-]+)`",
                           readme_section("What is checked")))
    golden = {check["id"]
              for name in ("verify_all.json", "table.json")
              for check in json.loads((ROOT / "tests" / "golden" / name)
                                      .read_text(encoding="utf-8"))["checks"]}
    assert len(golden) == 32
    assert named == golden


def test_layout_names_every_module():
    # README's Layout lists each module of the package but __init__.py
    listed = re.findall(r"^- `src/icosahedral/(\w+\.py)`",
                        readme_section("Layout"), re.M)
    modules = [path.name for path in PACKAGE.glob("*.py")
               if path.name != "__init__.py"]
    assert sorted(listed) == sorted(modules)
