"""Every public name of ``simdistill`` has a caller outside the tests.

A public name is a function or class defined in a package module, or a
public method, property or staticmethod of such a class. Its callers are
the library itself, the demos and the acceptance gate; a name that only
tests use belongs in ``tests/oracles`` or in the test that needs it. A
re-export in ``__init__.py`` is an import, not a use.

The scan matches bare names, so it cannot see two kinds of dead surface:
a method that shares its name with a used one (numpy's ``sum`` and
``mean``, say), and dunders, which it skips.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import simdistill

ROOT = Path(__file__).resolve().parents[1]

# Deliberate entry points with no caller in the scanned files, each with its reason.
ALLOWED = {
    "nn.ModelPair.student_parameters":
        "bench/workloads.py builds eval-roundtrip's SgdState from it, and only a "
        "benchmark change may edit bench/",
}


def public_names() -> dict[str, str]:
    """Qualified name (``module.Class.member``) -> bare name, for every public
    definition of every package module."""
    names = {}
    for info in pkgutil.iter_modules(simdistill.__path__):
        module = importlib.import_module(f"simdistill.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                names[f"{info.name}.{name}"] = name
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and (
                            inspect.isfunction(member)
                            or isinstance(member, (staticmethod, classmethod, property))):
                        names[f"{info.name}.{name}.{attr}"] = attr
    return names


def used_names() -> set[str]:
    """Every ``Name`` and ``Attribute`` in the library, the demos and the gate."""
    files = [p for p in (ROOT / "src" / "simdistill").glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


class TestPublicSurface:
    def test_every_public_name_has_a_caller(self):
        names, used = public_names(), used_names()
        # a function, a class, a method, a property and a staticmethod are all collected
        for qualified in ("data.gen_gaussian_mixture", "bank.AnchorBank",
                          "bank.AnchorBank.enqueue", "augment.AugmentPolicy.is_identity",
                          "tensor.Tensor.parameter"):
            assert qualified in names
        uncalled = [q for q, name in names.items() if name not in used and q not in ALLOWED]
        assert sorted(uncalled) == []

    def test_allow_list_is_current(self):
        """Each entry names a definition that still exists and still has no
        caller, and gives a reason."""
        names, used = public_names(), used_names()
        for qualified, reason in ALLOWED.items():
            assert reason.strip(), qualified
            assert qualified in names, f"{qualified} no longer exists"
            assert names[qualified] not in used, f"{qualified} now has a caller"
