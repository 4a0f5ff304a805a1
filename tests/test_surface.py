"""Every public name of ``simdistill`` has a caller outside the tests, and
every field of a package dataclass has a reader.

A public name is a function or class defined in a package module, or a
public method, property or staticmethod of such a class. Its callers are
the library itself, the demos and the acceptance gate; a name that only
tests use belongs in ``tests/oracles`` or in the test that needs it. A
re-export in ``__init__.py`` is an import, not a use. A dataclass field is
read only where those files load an attribute of its name (``x.field``);
passing it to the constructor or assigning it is not a read.

The scan matches bare names, so it cannot see three kinds of dead surface:
a method that shares its name with a used one (numpy's ``sum`` and
``mean``, say, a ``Tensor.backward`` method, which the calls of the
module function ``tensor.backward`` would keep alive, or a ``Tensor.shape``
property, which every array's ``shape`` keeps alive), dunders, which it
skips, and a field that shares its name with an attribute read elsewhere
(an ``epoch`` field passes as long as ``Trainer.epoch`` or
``Checkpoint.epoch`` is read, whoever reads this one).
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import simdistill

ROOT = Path(__file__).resolve().parents[1]

# The package modules that may name ``Tensor``: a Tensor is a value the graph may
# differentiate, and every constant operand (teacher embeddings, positive keys,
# anchors, targets) is an array, so only the modules that build or run the graph
# need the class. ``__init__`` re-exports it.
TENSOR_MODULES = {"nn", "losses", "train", "evaluation", "__init__"}

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


def dataclass_fields() -> dict[str, str]:
    """Qualified name (``module.Class.field``) -> field name, for every field
    of every public dataclass of a package module."""
    names = {}
    for info in pkgutil.iter_modules(simdistill.__path__):
        module = importlib.import_module(f"simdistill.{info.name}")
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and dataclasses.is_dataclass(obj)
                    and not name.startswith("_") and obj.__module__ == module.__name__):
                for field in dataclasses.fields(obj):
                    names[f"{info.name}.{name}.{field.name}"] = field.name
    return names


def scanned_nodes():
    """Every AST node of the library, the demos and the gate."""
    files = [p for p in (ROOT / "src" / "simdistill").glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    for path in files:
        yield from ast.walk(ast.parse(path.read_text()))


def used_names() -> set[str]:
    """Every ``Name`` and ``Attribute`` in the library, the demos and the gate."""
    used = set()
    for node in scanned_nodes():
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def read_attributes() -> set[str]:
    """Every attribute the library, the demos and the gate load (``x.name``)."""
    return {node.attr for node in scanned_nodes()
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


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

    def test_every_dataclass_field_is_read(self):
        fields, read = dataclass_fields(), read_attributes()
        for qualified in ("train.StepMetrics.lr", "config.RunConfig.objective",
                          "nn.MlpSpec.layer_widths"):
            assert qualified in fields
        assert sorted(q for q, name in fields.items() if name not in read) == []

    def test_allow_list_is_current(self):
        """Each entry names a definition that still exists and still has no
        caller, and gives a reason."""
        names, used = public_names(), used_names()
        for qualified, reason in ALLOWED.items():
            assert reason.strip(), qualified
            assert qualified in names, f"{qualified} no longer exists"
            assert names[qualified] not in used, f"{qualified} now has a caller"


class TestTensorBoundary:
    def test_only_graph_modules_name_tensor(self):
        """No other package module imports ``Tensor`` or reads an attribute of that
        name (``T.Tensor``)."""
        users = set()
        for path in (ROOT / "src" / "simdistill").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.ImportFrom) and any(a.name == "Tensor" for a in node.names)
                        or isinstance(node, ast.Attribute) and node.attr == "Tensor"):
                    users.add(path.stem)
        assert "nn" in users    # the scan sees an import
        assert sorted(users - TENSOR_MODULES) == []
