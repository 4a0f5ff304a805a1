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
``mean``, say, a ``backward`` method, which the calls of the module
function ``train.backward`` would keep alive, or a ``shape`` property,
which every array's ``shape`` keeps alive), dunders, which it
skips, and a field that shares its name with an attribute read elsewhere
(an ``epoch`` field passes as long as ``Trainer.epoch`` or
``Checkpoint.epoch`` is read, whoever reads this one). An
``AugmentPolicy.name`` field that nothing read went unseen this way: every
``f.name`` that ``config.py`` reads off a ``dataclasses.Field`` kept it
alive.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import simdistill
from simdistill.config import RunConfig, apply_overrides
from simdistill.errors import ConfigError

ROOT = Path(__file__).resolve().parents[1]

# The pieces of a general autodiff tape. A training step's backward is three
# closed-form vjps on arrays, so no package module builds or walks a graph; the
# tape lives on in tests/oracles/tape.py for the per-op oracles.
TAPE_NAMES = {"Tensor", "_record", "parents", "requires_grad", "zero_grad", "mul",
              "tensor_sum"}

# Deliberate entry points with no caller in the scanned files, each with its reason.
ALLOWED = {
    "nn.ModelPair.student_parameters":
        "bench/workloads.py builds eval-roundtrip's SgdState from it, and only a "
        "benchmark change may edit bench/",
}


# RunConfig fields that no scanned caller sets, each with its reason.
_BENCH_READS = ("read by bench/workloads.py eval_reference, and only a benchmark "
                "change may edit bench/")
UNSET_FIELDS = {
    "eval_k": _BENCH_READS,
    "probe_epochs": _BENCH_READS,
    "probe_lr": _BENCH_READS,
    "recall_ks": _BENCH_READS,
    "data_train": "a file path: each run names its own corpus",
    "data_eval": "a file path: each run names its own corpus",
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
                          "nn.SgdState.for_params"):
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


def tape_names_in(path: Path) -> set[str]:
    """The ``TAPE_NAMES`` that a file defines, imports, assigns or reads."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found |= TAPE_NAMES.intersection(names)
    return found


def _literal_equal(node: ast.AST, value) -> bool:
    try:
        return ast.literal_eval(node) == value
    except ValueError:
        return False


def fields_set_in(nodes) -> set[str]:
    """The ``RunConfig`` fields that ``nodes`` set to a value other than a literal
    equal to the default: as a keyword of ``RunConfig(...)``, ``replace(...)`` or
    ``TrainConfig(...)``, or as a ``"field=value"`` string such as a ``--set``
    argument. A string whose value does not parse, like a message's ``"eval_k="``,
    sets nothing."""
    defaults = RunConfig()
    names = {f.name for f in dataclasses.fields(RunConfig)}
    found = set()
    for node in nodes:
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if callee in ("RunConfig", "replace", "TrainConfig"):
                found |= {kw.arg for kw in node.keywords if kw.arg in names
                          and not _literal_equal(kw.value, getattr(defaults, kw.arg))}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            key, equals, _ = node.value.partition("=")
            if key in names and equals:
                try:
                    value = getattr(apply_overrides(defaults, [node.value]), key)
                except ConfigError:
                    continue
                if value != getattr(defaults, key):
                    found.add(key)
    return found


class TestEveryOptionIsUsed:
    def test_the_scan_sees_each_kind_of_setting(self):
        source = ("RunConfig(lr=0.01, epochs=3)\nreplace(cfg, seed_data=n + 1)\n"
                  "sd.TrainConfig(objective='isd', momentum=(0.5))\n"
                  "['--set', 'batch_size=8', 'data_dim=32', 'eval_k=', 'x=1']\n")
        assert fields_set_in(ast.walk(ast.parse(source))) == {
            "epochs", "seed_data", "momentum", "batch_size"}

    def test_every_config_field_is_set_by_a_caller(self):
        """A field that no caller outside the tests sets is a constant, not an option."""
        unset = {f.name for f in dataclasses.fields(RunConfig)} - fields_set_in(scanned_nodes())
        assert sorted(unset - set(UNSET_FIELDS)) == []

    def test_unset_allow_list_is_current(self):
        """Each entry names a field that still exists and is still unset, and gives a reason."""
        names = {f.name for f in dataclasses.fields(RunConfig)}
        found = fields_set_in(scanned_nodes())
        for name, reason in UNSET_FIELDS.items():
            assert reason.strip(), name
            assert name in names, f"{name} is no longer a field"
            assert name not in found, f"{name} now has a caller that sets it"


class TestNoGraph:
    def test_no_package_module_builds_or_walks_a_graph(self):
        """No package module defines, imports or uses a piece of the tape."""
        assert tape_names_in(ROOT / "tests" / "oracles" / "tape.py") == TAPE_NAMES
        users = {path.stem: names for path in (ROOT / "src" / "simdistill").glob("*.py")
                 if (names := tape_names_in(path))}
        assert users == {}


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports and never reads, in import order.

    ``import a.b`` binds ``a``. A name listed in the module's ``__all__`` is
    a re-export, and ``from __future__`` imports are compiler directives, so
    neither counts.
    """
    tree = ast.parse(source)
    imported, exported = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read and name not in exported]


class TestImports:
    def test_the_scan_sees_each_kind_of_import(self):
        source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
                  "from a import b, c as d\nfrom e import f\n__all__ = ['f']\nd(np)\n")
        assert unused_imports(source) == ["os", "b"]

    def test_no_file_imports_a_name_it_does_not_use(self):
        files = sorted(p for top in ("src", "tests", "demos") for p in (ROOT / top).rglob("*.py"))
        assert ROOT / "tests" / "oracles" / "mlp_graph.py" in files
        unused = {str(p.relative_to(ROOT)): names for p in files
                  if (names := unused_imports(p.read_text()))}
        assert unused == {}
