"""Every exported name, and every function the benchmark tracer wraps, resolves;
no package module imports a name it never uses, caches a method it may not
or keys a module-level cache on a record."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
import sys
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import pytest

import isopencil
from isopencil.record import Record

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

MODULES = ["isopencil"] + [f"isopencil.{info.name}" for info in pkgutil.iter_modules(isopencil.__path__)]


def _resolve(module_name: str, path: str):
    obj = importlib.import_module(module_name)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_every_tracer_target_resolves(monkeypatch):
    # The tracer is only loaded, never installed, and no bytecode is written
    # beside it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = spec_from_file_location("perfbench_tracer", TRACER)
    tracer = module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(module, path) for module, path, *_ in tracer.SPANS + tracer.COUNTS] + [tracer.ENUMERATE]
    assert len(targets) >= 30
    unresolved = []
    for module_name, path in targets:
        try:
            _resolve(module_name, path)
        except AttributeError:
            unresolved.append((module_name, path))
    assert unresolved == []
    for module_name in tracer._MODULES:
        importlib.import_module(module_name)


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    sources = sorted(Path(isopencil.__file__).parent.glob("*.py"))
    assert len(sources) >= 15
    assert [entry for path in sources for entry in _unused_imports(path)] == []


def _is_cached(node) -> bool:
    """True for a function decorated with functools.cache or lru_cache."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name in ("cache", "lru_cache"):
            return True
    return False


def _cached_methods(path: Path) -> list[str]:
    """Class.method for every method decorated with functools.cache or lru_cache."""
    return [
        f"{path.name}:{node.lineno} {cls.name}.{node.name}"
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if _is_cached(node)
    ]


def _record_keyed_caches(path: Path, records: set[str]) -> list[str]:
    """Every module-level cached function with a parameter whose annotation
    names one of the record classes."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if not _is_cached(node):
            continue
        args = node.args
        for arg in args.posonlyargs + args.args + [args.vararg] + args.kwonlyargs + [args.kwarg]:
            if arg and arg.annotation and set(re.findall(r"\w+", ast.unparse(arg.annotation))) & records:
                found.append(f"{path.name}:{node.lineno} {node.name}({arg.arg})")
    return found


def _record_names() -> set[str]:
    """The names of the package's record classes, every module loaded."""
    for module_name in MODULES:
        importlib.import_module(module_name)
    return {cls.__name__ for cls in Record.__subclasses__() if cls.__module__.startswith("isopencil.")}


def test_only_the_interned_group_class_caches_methods():
    # A method cache keys on self and keeps every instance it saw alive.
    # Groups are interned and never freed, so only their methods may use one.
    # A module-level cache keyed on a record does the same to the records.
    sources = sorted(Path(isopencil.__file__).parent.glob("*.py"))
    cached = [entry for path in sources for entry in _cached_methods(path)]
    assert any(entry.endswith("FiniteAbelianGroup.automorphisms") for entry in cached)
    assert [entry for entry in cached if " FiniteAbelianGroup." not in entry] == []
    records = _record_names()
    assert {"CoverData", "Sandwich", "SurfaceSolution"} <= records
    assert [entry for path in sources for entry in _record_keyed_caches(path, records)] == []


def test_the_method_cache_scan_sees_every_decorator_spelling(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import functools\nfrom functools import cache, lru_cache\n"
        "class Cover:\n"
        "    @cache\n    def a(self): pass\n"
        "    @functools.lru_cache(maxsize=None)\n    def b(self): pass\n"
        "    @lru_cache\n    def c(self): pass\n"
        "    @property\n    def d(self): pass\n"
        "@cache\ndef e(): pass\n"
    )
    assert [entry.split(" ")[1] for entry in _cached_methods(path)] == ["Cover.a", "Cover.b", "Cover.c"]


def test_the_record_cache_scan_reads_every_parameter_annotation(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\ndef a(group: Group, cover: CoverData): pass\n"
        "@cache\ndef b(n: int, *, pair: 'PencilPair | None'): pass\n"
        "@cache\ndef c(*covers: tuple[CoverData, ...]): pass\n"
        "@cache\ndef d(group: Group, n: int): pass\n"
        "def e(cover: CoverData): pass\n"
        "class Holder:\n    @cache\n    def f(self, cover: CoverData): pass\n"
    )
    found = _record_keyed_caches(path, {"CoverData", "PencilPair"})
    assert [entry.split(" ")[1] for entry in found] == ["a(cover)", "b(pair)", "c(covers)"]
