"""Module layering of `src/toricdeg`: the library imports nothing outside
the standard library, every import points to a lower rank,
`polycore` alone implements term orders, `groebner` alone installs cached
reduced bases, every public name has a caller, and every dataclass field
has a reader.

Imports are read from the source with `ast`, including those inside
functions.  ROADMAP item 4 plans to move `weight_from_matrix`, which needs
Groebner bases, out of `intlat`, once the benchmark tracer no longer names
it there; `intlat` then no longer needs `groebner`.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "toricdeg"

RANK = {
    "polycore": 0,
    "groebner": 1,
    "intlat": 2,
    "toric": 3,
    "degeneration": 4,
    "momentmap": 4,
    "ioformats": 4,
    "fixtures": 5,
    "cli": 6,
}


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}


def _imported_modules(tree: ast.AST) -> set:
    """The toricdeg modules that `tree` imports, wherever the import is."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "toricdeg":
                continue
            parts = (node.module or "").split(".")
            path = parts[1:] if node.level == 0 else parts
            if path and path[0]:
                out.add(path[0])
            else:  # from . import groebner
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "toricdeg" and len(parts) > 1:
                    out.add(parts[1])
    return out


def _absolute_imports(node: ast.AST) -> list:
    """The top-level package names an absolute import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.split(".")[0]]
    return []


def test_library_imports_only_the_standard_library():
    # toricdeg runs on a bare interpreter; numpy and the test extras stay
    # in tests/ and bench/
    outside = sorted({(path.stem, name) for path in PACKAGE.glob("*.py")
                      for node in ast.walk(ast.parse(path.read_text(), str(path)))
                      for name in _absolute_imports(node)
                      if name != "toricdeg" and name not in sys.stdlib_module_names})
    assert outside == []


def test_every_module_has_a_rank():
    assert set(_trees()) == set(RANK)


def test_imports_point_down():
    upward = [(name, dep) for name, tree in _trees().items()
              for dep in sorted(_imported_modules(tree))
              if RANK[dep] >= RANK[name]]
    assert upward == []


def _subclasses_term_order(tree: ast.AST, cls: ast.ClassDef) -> bool:
    """Whether `cls` names TermOrder as a base, directly, as an attribute or
    under an alias it was imported by."""
    names = {"TermOrder"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname for alias in node.names
                         if alias.name == "TermOrder" and alias.asname)
    return any((isinstance(base, ast.Name) and base.id in names)
               or (isinstance(base, ast.Attribute) and base.attr == "TermOrder")
               for base in cls.bases)


def test_term_orders_live_in_polycore():
    subclasses = [(name, node.name) for name, tree in _trees().items()
                  if name != "polycore"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) and _subclasses_term_order(tree, node)]
    assert subclasses == []


def _writes_rgb_cache(node: ast.AST) -> bool:
    """Whether `node` stores to a `_rgb_cache` attribute, by assignment or
    by `setattr`."""
    if isinstance(node, ast.Attribute):
        return node.attr == "_rgb_cache" and isinstance(node.ctx, ast.Store)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "setattr" and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == "_rgb_cache")


def test_only_groebner_installs_bases():
    writers = [name for name, tree in _trees().items()
               if any(map(_writes_rgb_cache, ast.walk(tree)))]
    assert writers == ["groebner"]


# Documented entry points to the paper's objects that the library itself
# never calls: the Veronese re-grading of a value semigroup and the moment map.
NO_CALLER_NEEDED = {"veronese", "moment"}


def _public_definitions():
    """(path, qualified name, node) for each public module-level function or
    class of the package, and each public method of such a class."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            out.append((path, node.name, node))
            if isinstance(node, ast.ClassDef):
                out += [(path, f"{node.name}.{sub.name}", sub) for sub in node.body
                        if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")]
    return out


def _references() -> dict:
    """name -> [(path, line)] for every Name and Attribute in `src/` and
    `bench/`; an import alias is not a reference."""
    refs = {}
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((path, node.lineno))
    return refs


def test_every_public_name_has_a_caller():
    refs = _references()
    uncalled = [qualname for path, qualname, node in _public_definitions()
                if node.name not in NO_CALLER_NEEDED
                and not any(p != path or not node.lineno <= line <= node.end_lineno
                            for p, line in refs.get(node.name, ()))]
    assert uncalled == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any((isinstance(d, ast.Name) and d.id == "dataclass")
               or (isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
                   and d.func.id == "dataclass")
               for d in node.decorator_list)


def _attribute_reads() -> dict:
    """attribute name -> [(path, line)] for every `x.name` load in `src/` and
    `bench/`."""
    reads = {}
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append((path, node.lineno))
    return reads


def test_every_report_field_has_a_reader():
    # a field that nothing reads is work done for no caller
    reads = _attribute_reads()
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(cls, ast.ClassDef) or not _is_dataclass(cls):
                continue
            for field in cls.body:
                if not (isinstance(field, ast.AnnAssign)
                        and isinstance(field.target, ast.Name)):
                    continue
                name = field.target.id
                if not any(p != path or not cls.lineno <= line <= cls.end_lineno
                           for p, line in reads.get(name, ())):
                    unread.append(f"{cls.name}.{name}")
    assert unread == []
