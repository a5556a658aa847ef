"""Repository hygiene: the docs name live code, and every definition in
``src/`` has a caller outside the test suite.

- Every backticked dotted ``repro.…`` name in README.md, DESIGN.md and
  ``docs/*.md`` resolves by import plus ``getattr``, so no doc points at a
  deleted or renamed symbol.
- Every module-level ``def``/``class`` in a non-``__init__`` module under
  ``src/repro``, and every non-dunder method of a module-level class, is
  named, as a whole word, somewhere other than its own definition:
  elsewhere in its module, in another non-``__init__`` module, in
  ``benchmarks/``, ``perfbench/`` or ``examples/``, or in
  ``docs/api.md``. A module's ``__all__`` entry is an export, not a use.
  A helper only tests call belongs in ``tests/``.
"""

import ast
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_SPAN = re.compile(r"`([^`\n]+)`")
_DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")


def _doc_names():
    docs = [ROOT / "README.md", ROOT / "DESIGN.md"]
    docs += sorted((ROOT / "docs").glob("*.md"))
    for path in docs:
        text = _FENCE.sub("", path.read_text())
        for span in _SPAN.findall(text):
            for name in _DOTTED.findall(span):
                yield path.relative_to(ROOT).as_posix(), name


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        rest = parts[cut:]
        for i, attr in enumerate(rest):
            if hasattr(obj, attr):
                obj = getattr(obj, attr)
            # A dataclass field without a default lives on instances only.
            elif i < len(rest) - 1 or attr not in getattr(obj, "__dataclass_fields__", {}):
                return False
        return True
    return False


def test_doc_symbols_resolve():
    refs = list(_doc_names())
    assert refs, "no backticked repro.* names found in the docs"
    missing = sorted({f"{doc}: {name}" for doc, name in refs if not _resolves(name)})
    assert not missing, "docs name symbols that do not resolve:\n" + "\n".join(missing)


def _without_all(text):
    """``text`` minus its ``__all__`` assignment: an export is not a use."""
    lines = text.splitlines()
    for node in ast.parse(text).body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            lines[node.lineno - 1 : node.end_lineno] = []
    return "\n".join(lines)


def test_no_test_only_definitions_in_src():
    modules = {
        p: p.read_text() for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"
    }
    uses = {p: _without_all(t) for p, t in modules.items()}
    outside = [ROOT / "docs" / "api.md"]
    for sub in ("benchmarks", "perfbench", "examples"):
        outside += sorted((ROOT / sub).rglob("*.py"))
    outside_text = "\n".join(p.read_text() for p in outside)

    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = []
    for path, text in modules.items():
        nodes = [n for n in ast.parse(text).body if isinstance(n, defs)]
        nodes += [
            m
            for n in nodes
            if isinstance(n, ast.ClassDef)
            for m in n.body
            if isinstance(m, defs[:2]) and not re.fullmatch(r"__\w+__", m.name)
        ]
        for node in nodes:
            word = re.compile(rf"\b{node.name}\b")
            used = (
                len(word.findall(uses[path])) > 1
                or word.search(outside_text)
                or any(word.search(t) for p, t in uses.items() if p != path)
            )
            if not used:
                unused.append(f"{path.relative_to(ROOT).as_posix()}: {node.name}")
    assert not unused, (
        "definitions with no caller outside tests/ "
        "(move them into tests/ or delete them):\n" + "\n".join(unused)
    )
