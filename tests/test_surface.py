"""Public-surface guard: every public name in the package has a reader.

A public top-level function or class of ``src/heliumdot`` must be read, as a
``Name`` or an ``Attribute``, somewhere in the package or in the acceptance
criteria; a public method, property or annotated class field must be read as
an ``Attribute``.  Imports and ``__all__`` strings do not count as reads, and
neither do the package's own unit tests: a name only its unit test reaches
is a name no command uses.  The package module itself re-exports nothing,
and only three helpers open files.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heliumdot"
READERS = sorted(PACKAGE.glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]

# (owner, name) pairs kept without a reader, each with its reason.
ALLOWED = {
    ("EigenSolution", "states"): "the orthonormality of the states is the "
                                 "eigensolver's own quality check",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions():
    """(module, owner, name, kind) for every public top-level function and
    class, and every public method, property and annotated field of a public
    class; owner is None at module level."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
                yield path.stem, None, node.name, "top"
            if not (isinstance(node, ast.ClassDef) and _public(node.name)):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    yield path.stem, node.name, item.name, "member"
                elif (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                      and _public(item.target.id)):
                    yield path.stem, node.name, item.target.id, "member"


def _reads():
    """Names read as a Name, and attribute names read as an Attribute."""
    names, attrs = set(), set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    return names, attrs


def test_every_public_name_has_a_reader():
    names, attrs = _reads()
    definitions = list(_definitions())
    assert set(ALLOWED) <= {(owner, name) for _m, owner, name, _k in definitions}
    unread = []
    for module, owner, name, kind in definitions:
        if (owner, name) in ALLOWED:
            continue
        read = name in attrs if kind == "member" else (name in names or name in attrs)
        if not read:
            unread.append(f"{module}.{owner + '.' if owner else ''}{name}")
    assert not unread, "public names nothing reads: " + ", ".join(sorted(unread))


def test_one_way_in_and_out():
    """The package module re-exports nothing, and the builtin ``open`` is
    called only by the JSON-object reader, the text writer and the CSV row
    scanner, so each file-format decision has one home."""
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    for node in ast.walk(init):
        assert not isinstance(node, (ast.Import, ast.ImportFrom)), "__init__ imports"
        assert not (isinstance(node, ast.Name) and node.id == "__all__"), "__init__ has __all__"
    openers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "open"):
                    openers.add(f"{path.stem}.{owner}")
    assert openers == {"core.read_json_object", "io.write_text", "io._rows"}
