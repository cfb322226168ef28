"""Public-surface guard: every public name in the package has a reader.

A public top-level function or class of ``src/heliumdot`` must be read, as a
``Name`` or an ``Attribute``, somewhere in the package or in the acceptance
criteria.  A public method, property or annotated class field must be read
as an ``Attribute`` of its own class: the receiver of each read is resolved
from ``self``, from parameter and variable annotations, from dataclass field
and property annotations, and from the return annotations of package
functions, methods and constructors; a ``for`` loop over a ``Sequence[X]``
or ``list[X]`` binds its variable to X.  A read counts for the class's bases
and subclasses too.  Only where the receiver cannot be resolved (a tuple
loop target, a subscript) does the read count for every member of that name.
Imports and ``__all__`` strings do not count as reads, and neither do the
package's own unit tests: a name only its unit test reaches is a name no
command uses.  The package module itself re-exports nothing, and only three
helpers open files.  No function takes both a field, which carries its
physical constants, and a second ``constants`` argument.  Frequencies are
angular inside the package: outside ``io`` and ``cli`` no name of a public
function, a parameter or a class field ends in a cyclic unit, and only
``core`` binds the rad/s-per-GHz and rad/s-per-MHz constants.
"""

from __future__ import annotations

import ast
import importlib
import math
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heliumdot"
READERS = sorted(PACKAGE.glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]

# (owner, name) pairs kept without a reader, each with its reason; an entry
# that has a reader fails the guard, so the list holds only what it needs.
ALLOWED: dict = {
    ("EigenSolution", "states"): "the eigenfunctions, for library callers; no command "
                                 "writes them since the sweep's warm start went",
    ("EigenSolution", "path"): "names the solver taken for callers and tests, and is kept "
                               "out of every output file",
    (None, "total_energy"): "the public energy model: the reference the descent's fused "
                            "query is tested against, bit for bit, and a traced layer",
    (None, "total_gradient"): "the public gradient of total_energy: the reference the "
                              "descent's fused query is tested against, bit for bit",
}

# A receiver type is ("inst", classes), ("class", name), ("module", stem),
# ("func", return annotation), ("seq", element type), EXTERNAL for anything
# outside the package, or None when it cannot be resolved.
EXTERNAL = ("external", None)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_SEQUENCES = {"Sequence", "list"}


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


def _class_index():
    """(bases, member name -> ("func" or "field", annotation)) per class."""
    classes = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef):
                continue
            members = {}
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    prop = any(getattr(d, "id", None) == "property" for d in item.decorator_list)
                    members[item.name] = ("field" if prop else "func", item.returns)
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    members[item.target.id] = ("field", item.annotation)
                elif isinstance(item, ast.Assign):
                    members.update((t.id, ("field", None)) for t in item.targets
                                   if isinstance(t, ast.Name))
            bases = [getattr(b, "id", getattr(b, "attr", None)) for b in node.bases]
            classes[node.name] = (bases, members)
    return classes


CLASSES = _class_index()


def _annotation(node):
    """The type an annotation names; ``X | None`` names X, and
    ``Sequence[X]`` or ``list[X]`` a sequence of X."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    if (isinstance(node, ast.Subscript)
            and getattr(node.value, "id", getattr(node.value, "attr", None)) in _SEQUENCES):
        return ("seq", _annotation(node.slice))
    parts, names = [node], set()
    while parts:
        part = parts.pop()
        if isinstance(part, ast.BinOp) and isinstance(part.op, ast.BitOr):
            parts += [part.left, part.right]
        elif not (isinstance(part, ast.Constant) and part.value is None):
            names.add(part.id if isinstance(part, ast.Name)
                      else part.attr if isinstance(part, ast.Attribute) else None)
    if names and names <= set(CLASSES):
        return ("inst", frozenset(names))
    return EXTERNAL if not names & set(CLASSES) else None


def _member_type(cls: str, attr: str):
    bases, members = CLASSES[cls]
    if attr in members:
        kind, ann = members[attr]
        return ("func", ann) if kind == "func" else _annotation(ann)
    found = {_member_type(b, attr) for b in bases if b in CLASSES} - {None}
    return found.pop() if len(found) == 1 else None


def _type(node, scope):
    if isinstance(node, ast.Name):
        return scope.lookup(node.id)
    if isinstance(node, ast.Constant):
        return EXTERNAL
    if isinstance(node, ast.Attribute):
        owner = _type(node.value, scope)
        if owner is None or owner == EXTERNAL:
            return owner
        if owner[0] == "seq":
            return EXTERNAL
        if owner[0] == "module":
            return MODULES[owner[1]].lookup(node.attr)
        if owner[0] in ("inst", "class"):
            found = {_member_type(c, node.attr) for c in _classes(owner)}
            return found.pop() if len(found) == 1 else None
    if isinstance(node, ast.Call):
        func = _type(node.func, scope)
        if func is not None and func[0] == "class":
            return ("inst", frozenset({func[1]}))
        if func is not None and func[0] == "func":
            return _annotation(func[1])
    return None


def _classes(owner) -> frozenset:
    return owner[1] if owner[0] == "inst" else frozenset({owner[1]})


class _Scope:
    """The name bindings of a module or function body.  A name bound more
    than once resolves only if every binding other than ``None`` gives the
    same type; a binding is an expression of this scope, a type,
    ("import", module, name), or ("item", expression) for a loop variable."""

    def __init__(self, parent, bindings):
        self.parent, self.bindings, self.types = parent, bindings, {}

    def lookup(self, name):
        if name not in self.bindings:
            return self.parent.lookup(name) if self.parent else None
        if name not in self.types:
            self.types[name] = None  # a name bound through itself stays unknown
            found = {self._resolve(b) for b in self.bindings[name]
                     if not (isinstance(b, ast.Constant) and b.value is None)}
            self.types[name] = found.pop() if len(found) == 1 else None
        return self.types[name]

    def _resolve(self, binding):
        if isinstance(binding, ast.AST):
            return _type(binding, self)
        if binding and binding[0] == "import":
            return MODULES[binding[1]].lookup(binding[2])
        if binding and binding[0] == "item":
            sequence = _type(binding[1], self)
            return sequence[1] if sequence and sequence[0] == "seq" else None
        return binding


def _own_nodes(roots):
    """The nodes of one scope; a nested function or class is yielded with its
    decorators, bases and defaults, but not its body."""
    stack = list(roots)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ast.ClassDef):
            stack += node.decorator_list + node.bases
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack += node.decorator_list + node.args.defaults
            stack += [d for d in node.args.kw_defaults if d]
        else:
            stack += ast.iter_child_nodes(node)


def _target_names(target):
    """The names an assignment target binds, not those it reads."""
    if isinstance(target, ast.Name):
        yield target
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)


def _import_types(node):
    """(name, binding) for each name an import binds."""
    ours = isinstance(node, ast.ImportFrom) and (
        node.level > 0 or (node.module or "").startswith("heliumdot"))
    stem = (node.module or "").rpartition(".")[2] if ours else None
    for alias in node.names:
        name = alias.asname or alias.name
        if not ours:
            yield name.split(".")[0], EXTERNAL
        elif stem in ("", "heliumdot"):
            yield name, ("module", alias.name) if alias.name in MODULES else None
        else:
            yield name, ("import", stem, alias.name)


def _bindings(nodes, owner=None, params=None):
    """Name -> list of bindings in a scope, starting from its parameters."""
    bound = {}
    for i, arg in enumerate(params or []):
        if i == 0 and owner in CLASSES:
            bound[arg.arg] = [("inst", frozenset({owner}))]
        else:
            bound[arg.arg] = [_annotation(arg.annotation)]
    for node in nodes:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            value = (_annotation(node.annotation) if isinstance(node, ast.AnnAssign)
                     else node.value if isinstance(node, (ast.Assign, ast.NamedExpr)) else None)
            for target in targets:
                for n in _target_names(target):
                    bound.setdefault(n.id, []).append(value if n is target else None)
        elif isinstance(node, (ast.For, ast.comprehension)) and isinstance(node.target, ast.Name):
            bound.setdefault(node.target.id, []).append(("item", node.iter))
        elif isinstance(node, (ast.For, ast.comprehension, ast.withitem)):
            target = node.optional_vars if isinstance(node, ast.withitem) else node.target
            for n in _target_names(target):
                bound.setdefault(n.id, []).append(None)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for name, type_ in _import_types(node):
                bound.setdefault(name, []).append(type_)
        elif isinstance(node, _SCOPES):
            kind = "class" if isinstance(node, ast.ClassDef) else "func"
            what = node.name if kind == "class" else node.returns
            bound.setdefault(node.name, []).append((kind, what))
        elif isinstance(node, ast.Lambda):
            for arg in node.args.args:
                bound.setdefault(arg.arg, []).append(None)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.setdefault(node.name, []).append(None)
    return bound


def _module_scope(path: Path) -> _Scope:
    body = ast.parse(path.read_text(encoding="utf-8")).body
    return _Scope(None, _bindings(_own_nodes(body)))


# filled in two steps, since binding an import asks which names are modules
MODULES = dict.fromkeys(path.stem for path in PACKAGE.glob("*.py"))
MODULES.update((path.stem, _module_scope(path)) for path in PACKAGE.glob("*.py"))


def _member_reads():
    """(class, member) pairs read on a resolved receiver, and the attribute
    names read on receivers that do not resolve."""
    reads, fallback = set(), set()

    def visit(roots, scope):
        for node in list(_own_nodes(roots)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                receiver = _type(node.value, scope)
                if receiver is None:
                    fallback.add(node.attr)
                elif receiver[0] in ("inst", "class"):
                    reads.update((c, node.attr) for c in _classes(receiver))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit_function(node, scope, None)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        visit_function(item, scope, node.name)

    def visit_function(node, scope, owner):
        args = node.args
        if any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list):
            owner = None
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a]
        visit(node.body, _Scope(scope, _bindings(_own_nodes(node.body), owner, params)))

    for path in READERS:
        body = ast.parse(path.read_text(encoding="utf-8")).body
        visit(body, MODULES.get(path.stem) or _module_scope(path))
    return reads, fallback


def _names_read():
    """Names read as a Name, and attribute names read as an Attribute."""
    names, attrs = set(), set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    return names, attrs


def _relatives(cls: str) -> set:
    """The class, its bases and its subclasses, transitively."""
    up, down = {cls}, {cls}
    for _ in CLASSES:  # no chain of bases is longer than the number of classes
        up |= {b for c in up for b in CLASSES[c][0] if b in CLASSES}
        down |= {c for c, (bases, _m) in CLASSES.items() if down & set(bases)}
    return up | down


def _unread_and_stale(allowed: dict):
    """The public names without a reader outside ``allowed``, and the entries
    of ``allowed`` that have one."""
    names, attrs = _names_read()
    reads, fallback = _member_reads()
    definitions = list(_definitions())
    assert set(allowed) <= {(owner, name) for _m, owner, name, _k in definitions}
    unread, stale = [], []
    for module, owner, name, kind in definitions:
        if kind == "member":
            read = name in fallback or any((c, name) in reads for c in _relatives(owner))
        else:
            read = name in names or name in attrs
        if read == ((owner, name) in allowed):
            (stale if read else unread).append(f"{module}.{owner + '.' if owner else ''}{name}")
    return sorted(unread), sorted(stale)


def test_every_public_name_has_a_reader():
    unread, stale = _unread_and_stale(ALLOWED)
    assert not unread, "public names nothing reads: " + ", ".join(unread)
    assert not stale, "ALLOWED entries that have a reader: " + ", ".join(stale)


def test_an_allowed_name_with_a_reader_is_stale():
    # cli._cmd_qsolve reads EigenSolution.residuals
    assert _unread_and_stale({**ALLOWED, ("EigenSolution", "residuals"): "test"}) == (
        [], ["qsolver.EigenSolution.residuals"])


def _annotation_names(node) -> set:
    """Every class name an annotation mentions, inside ``Callable[...]``,
    ``X | None`` or a string too."""
    if node is None:
        return set()
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    names = set()
    for part in ast.walk(node):
        if isinstance(part, ast.Name):
            names.add(part.id)
        elif isinstance(part, ast.Attribute):
            names.add(part.attr)
        elif isinstance(part, ast.Constant) and isinstance(part.value, str):
            names |= _annotation_names(part)
    return names


def _field_and_constants(sources: dict) -> list:
    """The functions of ``sources`` (stem -> text), public or private, that
    take a parameter annotated with a PotentialField class and also a
    ``constants`` parameter."""
    fields_ = _relatives("PotentialField")
    both = []
    for stem, text in sorted(sources.items()):
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if ("constants" in {a.arg for a in params}
                    and any(_annotation_names(a.annotation) & fields_ for a in params)):
                both.append(f"{stem}.{node.name}")
    return both


def test_no_function_takes_a_field_and_constants():
    """A field carries its physical constants; a function that took a second
    set beside it could solve one problem with two sets of constants."""
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in PACKAGE.glob("*.py")}
    both = _field_and_constants(sources)
    assert not both, "functions that take a field and constants: " + ", ".join(both)


def test_field_and_constants_guard_sees_wrapped_annotations():
    source = (
        "def a(field_: PotentialField, positions, constants=None): ...\n"
        "def _b(f: 'GriddedField | None', *, constants): ...\n"
        "def c(factory: Callable[[float], QuarticField], constants=None): ...\n"
        "def d(maps: CouplingMapSet, constants=None): ...\n"
        "def e(field_: PotentialField): ...\n"
    )
    assert _field_and_constants({"m": source}) == ["m.a", "m._b", "m.c"]


def test_every_name_the_bench_tracer_wraps_exists():
    """Each ``tracer.wrap(owner, "name", ...)`` of ``bench/layers.py`` names an
    attribute of a package module, or a method in a class's own ``__dict__``,
    so a deletion that would break the traced benchmark run fails here."""
    tree = ast.parse((ROOT / "bench" / "layers.py").read_text(encoding="utf-8"))
    wraps = [node.args[:2] for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "wrap"]
    assert wraps
    missing = []
    for owner, name in wraps:
        module = owner.value if isinstance(owner, ast.Attribute) else owner
        target = importlib.import_module(f"heliumdot.{module.id}")
        if isinstance(owner, ast.Attribute):
            target = getattr(target, owner.attr, None)
            found = isinstance(target, type) and name.value in vars(target)
        else:
            found = hasattr(target, name.value)
        if not found:
            missing.append(f"{ast.unparse(owner)}.{name.value}")
    assert not missing, "wrapped names the package lacks: " + ", ".join(missing)


def test_one_way_in_and_out():
    """The package module re-exports nothing, and the builtin ``open`` is
    called only by the JSON-object reader, the text writer and the CSV text
    reader, so each file-format decision has one home."""
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
    assert openers == {"core.read_json_object", "io.write_text", "io.read_text"}


def _third_party_imports() -> set:
    """Top-level modules the package imports anywhere, in a function body
    too, less the standard library and the package itself."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"heliumdot"}


def test_every_imported_package_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib", reason="tomllib is new in Python 3.11")
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                for dep in tomllib.loads(text)["project"]["dependencies"]}
    imported = _third_party_imports()
    assert imported >= {"numpy", "scipy", "orjson"}
    assert imported <= declared, f"imported but not declared: {sorted(imported - declared)}"


# the I/O boundary, where cyclic units are read and written
BOUNDARY = {"io", "cli"}
_CYCLIC_SUFFIXES = ("_hz", "_ghz", "_mhz")


def _cyclic_names(sources: dict) -> list:
    """Each public function, parameter (of any function) and class field of
    ``sources`` (stem -> text) whose name ends in a cyclic unit."""
    found = []
    for stem, text in sorted(sources.items()):
        for node in ast.walk(ast.parse(text)):
            names = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                params += [a for a in (args.vararg, args.kwarg) if a is not None]
                names = [node.name] if _public(node.name) else []
                names += [f"{node.name}({a.arg})" for a in params]
            elif isinstance(node, ast.ClassDef):
                names = [f"{node.name}.{item.target.id}" for item in node.body
                         if isinstance(item, ast.AnnAssign)
                         and isinstance(item.target, ast.Name)]
            found += [f"{stem}.{name}" for name in names
                      if name.rstrip(")").lower().endswith(_CYCLIC_SUFFIXES)]
    return found


def test_no_cyclic_unit_names_inside_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in PACKAGE.glob("*.py") if path.stem not in BOUNDARY}
    found = _cyclic_names(sources)
    assert not found, "cyclic-unit names outside io and cli: " + ", ".join(found)


def test_cyclic_name_guard_sees_functions_parameters_and_fields():
    source = (
        "def rate_mhz(x): ...\n"
        "def _private_ghz(f_hz, *, span_MHz=1.0, **_): ...\n"
        "class Row:\n"
        "    f01_hz: float\n"
        "    omega_01: float\n"
        "    def shift_ghz(self): ...\n"
    )
    assert _cyclic_names({"m": source}) == [
        "m.rate_mhz", "m._private_ghz(f_hz)", "m._private_ghz(span_MHz)",
        "m.Row.f01_hz", "m.shift_ghz",
    ]


_PER_GHZ_AND_MHZ = (1e9 * 2.0 * math.pi, 1e6 * 2.0 * math.pi)


def _product(node):
    """The value of a product of number literals, ``TWO_PI`` and ``math.pi``,
    or None for any other expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id == "TWO_PI":
        return 2.0 * math.pi
    if isinstance(node, ast.Attribute) and node.attr in ("pi", "TWO_PI"):
        return math.pi if node.attr == "pi" else 2.0 * math.pi
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        left, right = _product(node.left), _product(node.right)
        if left is not None and right is not None:
            return left * right
    return None


def _unit_bindings(sources: dict) -> list:
    """Each name of ``sources`` (stem -> text) bound to the rad/s in one GHz
    or one MHz, however the product is written."""
    found = []
    for stem, text in sorted(sources.items()):
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            value = _product(node.value)
            if value is not None and any(math.isclose(value, unit, rel_tol=1e-12)
                                         for unit in _PER_GHZ_AND_MHZ):
                found += [f"{stem}.{ast.unparse(t)}" for t in targets]
    return found


def test_only_core_binds_the_cyclic_unit_constants():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    core_source = sources.pop("core")
    found = _unit_bindings(sources)
    assert not found, "cyclic-unit constants bound outside core: " + ", ".join(found)
    assert _unit_bindings({"core": core_source}) == ["core.GHZ", "core.MHZ"]


def test_unit_binding_guard_sees_each_spelling():
    source = (
        "_GHZ = 1e9 * TWO_PI\n"
        "MHZ: float = TWO_PI * 1e6\n"
        "per_ghz = 2.0 * math.pi * 1e9\n"
        "def f():\n"
        "    w = 1e6 * core.TWO_PI\n"
        "two_pi = TWO_PI\n"
        "khz = 1e3 * TWO_PI\n"
        "ghz = 1e9 * TWO_PI * x\n"
    )
    assert _unit_bindings({"m": source}) == ["m._GHZ", "m.MHZ", "m.per_ghz", "m.w"]


def _unit_divisions(sources: dict) -> list:
    """Each division in ``sources`` (stem -> text) by the rad/s in one GHz or
    one MHz spelled as a chain of number literals, ``TWO_PI`` and ``math.pi``
    (``w / TWO_PI / 1e9``, ``w / (2 * math.pi * 1e6)``), where ``/ GHZ`` and
    ``/ MHZ`` belong: the two spellings differ in the last bit."""
    found = []
    for stem, text in sorted(sources.items()):
        for node in ast.walk(ast.parse(text)):
            divisor = 1.0
            while isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                factor = _product(node.right)
                if factor is None:
                    break
                divisor *= factor
                if any(math.isclose(divisor, unit, rel_tol=1e-12) for unit in _PER_GHZ_AND_MHZ):
                    found.append(f"{stem}:{node.lineno}")
                    break
                node = node.left
    return found


def test_cyclic_units_are_divided_out_by_the_core_constants():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    found = _unit_divisions(sources)
    assert not found, "conversions to GHz or MHz not spelled / GHZ or / MHZ: " + ", ".join(found)


def test_unit_division_guard_sees_each_spelling():
    source = (
        "a = w / TWO_PI / 1e9\n"
        "b = w / 1e6 / core.TWO_PI\n"
        "c = w / (2.0 * math.pi * 1e9)\n"
        "d = w / TWO_PI / 1e3 / 1e3\n"
        "e = w / GHZ\n"
        "f = w / TWO_PI\n"
        "g = w / TWO_PI / 1e3\n"
        "h = (w / TWO_PI) * 1e9\n"
    )
    assert _unit_divisions({"m": source}) == ["m:1", "m:2", "m:3", "m:4"]


def _json_encoders(sources: dict) -> list:
    """Each JSON encoder call of ``sources`` (stem -> text), ``json.dump``,
    ``json.dumps`` or ``orjson.dumps``, and each import of one of those names,
    as "stem.owner: encoder", the owner being the top-level definition."""
    found = []
    for stem, text in sorted(sources.items()):
        for top in ast.parse(text).body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id in ("json", "orjson")
                        and node.attr in ("dump", "dumps")):
                    found.append(f"{stem}.{owner}: {node.value.id}.{node.attr}")
                elif isinstance(node, ast.ImportFrom) and node.module in ("json", "orjson"):
                    found += [f"{stem}.{owner}: {node.module}.{alias.name}" for alias in node.names
                              if alias.name in ("dump", "dumps")]
    return found


def test_one_json_encoder():
    """orjson writes every JSON text, in ``io.json_text``; only the error
    line of ``cli.main`` keeps ``json.dumps``, whose ASCII escapes survive
    an undecodable argv byte in an exception message."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert _json_encoders(sources) == ["cli.main: json.dumps", "io.json_text: orjson.dumps"]


def test_json_encoder_guard_sees_each_spelling():
    source = (
        "import json, orjson\n"
        "from json import dump as write\n"
        "def save(x):\n"
        "    return json.dumps(x), orjson.dumps(x), json.loads(x)\n"
        "class Writer:\n"
        "    encode = staticmethod(orjson.dumps)\n"
    )
    assert _json_encoders({"m": source}) == [
        "m.<module>: json.dump", "m.save: json.dumps", "m.save: orjson.dumps",
        "m.Writer: orjson.dumps",
    ]
