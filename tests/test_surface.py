"""Every public function, class, method and property of wvsim has a caller in
the program or in the benchmark, so that no entry survives only for the
tests; every private top-level name is read outside its definition; and no
wvsim module imports a name it never reads.

The sources of `src/wvsim` and `perfbench` are parsed, not imported. A name
counts as used where it is imported from its wvsim module, read as an
attribute `module.name` of that module, or read as a bare name inside its own
module (other than at its definition). A method or property counts as used
where any attribute of that name is read, whatever the object.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wvsim"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def wvsim_module(node, path):
    """The wvsim module a `from ... import` takes names from ("wvsim" for the
    package itself), or None."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 1 and path.parent == PACKAGE:
            return node.module or "wvsim"
        if node.level == 0 and node.module and node.module.split(".")[0] == "wvsim":
            return node.module.split(".", 1)[1] if "." in node.module else "wvsim"
    return None


def public_definitions():
    """(module, name) of each public top-level function and class in wvsim."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                found.add((path.stem, node.name))
    return found


def uses(own_names=True):
    """(module, name) pairs read anywhere in the program or the benchmark;
    without `own_names`, a bare name inside its own module does not count."""
    used = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = path.stem if path.parent == PACKAGE else None
        aliases = {}  # local name -> wvsim module it is bound to
        for node in ast.walk(tree):
            module = wvsim_module(node, path)
            if module is None:
                continue
            for alias in node.names:
                if module == "wvsim":  # `from wvsim import pointer`
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    used.add((module, alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                used.add((aliases[node.value.id], node.attr))
            elif isinstance(node, ast.Name) and own is not None and own_names:
                used.add((own, node.id))
    return used


def test_every_public_entry_has_a_caller_outside_the_tests():
    assert sorted(public_definitions() - uses()) == []


def top_level_names(node):
    """The names a top-level statement defines or assigns."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_private_name_is_read_outside_its_definition():
    # a read in its own module outside the statement that defines it, or an
    # import or attribute read from another module of the program or benchmark
    elsewhere = uses(own_names=False)
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for statement in tree.body:
            inside = set(map(id, ast.walk(statement)))
            for name in top_level_names(statement):
                if not name.startswith("_") or name.startswith("__"):
                    continue
                read = any(isinstance(node, ast.Name) and node.id == name
                           and isinstance(node.ctx, ast.Load) and id(node) not in inside
                           for node in ast.walk(tree))
                if not read and (path.stem, name) not in elsewhere:
                    dead.append((path.name, name))
    assert sorted(dead) == []


def public_members():
    """(module, class, name) of each public method and property of a wvsim class."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                found.update((path.stem, node.name, item.name) for item in node.body
                             if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                             and not item.name.startswith("_"))
    return found


def test_every_public_method_and_property_has_a_caller_outside_the_tests():
    read = {node.attr for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)}
    assert sorted(m for m in public_members() if m[2] not in read) == []


def test_no_module_imports_a_name_it_never_reads():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}  # local name -> line of the import that binds it
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [(path.name, line, name) for name, line in bound.items() if name not in read]
    assert sorted(unread) == []


def global_statements(node, owner):
    """(owner, names) of each `global` statement under `node`, with the name
    of the innermost function or class that holds it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Global):
            yield owner, tuple(child.names)
        else:
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            yield from global_statements(child, child.name if inner else owner)


def test_the_one_hidden_state_is_the_shift_sweep_slot():
    # module state that a call rebinds is the last sweep `effective_shift_check`
    # reads; a second such cache would be a second thing to keep in step
    found = [(path.stem, *statement) for path in sorted(PACKAGE.glob("*.py"))
             for statement in global_statements(
                 ast.parse(path.read_text(encoding="utf-8")), None)]
    assert found == [("measurement", "shift_sweep", ("_sweep",))]
