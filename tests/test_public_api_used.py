"""Every public callable of the runtime has a user inside the runtime.

A public function, class or method in ``src/lieext`` must either be
exported from ``__init__.py`` (module-level names only) or be referenced by
name somewhere else in ``src/lieext``.  API that only the tests call is dead
weight: delete it, or move it into the test that needs it.

References are matched by name alone, whatever object they are read from,
so a method that shares its name with a used one (``Matrix.add`` beside
``Field.add``, say) passes unnoticed.

Likewise every parameter of a function or lambda in ``src/lieext``, other
than ``self`` and ``cls``, must be read somewhere in its body.
"""

import ast
import pathlib

SOURCE = pathlib.Path(__file__).parent.parent / "src" / "lieext"


def _definitions(tree):
    """(qualified name, bare name, module level) of each public def."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, True
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, False


def _references(node, enclosing=()):
    """(name read, names of the defs around the read) for every read."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        enclosing += (node.name,)
    elif isinstance(node, ast.Name):
        yield node.id, enclosing
    elif isinstance(node, ast.Attribute):
        yield node.attr, enclosing
    for child in ast.iter_child_nodes(node):
        yield from _references(child, enclosing)


def test_every_public_callable_is_exported_or_used():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted(SOURCE.glob("*.py"))}
    exported = {alias.asname or alias.name
                for node in trees.pop("__init__").body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    # A read inside a def of the same name (recursion, a class naming
    # itself) is not a use.
    used = {name for tree in trees.values()
            for name, enclosing in _references(tree) if name not in enclosing}
    unused = [f"{module}.{qualname}"
              for module, tree in trees.items()
              for qualname, name, module_level in _definitions(tree)
              if name not in used and not (module_level and name in exported)]
    assert not unused, f"public API with no user in src/lieext: {unused}"


def _unread_parameters(tree):
    """(function name, parameter) for each parameter its body never reads."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        body = node.body if isinstance(node, ast.FunctionDef) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for p in params:
            if p.arg not in ("self", "cls") and p.arg not in read:
                yield getattr(node, "name", "<lambda>"), p.arg


def test_every_parameter_is_read():
    unread = [f"{path.stem}.{name}({param})"
              for path in sorted(SOURCE.glob("*.py"))
              for name, param in _unread_parameters(
                  ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))]
    assert not unread, f"parameters their function never reads: {unread}"
