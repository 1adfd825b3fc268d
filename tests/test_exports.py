import ast
import importlib
import pathlib
import pkgutil

import ezcasp


def _modules():
    yield ezcasp
    for info in pkgutil.iter_modules(ezcasp.__path__):
        if info.name != "__main__":         # importing it runs the CLI
            yield importlib.import_module(f"ezcasp.{info.name}")


def test_every_exported_name_resolves():
    checked = set()
    for mod in _modules():
        names = getattr(mod, "__all__", None)
        if names is None:
            continue
        assert len(set(names)) == len(names), mod.__name__
        missing = [n for n in names if not hasattr(mod, n)]
        assert not missing, (mod.__name__, missing)
        checked.add(mod.__name__)
    assert {"ezcasp", "ezcasp.engine", "ezcasp.fd", "ezcasp.cli"} <= checked


SRC = pathlib.Path(ezcasp.__file__).resolve().parent


def _annotation_names(node):
    """The names of node's string annotations, parsed as expressions."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                out |= _loaded_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return out


def _loaded_names(tree):
    """Every name that tree reads, the string annotations' included."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in (
                args.posonlyargs + args.args + args.kwonlyargs
                + [args.vararg, args.kwarg]) if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for a in annotations:
            if a is not None:
                out |= _annotation_names(a)
    return out


def _imported_from(trees):
    """For each module, the names that the other modules import from it or
    read as its attributes."""
    out = {name: set() for name in trees}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and \
                    node.module in out:
                out[node.module] |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and node.value.id in out:
                out[node.value.id].add(node.attr)
    return out


def _dead_names(tree, used_elsewhere):
    """The module-level private names that tree defines and that neither it
    nor another module reads, and the names it imports and never reads;
    names in `__all__` count as read."""
    used = _loaded_names(tree)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    dead = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            defined = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            defined = []
        dead += [n for n in defined
                 if n.startswith("_") and not n.startswith("__")
                 and n not in used and n not in used_elsewhere]
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    dead.append(name)
    return dead


def test_no_dead_private_or_imported_names():
    # the project depends on no linter; this is the part of one that keeps
    # dead code out
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    elsewhere = _imported_from(trees)
    dead = {name: _dead_names(tree, elsewhere[name])
            for name, tree in trees.items()}
    assert {name: d for name, d in dead.items() if d} == {}


def test_every_public_name_is_used_or_exported():
    # code that only the tests run belongs in tests/: each public top-level
    # function or class is imported by another module of the package, read
    # outside its own definition, or exported by `ezcasp` (under its own
    # name or an alias)
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    imported = _imported_from(trees)
    exported = {alias.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names
                if (alias.asname or alias.name) in ezcasp.__all__}
    statements = [(node, _loaded_names(node))
                  for tree in trees.values() for node in tree.body]
    unused = [f"{name}.{node.name}" for name, tree in trees.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef))
              and not node.name.startswith("_")
              and node.name not in imported[name] | exported
              and not any(node.name in names for other, names in statements
                          if other is not node)]
    assert unused == []
