"""Source checks over src/restrictionlab: the package exports its modules
and their exports, every parameter is read, every export is used, and every
field is read."""

import ast
import importlib
from pathlib import Path

import restrictionlab

SRC = Path(__file__).resolve().parent.parent / "src" / "restrictionlab"
TESTS = Path(__file__).resolve().parent

# the modules the package re-exports: all but the command line
PACKAGE_MODULES = (
    "bumps", "grids", "measures", "lorentz", "exponents", "operators",
    "knapp", "oscillatory", "fitting", "reporting", "acceptance",
)


def test_package_exports_its_modules_and_their_exports():
    # each module's __all__ is the one list of its exports: the package
    # exports the modules and the union of those lists, sorted, each name
    # bound to the module's own object
    modules = {name: importlib.import_module("restrictionlab." + name) for name in PACKAGE_MODULES}
    declared = {name: module for module in modules.values() for name in module.__all__}
    assert restrictionlab.__all__ == sorted({**modules, **declared})
    for name, module in declared.items():
        assert getattr(restrictionlab, name) is getattr(module, name), name
    for name, module in modules.items():
        assert getattr(restrictionlab, name) is module


# (module, qualified name, parameter) of the callables whose signature an
# interface fixes: CRITERIA passes every criterion a seed, and every scaling
# family is called with lambda, which the constant family does not need
INTERFACE_BOUND = {
    ("acceptance", "criterion_2", "seed"),
    ("acceptance", "criterion_11", "seed"),
    ("oscillatory", "constant_family.family", "lam"),
}


def _unread_parameters():
    unread = set()

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                args = child.args
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
                body = child.body if isinstance(child.body, list) else [child.body]
                # reads in nested functions count: a closure reads the parameter
                read = {
                    n.id
                    for stmt in body
                    for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                unread.update((module, name, p) for p in params if p not in read)
                visit(child, module, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, prefix + child.name + ".")
            else:
                visit(child, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return unread


def test_every_parameter_is_read():
    # a parameter no body reads is an option that does nothing; only the
    # interface-bound signatures above may keep one
    assert _unread_parameters() == INTERFACE_BOUND


# the oracles that tests compare the fast paths against: exported for the
# tests alone, and kept on purpose
TEST_ORACLES = {
    ("grids", "fourier_on_grid"),
    ("oscillatory", "apply_T_lambda"),
    ("oscillatory", "derivative_consistency"),
}


def _names_used(tree, skip=None):
    # names loaded and attributes read anywhere in tree, except inside the
    # function or class named skip
    used = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if child.name == skip:
                    continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                used.add(child.id)
            elif isinstance(child, ast.Attribute):
                used.add(child.attr)
            visit(child)

    visit(tree)
    return used


def _unused_exports():
    # __init__ re-exports every name, so its imports do not count as a use
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
    }
    unused = set()
    for module, tree in trees.items():
        exports = [
            elt.value
            for node in tree.body
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for elt in node.value.elts
        ]
        elsewhere = set().union(*(_names_used(t) for m, t in trees.items() if m != module))
        for name in exports:
            if name not in elsewhere and name not in _names_used(tree, skip=name):
                unused.add((module, name))
    return unused


def test_every_export_is_used():
    # an export that only its own unit tests call is code kept for nothing;
    # only the test oracles above may be one
    assert _unused_exports() == TEST_ORACLES


def _is_record(node):
    # a dataclass (bare or called decorator) or a NamedTuple subclass
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(getattr(d, "id", None) == "dataclass" for d in decorators) or any(
        getattr(b, "id", None) == "NamedTuple" for b in node.bases
    )


def _unread_fields():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    fields = {
        (path.stem, node.name, stmt.target.id)
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and _is_record(node)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }
    trees.update((path, ast.parse(path.read_text(encoding="utf-8"))) for path in sorted(TESTS.glob("*.py")))
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return {field for field in fields if field[2] not in read}


def test_every_field_is_read():
    # a field that nothing reads is state kept for nothing, and a caller can
    # set it to disagree with the fields that are read
    assert _unread_fields() == set()
