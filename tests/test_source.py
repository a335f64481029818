"""Source checks over src/restrictionlab: every parameter is read."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "restrictionlab"

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
