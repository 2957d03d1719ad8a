"""Every function, method and module-level name in the package is reached
from the package.

An AST scan of src/deltavar: a definition counts as wired when some module
there names it (an Attribute, or a Name that is read rather than assigned,
anywhere in src/, calls and references alike) or when the package exports it
in __all__. A module-level name is one bound by an assignment at the top of
a module. Dunders are called or read by Python itself and are exempt. A
helper that only the tests use belongs in tests/.

The benchmark's tracer (perfbench/tracing.py) wraps package functions by
name, so each of its TARGETS must still resolve in the package.

A sigma's layout (`woodbury`, `is_diagonal`) is read only in covariance.py,
which owns it; everywhere else the quadratic form comes from
CovarianceEstimate.quadratic_forms.
"""
import ast
import importlib
from pathlib import Path

import deltavar

SRC = Path(deltavar.__file__).parent
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# Unreferenced in src/ but kept on purpose, with the reason.
ALLOWED = {
    "Tape.hessian": "perfbench/tracing.py wraps it by name as a traced layer",
    "mean_loglik_grad": "perfbench/tracing.py wraps it by name as a traced "
                        "layer",
    "maximum": "the tape's max primitive, for user-supplied fixed-point step "
               "callables like exp, log, tanh, sin and cos",
}


def _definitions(tree):
    """(qualified name, name) of every function and method in a module and
    of every name its top-level assignments bind."""
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id, name.id

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name, child.name
                yield from visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.")
            else:
                yield from visit(child, prefix)
    yield from visit(tree, "")


def _unwired():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    referenced = set(deltavar.__all__)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return {qualified: module
            for module, tree in trees.items()
            for qualified, name in _definitions(tree)
            if not (name.startswith("__") and name.endswith("__"))
            and name not in referenced}


def test_every_function_is_wired_or_allowed():
    unwired = _unwired()
    stray = sorted(f"{module}: {name}" for name, module in unwired.items()
                   if name not in ALLOWED)
    assert not stray, ("definitions nothing in src/ references; wire them, "
                       f"export them or move them to tests/: {stray}")


def test_allowlist_is_current():
    """Each allowed name still exists and is still unreferenced, so the list
    cannot outlive its reasons."""
    assert set(ALLOWED) <= set(_unwired())


def test_traced_targets_exist():
    """Read TARGETS from the tracer's source, importing nothing from
    perfbench/, and resolve each module and attribute in deltavar."""
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets
                        if isinstance(t, ast.Name)] == ["TARGETS"])
    missing = []
    for module_name, attr, _ in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert targets and not missing, (
        f"perfbench/tracing.py traces names the package lacks: {missing}")


LAYOUT_ATTRS = {"woodbury", "is_diagonal"}
# Functions outside covariance.py that read a sigma's layout, with the reason.
LAYOUT_READERS = {
    ("oracles.py", "gaussian_posterior_mc"):
        "posterior draws need a factor of sigma, not its quadratic form, "
        "and no factored draw exists yet (ROADMAP item 6)",
}


def _layout_reads():
    """(module, innermost enclosing function) of each attribute read, or
    string naming, of a layout attribute outside covariance.py."""
    reads = set()

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if ((isinstance(child, ast.Attribute)
                 and child.attr in LAYOUT_ATTRS)
                    or (isinstance(child, ast.Constant)
                        and child.value in LAYOUT_ATTRS)):
                reads.add((module, where))
            visit(child, module, where)

    for path in sorted(SRC.glob("*.py")):
        if path.name != "covariance.py":
            visit(ast.parse(path.read_text(), filename=str(path)), path.name,
                  "<module>")
    return reads


def test_only_covariance_reads_the_sigma_layout():
    """Outside covariance.py only the allowlisted functions read a sigma's
    layout, and each allowlisted one still does."""
    assert _layout_reads() == set(LAYOUT_READERS)
