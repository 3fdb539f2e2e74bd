"""The package functions that no module under src/ calls or reads, and the
places under src/ that call the Fraction twins."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "subnormforge"

# Each is API that bench/spans.py wraps by name, so it is kept: a traced
# bench run fails when a wrapped name is gone.  pseudo_inverse, the closed
# form of f's pseudo-inverse, is also the tests' reference for the scan of
# f's pieces that every operation reads finv by.
KEPT_FOR_THE_BENCH = ["arg_with_value", "f_at", "finv_at", "first_arg_above", "pseudo_inverse",
                      "pseudo_inverse_at", "side_limit", "t_power", "t_solve_x"]

# The Fraction twins: each builds its result as a Fraction (or an Approx)
# over an integer-pair kernel, which is what the package itself calls.
TWINS = {"eval_fn", "side_limit", "first_arg_above", "pseudo_inverse_at", "t_eval",
         "t_solve_x", "arg_with_value", "f_at", "finv_at", "f_eval"}

# The API edges that may call a twin, as (module, function): the calls of a
# function object and of an operation, the Fraction constructions, and the
# command-line commands (cli.py's cmd_* functions, matched by prefix).
API_EDGES = {("pwfn.py", "PiecewiseMonotoneFn.__call__"), ("generated.py", "GeneratedOp.__call__"),
             ("generated.py", "additive_generated"), ("tnorms.py", "t_power")}


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def unreached_functions() -> list:
    """(path, line, name) of the package's functions and methods, dunder
    methods aside, whose name no Name or Attribute node under src/ holds:
    the ast walk of the CI step "Unreached functions", so imports and
    __all__'s strings do not count."""
    defs, used = [], set()
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs.append((name, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [d for d in defs if d[2] not in used]


def twin_calls() -> list:
    """(path, line, caller, twin) of every call of a Fraction twin under
    src/, the caller being the qualified name of the innermost enclosing
    function (Class.method for a method), or "" at module level."""
    out = []

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, scope + [child.name])
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, scope + [child.name])
            else:
                if isinstance(child, ast.Call):
                    func = child.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if called in TWINS:
                        out.append((path, child.lineno, ".".join(scope), called))
                visit(child, path, scope)

    for name, tree in _trees():
        visit(tree, name, [])
    return out


def test_only_the_bench_wrapped_functions_are_unreached():
    assert sorted(name for _, _, name in unreached_functions()) == KEPT_FOR_THE_BENCH


def test_fraction_twins_are_called_only_at_the_api():
    calls = twin_calls()
    assert calls, "the walk finds the API edges' calls"
    outside = [c for c in calls if (c[0], c[2]) not in API_EDGES
               and not (c[0] == "cli.py" and c[2].startswith("cmd_"))]
    assert outside == []


# The function of classify.py that builds f's record of facts (``_Facts``),
# the only one that may evaluate f at 0 or 1.
FACTS_BUILDER = "_build_facts"


def _literal_point(args):
    """The point that the leading argument nodes `args` spell as two int
    literals, given apart, as one tuple or as a starred tuple; else None."""
    if args and isinstance(args[0], ast.Starred):
        args = [args[0].value]
    if args and isinstance(args[0], ast.Tuple):
        args = args[0].elts
    values = tuple(a.value for a in args[:2] if isinstance(a, ast.Constant))
    return values if len(values) == 2 else None


def _is_f(node) -> bool:
    """Whether the node is the name f or the attribute op.f."""
    return ((isinstance(node, ast.Name) and node.id == "f")
            or (isinstance(node, ast.Attribute) and node.attr == "f"
                and isinstance(node.value, ast.Name) and node.value.id == "op"))


def end_evaluations() -> list:
    """(function, line, call) of every call in classify.py that evaluates f
    at 0 or 1: ``f_pair`` given the literal (0, 1) or (1, 1), and
    ``eval_pair`` or ``limit_pair`` on f or op.f at 0/1 or 1/1.  The
    function is the top-level function that holds the call."""
    out = []
    tree = ast.parse((SRC / "classify.py").read_text(encoding="utf-8"))
    for top in tree.body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == "f_pair":
                point = _literal_point(node.args)
            elif called in ("eval_pair", "limit_pair") and node.args and _is_f(node.args[0]):
                point = _literal_point(node.args[1:])
            else:
                continue
            if point in ((0, 1), (1, 1)):
                out.append((getattr(top, "name", ""), node.lineno, called))
    return out


def test_only_the_record_builder_evaluates_f_at_its_ends():
    calls = end_evaluations()
    assert {c[0] for c in calls} == {FACTS_BUILDER}, calls
