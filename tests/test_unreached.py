"""The package functions that no module under src/ calls or reads."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "subnormforge"

# Each is kept because bench/spans.py wraps it by name, and a traced bench
# run fails when a wrapped name is gone.
KEPT_FOR_THE_BENCH = ["finv_at", "pseudo_inverse_at", "t_power"]


def unreached_functions() -> list:
    """(path, line, name) of the package's functions and methods, dunder
    methods aside, whose name no Name or Attribute node under src/ holds:
    the ast walk of the CI step "Unreached functions", so imports and
    __all__'s strings do not count."""
    defs, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs.append((path.name, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [d for d in defs if d[2] not in used]


def test_only_the_bench_wrapped_functions_are_unreached():
    assert sorted(name for _, _, name in unreached_functions()) == KEPT_FOR_THE_BENCH
