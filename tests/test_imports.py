"""Every name a module imports is used somewhere in that module, every import
sits at module level, and every function, class and method is used outside
the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "minvec"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# Definitions whose only callers are tests, each the reference side of a check.
TEST_ONLY = {
    "lambda_prime": "exact per-m oracle for the vectorized lambda_prime_fast",
    "kernel_peak_ratio": "sup of the normalized kernel, checked against h(pi_inf)",
    "CoefficientSource.check_ramanujan": "bound check on the coefficient models",
    "reassemble_B1T": "inverse of decompose_B1T for its round-trip test",
}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import (`import a.b` binds `a`)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_at_module_level(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    top = {id(node) for node in tree.body}
    nested = sorted(node.lineno for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top)
    assert not nested, f"{path.name}: imports below module level at lines {nested}"


def _definitions() -> dict[str, str]:
    """Qualified name -> bare name of every module-level function and class in
    MODULES and of every method but the dunders."""
    out = {}
    for path in MODULES:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out[node.name] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        out[f"{node.name}.{item.name}"] = item.name
    return out


def _references() -> set[str]:
    """Every Name, Attribute and import alias in MODULES, demos/ and perfbench/
    (re-exports in __init__.py are not uses), plus each part of the dotted paths
    that perfbench/tracing.py's TIMED wraps by name."""
    files = [*MODULES, *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    out = set()
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name)
            elif (path.name == "tracing.py" and isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "TIMED" for t in node.targets)):
                for entry in node.value.elts:
                    out.update(entry.elts[2].value.split("."))
    return out


def test_every_definition_is_used_outside_tests():
    defined, used = _definitions(), _references()
    dead = sorted(q for q, name in defined.items() if name not in used and q not in TEST_ONLY)
    assert not dead, f"defined but used only by tests (or not at all): {dead}"
    stale = sorted(q for q in TEST_ONLY if q not in defined or defined[q] in used)
    assert not stale, f"TEST_ONLY entries that are gone or now used outside tests: {stale}"
