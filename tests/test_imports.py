"""Every name a module imports is used somewhere in that module, every import
sits at module level, every function, class and method is used outside the
tests (a method sharing its name with another class's names its caller),
every dataclass field is read outside the tests, every parameter and
dataclass field with a default is set outside the tests, and no CLI
subcommand writes its own output."""

import ast
import math
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

# Methods whose bare name another class of MODULES also defines.  The guard
# sees a use of any one of them as a use of all, so each names the caller
# outside the tests, as 'module.function' or 'module.Class.method' of a file
# in _callers(), that reaches it; None marks a test reference in TEST_ONLY.
SHARED_METHODS = {
    "ThetaChar.value": "characters.MinimalVectorSpec.theta_at",
    "CoefficientSource.value": "global_whittaker.CoefficientSource.values_upto",
    "MinimalVectorSpec.build": "cli._build_mv",
    "ChiEvaluator.build": "characters.MinimalVectorSpec.chi_evaluator",
    "RamifiedData.build": "cli.cmd_scan_supnorm",
    "MinimalVectorSpec.p": "characters.chi_value",
    "Mat2Local.p": "matgroups._alpha_for",
    "ScanReport.as_dict": "cli.cmd_scan_supnorm",
    "QueReport.as_dict": "cli.cmd_que",
    "LocalElement.inverse": "matgroups.decompose_B1T",
    "UnitRoot.inverse": "global_whittaker.gamma_TD",
    "LocalElement.scale_by_power": "minimal.whittaker_closed",
    "Mat2Local.scale_by_power": "characters.chi_value",
    "WhittakerValue.to_complex": "global_whittaker.lambda_prime",
    "UnitRoot.to_complex": "minimal.matrix_coefficient",
    "LocalElement.one": "matgroups.a_mat",
    "UnitRoot.one": "global_whittaker.gamma_TD",
}

# Defaulted parameters that only tests set, each a deliberate test hook.
TEST_HOOKS = {
    "evaluate_phi.cutoff": "a short explicit tail, to trip the stability check",
    "evaluate_phi.check_stability": "doubles the cutoff to show the tail has converged",
    "bessel_K_imag.rel_tol": "a tighter tolerance, for the self-convergence checks",
    "whittaker_oracle.low": "an explicit window, to show the value does not depend on it",
    "main.argv": "CLI tests pass the argument list instead of sys.argv",
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


def _callers() -> list[Path]:
    """The code outside the tests: MODULES, demos/ and perfbench/."""
    return [*MODULES, *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]


def _references() -> tuple[set[str], set[str]]:
    """In _callers() (re-exports in __init__.py are not uses): every Name and
    import alias, and apart from them every Attribute plus each part of the
    dotted paths that perfbench/tracing.py's TIMED wraps by name."""
    names, attrs = set(), set()
    for path in _callers():
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif (path.name == "tracing.py" and isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "TIMED" for t in node.targets)):
                for entry in node.value.elts:
                    attrs.update(entry.elts[2].value.split("."))
    return names, attrs


def test_every_definition_is_used_outside_tests():
    # a method is reached only through an attribute (or a TIMED path), so a
    # local variable of the same name does not count as a use; a method in
    # SHARED_METHODS is used when it names a caller there
    defined, (names, attrs) = _definitions(), _references()

    def used(qual, name):
        if qual in SHARED_METHODS:
            return SHARED_METHODS[qual] is not None
        return name in attrs or ("." not in qual and name in names)

    dead = sorted(q for q, name in defined.items() if not used(q, name) and q not in TEST_ONLY)
    assert not dead, f"defined but used only by tests (or not at all): {dead}"
    stale = sorted(q for q in TEST_ONLY if q not in defined or used(q, defined[q]))
    assert not stale, f"TEST_ONLY entries that are gone or now used outside tests: {stale}"


def _functions() -> dict[str, ast.FunctionDef]:
    """'module.function' and 'module.Class.method' -> its node, for every
    function of the files in _callers()."""
    out = {}
    for path in _callers():
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef):
                out[f"{path.stem}.{node.name}"] = node
            elif isinstance(node, ast.ClassDef):
                out.update((f"{path.stem}.{node.name}.{item.name}", item) for item in node.body
                           if isinstance(item, ast.FunctionDef))
    return out


def test_shared_method_names_are_listed_with_their_callers():
    defined = _definitions()
    owners = {}
    for qual, name in defined.items():
        if "." in qual:
            owners.setdefault(name, []).append(qual)
    shared = {qual for quals in owners.values() if len(quals) > 1 for qual in quals}
    listed = set(SHARED_METHODS)
    assert shared == listed, (f"methods sharing a name with another class, unlisted: "
                              f"{sorted(shared - listed)}; no longer shared: {sorted(listed - shared)}")
    functions = _functions()
    for qual, caller in SHARED_METHODS.items():
        if caller is None:
            assert qual in TEST_ONLY, f"{qual} is marked a test reference but is not in TEST_ONLY"
            continue
        assert caller in functions, f"{qual}: caller {caller} is not a function outside the tests"
        name = defined[qual]
        assert any(isinstance(node, ast.Attribute) and node.attr == name
                   for node in ast.walk(functions[caller])), f"{caller} does not reach .{name}"


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d, "id", getattr(getattr(d, "func", None), "id", None)) == "dataclass"
               for d in node.decorator_list)


def test_every_dataclass_field_is_read_outside_tests():
    # a field is read through an attribute, matched by name over _callers()
    # as test_every_definition_is_used_outside_tests matches a method
    _, attrs = _references()
    fields = [f"{node.name}.{item.target.id}"
              for path in MODULES for node in ast.parse(path.read_text(), filename=str(path)).body
              if isinstance(node, ast.ClassDef) and _is_dataclass(node)
              for item in node.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    unread = sorted(q for q in fields if q.split(".")[1] not in attrs)
    assert not unread, f"dataclass fields that nothing outside the tests reads: {unread}"


def _init_fields(node: ast.ClassDef) -> list[tuple[str, bool]]:
    """(name, has a default) of each field of a dataclass that its __init__
    takes, in order: field(init=False) is left out, and field(...) has a
    default only through default= or default_factory=."""
    out = []
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        value = item.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            kws = {kw.arg: kw.value for kw in value.keywords}
            if getattr(kws.get("init"), "value", True) is False:
                continue
            out.append((item.target.id, "default" in kws or "default_factory" in kws))
        else:
            out.append((item.target.id, value is not None))
    return out


def _defaulted_parameters() -> dict[str, tuple[str, str, int | None]]:
    """'function.parameter' (or 'Class.method.parameter', or 'Class.field')
    -> (callee, parameter, position at a call) of every parameter with a
    default of the module-level functions and methods in MODULES, less
    TEST_ONLY, and of every dataclass field with a default that __init__
    takes.  The callee is the function, 'Class.method', or for a field
    'Class'.  The position is None for a keyword-only parameter; a method's
    position does not count self or cls."""
    out = {}
    for path in MODULES:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            funcs = [(node.name, node)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                funcs = [(f"{node.name}.{item.name}", item) for item in node.body
                         if isinstance(item, ast.FunctionDef)]
                if _is_dataclass(node):
                    for i, (name, has_default) in enumerate(_init_fields(node)):
                        if has_default:
                            out[f"{node.name}.{name}"] = (node.name, name, i)
            for qual, func in funcs:
                if qual in TEST_ONLY:
                    continue
                a = func.args
                bound = "." in qual and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in func.decorator_list)
                positional = a.posonlyargs + a.args
                for i in range(len(positional) - len(a.defaults), len(positional)):
                    out[f"{qual}.{positional[i].arg}"] = (qual, positional[i].arg, i - bound)
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        out[f"{qual}.{arg.arg}"] = (qual, arg.arg, None)
    return out


def _class_calls(tree: ast.Module) -> dict[int, str]:
    """id of each call cls(...) inside a classmethod -> the name of its class."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if (isinstance(item, ast.FunctionDef) and item.args.args and any(
                    isinstance(d, ast.Name) and d.id == "classmethod" for d in item.decorator_list)):
                first = item.args.args[0].arg
                out.update((id(call), node.name) for call in ast.walk(item)
                           if isinstance(call, ast.Call) and getattr(call.func, "id", None) == first)
    return out


def _set_at_calls() -> tuple[set[tuple[str, str]], dict[str, float]]:
    """From every call in _callers(): the (callee, keyword) pairs it passes,
    with '**' for a ** argument, and per callee the most positional arguments
    any call passes (inf past a *).  The callee of C.f(...) for a class C of
    MODULES is 'C.f'; of cls(...) in a classmethod of C, 'C'; of any other
    f(...) or x.f(...), the bare 'f'."""
    classes = {q.split(".")[0] for q in _definitions() if "." in q}   # those with methods
    keywords, positions = set(), {}
    for path in _callers():
        tree = ast.parse(path.read_text(), filename=str(path))
        class_calls = _class_calls(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if id(node) in class_calls:
                name = class_calls[id(node)]
            elif isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                owner = getattr(func.value, "id", getattr(func.value, "attr", None))
                name = f"{owner}.{func.attr}" if owner in classes else func.attr
            else:
                continue
            keywords.update((name, kw.arg or "**") for kw in node.keywords)
            count = (math.inf if any(isinstance(a, ast.Starred) for a in node.args)
                     else len(node.args))
            positions[name] = max(positions.get(name, 0), count)
    return keywords, positions


def test_every_default_is_set_outside_tests():
    keywords, positions = _set_at_calls()
    defaulted = _defaulted_parameters()

    def is_set(qual, param, pos):
        # a method is also reached as x.f(...) on an instance, under its bare name
        return any((name, param) in keywords or (name, "**") in keywords
                   or (pos is not None and positions.get(name, 0) > pos)
                   for name in {qual, qual.split(".")[-1]})

    unset = sorted(q for q, entry in defaulted.items() if not is_set(*entry) and q not in TEST_HOOKS)
    assert not unset, f"parameters with a default that only tests set (or none): {unset}"
    stale = sorted(q for q in TEST_HOOKS if q not in defaulted or is_set(*defaulted[q]))
    assert not stale, f"TEST_HOOKS entries that are gone or now set outside tests: {stale}"


# The pair kernels reduce through cosets.mod: NumPy's integer remainder by a
# scalar is not vectorized, and no correctness test can tell the two apart.
PAIR_KERNELS = ["cosets.mat_keys", "cosets.mul_mod", "cosets.kt_support",
                "cosets.kt_membership_mask", "cosets.random_kt_elements",
                "characters.ChiEvaluator.exponents", "minimal.convolution_check"]


@pytest.mark.parametrize("qual", PAIR_KERNELS)
def test_pair_kernels_reduce_without_the_remainder_operator(qual):
    node = _functions()[qual]
    lines = sorted(n.lineno for n in ast.walk(node)
                   if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Mod))
    assert not lines, f"{qual}: '%' at lines {lines}; reduce arrays with cosets.mod"


# main writes every CLI report, CSV and summary line; a subcommand returns them.
# No output test can tell which function wrote a file, so this reads the code.
CLI_OUTPUT_CALLS = {"_write_report", "open", "print", "write_text", "write_bytes"}


@pytest.mark.parametrize("qual", sorted(q for q in _functions() if q.startswith("cli.cmd_")))
def test_cli_subcommands_write_no_output(qual):
    calls = sorted((n.lineno, getattr(n.func, "id", getattr(n.func, "attr", None)))
                   for n in ast.walk(_functions()[qual]) if isinstance(n, ast.Call))
    found = [(line, name) for line, name in calls if name in CLI_OUTPUT_CALLS]
    assert not found, f"{qual} writes output itself at {found}; return it to cli.main"
