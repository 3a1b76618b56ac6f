"""Every module-level function and class of ``race_wfl`` has a caller,
and every name a module imports is used in it.

A name counts as used when code in ``src/`` other than its own
definition refers to it, or when ``perfbench/*.py`` does, by name or as
the string its tracer resolves.  Test-only support code is listed in
``TEST_SUPPORT`` with the reason it stays.  ``__init__.py`` imports to
re-export, so its imports are not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "race_wfl"

TEST_SUPPORT = {
    "fl_engine.loss_and_gradient":
        "the loss the finite-difference gradient check differentiates",
    "fl_engine.local_update":
        "the plain descent the FL tests run to a shard's minimizer",
    "fl_engine.smoothness_bound":
        "the Lipschitz constant of that descent and of the drift bound",
    "theory_checks.deviation_monte_carlo":
        "the sampled estimate that deviation_exact is checked against",
}


def _referenced(node) -> set:
    """Names, attributes, imported names and string pieces under
    ``node``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.update(sub.value.split("."))
    return names


def _surface():
    """(definitions, uses): every top-level function and class as
    (module, name), and what each top-level statement of the package and
    of perfbench refers to, as (module, statement's own name, names)."""
    definitions, uses = [], []
    files = [(path, path.stem) for path in sorted(PACKAGE.glob("*.py"))]
    files += [(path, None) for path in sorted(ROOT.glob("perfbench/*.py"))]
    for path, module in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            if module and isinstance(stmt, (ast.FunctionDef,
                                            ast.AsyncFunctionDef,
                                            ast.ClassDef)):
                definitions.append((module, own))
            uses.append((module, own, _referenced(stmt)))
    return definitions, uses


def test_every_public_definition_has_a_caller():
    definitions, uses = _surface()
    assert len(definitions) > 50  # the walk found the package
    unused = [
        f"{module}.{name}" for module, name in definitions
        if f"{module}.{name}" not in TEST_SUPPORT
        and not any(name in names and (where, own) != (module, name)
                    for where, own, names in uses)]
    assert unused == []


def test_test_support_names_exist():
    definitions, _ = _surface()
    defined = {f"{module}.{name}" for module, name in definitions}
    assert set(TEST_SUPPORT) <= defined


def _annotation_names(tree) -> set:
    """Names in the string annotations under ``tree``, which name what
    a module imports under ``TYPE_CHECKING``."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns:
            annotations.append(node.returns)
    return {sub.id for ann in annotations for const in ast.walk(ann)
            if isinstance(const, ast.Constant)
            and isinstance(const.value, str)
            for sub in ast.walk(ast.parse(const.value, mode="eval"))
            if isinstance(sub, ast.Name)}


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)} | _annotation_names(tree)
        unused += [
            f"{path.name}:{node.lineno} {alias.asname or alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if (alias.asname or alias.name.split(".")[0]) not in used]
    assert unused == []
