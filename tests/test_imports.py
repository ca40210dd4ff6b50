"""Static checks on the package's imports, read from the source with ``ast``."""

import ast
from pathlib import Path

import locc_forge

PACKAGE = Path(locc_forge.__file__).parent


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imports_from(tree: ast.Module, module: str) -> list[str]:
    """Names imported from ``locc_forge.<module>`` anywhere in the module,
    including deferred imports inside functions; a whole-module import
    reads as "*"."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            if source in (f".{module}", f"locc_forge.{module}"):
                names += [alias.name for alias in node.names]
            elif source in (".", "locc_forge"):
                names += ["*" for alias in node.names if alias.name == module]
        elif isinstance(node, ast.Import):
            names += ["*" for alias in node.names
                      if alias.name == f"locc_forge.{module}"]
    return names


class TestVerifierIndependence:
    """The verifier shares no analysis code with the search: it takes only
    the tree's node type from the engine."""

    def test_verify_imports_no_search_code(self):
        tree = _tree(PACKAGE / "verify.py")
        assert _imports_from(tree, "feasibility") == []
        assert _imports_from(tree, "cones") == []
        assert _imports_from(tree, "engine") == ["ProtocolNode"]

    def test_the_check_sees_deferred_and_whole_module_imports(self):
        tree = ast.parse("def f():\n    from .cones import decompose\n"
                         "from . import feasibility\nimport locc_forge.engine\n")
        assert _imports_from(tree, "cones") == ["decompose"]
        assert _imports_from(tree, "feasibility") == ["*"]
        assert _imports_from(tree, "engine") == ["*"]


class TestImpossibilityCheck:
    """The impossibility self-check reads completeness through the joint R,
    as the measurement's constructor does, so the engine forms no joint
    operator."""

    def test_engine_imports_only_the_measurement_type(self):
        assert _imports_from(_tree(PACKAGE / "engine.py"), "measurement") == [
            "SeparableMeasurement"]


class TestConeLayer:
    """Cone geometry sits below the per-node analysis: ``feasibility``
    passes each nullspace basis in, so ``cones`` never reaches back up."""

    def test_cones_imports_nothing_from_feasibility(self):
        assert _imports_from(_tree(PACKAGE / "cones.py"), "feasibility") == []


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, skipping ``__future__``
    imports and import statements marked ``# noqa: F401``.  A name counts
    as read when it appears as an identifier, including inside a string
    annotation, but not when it appears only in a docstring."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            text = "\n".join(lines[node.lineno - 1:node.end_lineno])
            if "# noqa: F401" in text:
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in used)


class TestNoUnusedImports:
    def test_package_modules_read_every_import(self):
        modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
        assert len(modules) >= 10
        unused = {p.name: _unused_imports(p.read_text()) for p in modules}
        assert {name: names for name, names in unused.items() if names} == {}

    def test_the_check_finds_an_unused_import(self):
        source = ("from math import prod, sqrt\n"
                  "import numpy as np\n"
                  "from os import sep  # noqa: F401  (kept for a reason)\n"
                  "def f(x: 'np.ndarray'):\n    'prod'\n    return sqrt(x)\n")
        assert _unused_imports(source) == ["prod"]
