"""Imports inside the package point one way: down the order below."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qiblanav"

# A module may import only modules of a lower rank. simulator and dataio
# share a rank, so neither may import the other.
RANK = {
    "errors": 0,
    "records": 1,
    "geodesy": 2,
    "declination": 3,
    "pipeline": 4,
    "simulator": 5,
    "dataio": 5,
    "cli": 6,
}


def package_imports(path: Path) -> set[str]:
    """Names of the package's own modules that `path` imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qiblanav."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("qiblanav."))
    return {name.split(".")[0] for name in found}


def test_every_module_has_a_rank():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(RANK)


def test_imports_point_down():
    for name, rank in RANK.items():
        for target in package_imports(PACKAGE / f"{name}.py"):
            assert RANK[target] < rank, f"{name} imports {target}"
