"""Imports inside the package point one way: down the order below."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qiblanav"

# A module may import only modules of a lower rank. records and columns
# share a rank, so neither imports the other: the text reader knows no
# record of a trace, and the records and their rows need no file. pipeline,
# simulator and dataio share a rank, so none of them may import another:
# each stands on the data layer below, and only cli composes them.
RANK = {
    "errors": 0,
    "geodesy": 1,
    "records": 2,
    "columns": 2,
    "declination": 3,
    "pipeline": 4,
    "simulator": 4,
    "dataio": 4,
    "cli": 5,
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


def test_the_pointer_imports_no_file_reader():
    """The one-sample pointer takes its records from `columns`, so it
    never loads the text reader."""
    assert "records" not in package_imports(PACKAGE / "pipeline.py")


def refers_to_numpy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "numpy" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "numpy"
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


def test_only_the_simulator_refers_to_numpy():
    """`pipeline` and `calibrate` run without numpy: no module but `simulator`
    refers to it."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py")) if path.stem != "simulator"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if refers_to_numpy(node)]
    assert found == [], f"numpy referred to at {found}"


def test_pipeline_fits_with_no_matrix_product_or_library_solve():
    """A BLAS product's or a LAPACK solve's last bits follow the CPU, and the
    goldens print the fitted center: `pipeline` has no `@` and calls none of
    numpy's products or solvers."""
    tree = ast.parse((PACKAGE / "pipeline.py").read_text(encoding="utf-8"))

    def callee(call: ast.Call) -> str | None:
        return call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)

    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(getattr(node, "op", None), ast.MatMult)
        or isinstance(node, ast.Call) and callee(node) in ("solve", "lstsq", "inv", "dot", "matmul")
    ]
    assert found == [], f"pipeline.py multiplies or solves with numpy on lines {found}"


def test_only_entry_builds_a_pointer_state():
    """`process` and the `ENTRY` layout build a pipeline's output through
    `columns._entry` alone, so each one is checked the same way: no other
    module under `src/` calls `QiblaPointerState`."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    entry = next(n for n in trees["columns"].body if isinstance(n, ast.FunctionDef) and n.name == "_entry")
    built = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "QiblaPointerState"]
    assert len(built) == 1 and built[0][1] in list(ast.walk(entry)), [(name, n.lineno) for name, n in built]


def test_no_value_is_built_around_its_constructor():
    """Every value is built through its class's checking `__init__`: no
    module under `src/` makes an instance with `object.__new__`."""
    found = [(path.name, node.lineno)
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "__new__"
             and getattr(node.value, "id", None) == "object"]
    assert found == [], f"object.__new__ at {found}"
