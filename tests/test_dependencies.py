"""numpy is the package's only runtime dependency."""
import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "gridexplore"


def _absolute_imports(path):
    """Top-level module names of the file's absolute imports; relative
    imports are the package itself."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_src_imports_only_stdlib_numpy_and_itself():
    allowed = set(sys.stdlib_module_names) | {"numpy", "gridexplore"}
    files = sorted(SRC.rglob("*.py"))
    assert files
    foreign = [f"{path.relative_to(SRC)}: {name}" for path in files
               for name in _absolute_imports(path) if name not in allowed]
    assert not foreign, f"imports outside the stdlib and numpy: {foreign}"
