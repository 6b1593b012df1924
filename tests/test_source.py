import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "linkset"


def test_no_private_helper_is_defined_in_two_modules():
    """A private helper (a module-level function or class whose name starts
    with one underscore) lives in one module; two of the same name are two
    paths for one job."""
    where = defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                where[node.name].append(path.name)
    assert len(where) > 50  # the scan sees the package's helpers
    assert {name: files for name, files in where.items() if len(files) > 1} == {}
