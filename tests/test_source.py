"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fwlab"

# os.environ, os.environb, os.getenv and os.getenvb, read as attributes or imported by name
ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    # every setting of a run is an argument; an environment variable would be a hidden one
    reads = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([node.attr] if isinstance(node, ast.Attribute)
                     else [alias.name for alias in node.names]
                     if isinstance(node, ast.ImportFrom) and node.module == "os" else [])
            reads += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in ENVIRONMENT_READS]
    assert list(SRC.glob("*.py"))
    assert reads == []


def _linalg_norm_users(path):
    """'module:function' of each use of numpy.linalg's norm in one module, by enclosing def."""
    users = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            defines = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            inner = child.name if defines else where
            attribute = (isinstance(child, ast.Attribute) and child.attr == "norm"
                         and ast.unparse(child.value).endswith("linalg"))
            imported = (isinstance(child, ast.ImportFrom) and child.module == "numpy.linalg"
                        and any(alias.name == "norm" for alias in child.names))
            if attribute or imported:
                users.append(f"{path.stem}:{where}")
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return users


def test_only_frobenius_calls_linalg_norm():
    # every norm runs on the one pinned kernel, whose stacked form is bit for bit np.linalg.norm
    users = {user for path in sorted(SRC.rglob("*.py")) for user in _linalg_norm_users(path)}
    assert users == {"algebra:frobenius"}
