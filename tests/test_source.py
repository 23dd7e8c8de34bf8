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
