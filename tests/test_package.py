"""Rules that hold for every module of the package."""

import ast
from pathlib import Path

import superbott


def test_no_assert_statements_in_the_package():
    # a mathematical invariant raises an error: python -O drops asserts
    found = []
    for path in sorted(Path(superbott.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
