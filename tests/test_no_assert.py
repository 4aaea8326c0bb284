"""The package holds no ``assert`` statement: ``python -O`` strips them, so guards raise
``SpqError`` instead.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "spq"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statement(path):
    lines = [node.lineno for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} asserts at lines {lines}"
