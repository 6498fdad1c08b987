"""No `assert` guards the package: an invariant that can fail raises a typed
`RadiolabError`, which `python -O` cannot strip, and one that holds by
construction is not checked at run time."""

import ast
from pathlib import Path

import radiolab

SRC = Path(radiolab.__file__).parent


def test_no_assert_in_src():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/radiolab: {found}"
