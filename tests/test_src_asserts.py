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


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _used_names(paths) -> set[str]:
    """Every name a `Name`, an `Attribute` or an import alias in `paths`
    refers to."""
    used: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    return used


def _definitions(path):
    """(qualified name, name) of each module-level function and class of
    `path` and each method of its classes, dunder methods left out."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, defs):
            continue
        yield f"{path.stem}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("__")):
                    yield f"{path.stem}.{node.name}.{item.name}", item.name


def test_every_definition_in_src_is_used():
    """Each function, class and method of `src/radiolab` is named somewhere
    in `src/radiolab` or `perfbench`, so the package holds only what a
    scheme, the CLI or the benchmark runs. Neither the tests nor a
    re-export in `__init__.py` count as a use.

    The scan matches names, not bindings: an unused method that shares its
    name with an attribute read elsewhere (say `run` or `action`) passes."""
    sources = sorted(SRC.glob("*.py"))
    users = [path for path in sources if path.name != "__init__.py"]
    used = _used_names(users + sorted(PERFBENCH.rglob("*.py")))
    unused = [qual for path in sources for qual, name in _definitions(path)
              if name not in used]
    assert not unused, f"defined in src/radiolab but never named there or in perfbench: {unused}"
