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


def _uses(node, scope: str, names: set[str]):
    """(enclosing function, name, line) of each `Name` or `Attribute` under
    `node` that reads one of `names`; `scope` is the function `node` is in."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        name = child.id if isinstance(child, ast.Name) else getattr(child, "attr", None)
        if isinstance(child, (ast.Name, ast.Attribute)) and name in names:
            yield inner, name, child.lineno
        yield from _uses(child, inner, names)


def test_labels_are_read_and_written_only_through_their_layout():
    """No module of `src/radiolab` but `labels.py` uses `decode_blocks` or
    `encode_labels`: a label is written by its layout's `encode` and read
    by its `parse`, the one owner of its block order and widths. toprec's
    identifier wire form is block code too, so its wire functions are
    exempt by name."""
    exempt = {"id_to_wire", "wire_to_id", "decode_reports"}
    found = [
        f"{path.name}:{line} {name} in {scope}"
        for path in sorted(SRC.glob("*.py")) if path.name != "labels.py"
        for scope, name, line in _uses(ast.parse(path.read_text()), "<module>",
                                       {"decode_blocks", "encode_labels"})
        if scope not in exempt
    ]
    assert not found, f"labels coded outside their layout: {found}"


def _calls(node, scope: str):
    """(enclosing function, call) of each call under `node`; `scope` is the
    function `node` is in."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        if isinstance(child, ast.Call):
            yield inner, child
        yield from _calls(child, inner)


def test_every_message_is_framed_through_its_kind():
    """A message is written through its kind's table: each `.frame(...)`
    call in `src/radiolab` is on a name or attribute bound to a
    `message_kind(...)` table, and `frame(...)` itself is called only in
    `message_kind`, by the tables' `frame`, and in
    `TopRecProgram._with_reports`, which joins T4 and T5 bytes by hand."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    kinds = {target.id for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
             and getattr(node.value.func, "id", None) == "message_kind"
             for target in node.targets}
    framers = {("sim.py", "message_kind"), ("toprec.py", "_with_reports")}
    found = []
    for name, tree in trees.items():
        for scope, call in _calls(tree, "<module>"):
            f = call.func
            if isinstance(f, ast.Name) and f.id == "frame" and (name, scope) not in framers:
                found.append(f"{name}:{call.lineno} frame( in {scope}")
            elif isinstance(f, ast.Attribute) and f.attr == "frame":
                owner = getattr(f.value, "attr", getattr(f.value, "id", None))
                if owner not in kinds:
                    found.append(f"{name}:{call.lineno} {owner}.frame( in {scope}")
    assert len(kinds) == 13 and not found, f"messages framed around their kind: {found}"


def test_no_message_field_is_read_by_index():
    """No `parts[<int>]` in `src/radiolab`: a heard message's fields are
    read by the names of its kind's table."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "parts"
        and isinstance(node.slice, ast.Constant) and type(node.slice.value) is int
    ]
    assert not found, f"message fields read by index: {found}"
