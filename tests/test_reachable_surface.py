"""Every public top-level function and class in ``src/repro`` has a caller.

A name counts as reached when code names it: a ``Name``, an
``Attribute`` or an import alias in a ``src/`` module other than its own
(package ``__init__`` files excluded, since re-exporting is not calling),
in ``benchmarks/`` or in ``examples/``, or a use in its own module past
the definition.  Docstrings and comments do not count.  String literals
in ``benchmarks/`` do, because the ledger's call tracer names the
methods it patches by string.  Tests do not count: a name only its own
tests call is library surface that nothing reaches.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

# name -> why it stays without a non-test caller.
ALLOWED = {
    "jaccard": "exact reference the MinHash-estimate tests compare against",
    "batches_of": "the golden regen script and streaming-equals-batch tests "
                  "split a corpus with it",
    "tokenize": "offset-keeping reference the tokenizer and "
                "reference-annotator tests compare against",
}


def _public_defs(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")]


def _referenced_names(tree: ast.AST, strings: bool = False) -> set[str]:
    """Names the code of ``tree`` refers to (string literals optional).

    The text of an f-string is output, not a reference, so its pieces
    never count.
    """
    formatted = {id(piece) for node in ast.walk(tree)
                 if isinstance(node, ast.JoinedStr)
                 for piece in ast.walk(node)}
    names: set[str] = set()
    for node in ast.walk(tree):
        if id(node) in formatted and isinstance(node, ast.Constant):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
            if node.asname:
                names.add(node.asname)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            names.add(node.value)
    return names


def test_every_public_name_is_reached_outside_its_tests():
    trees = {path: ast.parse(path.read_text()) for path in SRC.rglob("*.py")}
    outside: set[str] = set()
    for folder in ("benchmarks", "examples"):
        for path in (ROOT / folder).rglob("*.py"):
            outside |= _referenced_names(
                ast.parse(path.read_text()), strings=folder == "benchmarks"
            )
    referenced = {path: _referenced_names(tree)
                  for path, tree in trees.items()}
    unreached = []
    for path, tree in trees.items():
        reached = outside | referenced[path] | {
            name for other, names in referenced.items()
            if other != path and other.name != "__init__.py"
            for name in names
        }
        unreached.extend(
            f"{path.relative_to(SRC)}::{name}"
            for name in _public_defs(tree)
            if name not in ALLOWED and name not in reached
        )
    assert unreached == [], (
        "public names with no caller outside their own tests; delete them "
        "or add a one-line reason to ALLOWED"
    )
