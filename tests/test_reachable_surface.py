"""Every public definition in ``src/repro`` has a caller.

The guard covers top-level functions and classes and the public methods
of top-level classes.  A definition counts as reached when code names
it outside the definition itself: a ``Name``, an ``Attribute`` or an
import alias in a ``src/`` module other than its own (package
``__init__`` files excluded, since re-exporting is not calling), in
``benchmarks/`` or in ``examples/``, or elsewhere in its own module.
Names match by spelling, so a method counts as reached when any code
calls a method of that name.  Docstrings and comments do not count.
String literals in ``benchmarks/`` do, because the ledger's call tracer
names the methods it patches by string.  Tests do not count: a
definition only its own tests call is library surface that nothing
reaches.
"""

import ast
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent

# "name" or "Class.method" -> why it stays without a non-test caller.
ALLOWED = {
    "batches_of": "the golden regen script and streaming-equals-batch tests "
                  "split a corpus with it",
    "tokenize": "offset-keeping reference the tokenizer and "
                "reference-annotator tests compare against",
    "SyntheticWeb.urls": "the web, fetcher and fault tests visit every "
                         "page through it",
    "InvertedIndex.doc_length": "the index-equivalence tests compare "
                                "per-document lengths through it",
    "QuantileSketch.exact": "the sketch tests check the switch from raw "
                            "values to P² markers through it",
    "FaultyWeb.fetch_attempts": "the fault tests check that peeks and an "
                                "open breaker spend no fetch",
    "StreamProcessor.state_dict": "the recovery tests compare a resumed "
                                  "processor's state with a fresh run's",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCTIONS, ast.ClassDef)


def _walk(tree: ast.AST, skip: ast.AST | None = None) -> Iterator[ast.AST]:
    """``ast.walk`` that does not enter ``skip``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _public_defs(tree: ast.Module) -> Iterator[tuple[str, ast.AST]]:
    """``(key, node)`` per public top-level definition and per public
    method of a top-level class; the key is ``name`` or
    ``Class.method``."""
    for node in tree.body:
        if not isinstance(node, _DEFS):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, _FUNCTIONS)
                        and not member.name.startswith("_")):
                    yield f"{node.name}.{member.name}", member


def _referenced_names(
    tree: ast.AST, strings: bool = False, skip: ast.AST | None = None
) -> set[str]:
    """Names the code of ``tree`` outside ``skip`` refers to (string
    literals optional).

    The text of an f-string is output, not a reference, so its pieces
    never count.
    """
    formatted = {id(piece) for node in ast.walk(tree)
                 if isinstance(node, ast.JoinedStr)
                 for piece in ast.walk(node)}
    names: set[str] = set()
    for node in _walk(tree, skip):
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


def unreached(root: Path, allowed=ALLOWED) -> list[str]:
    """``module::key`` for each public definition under ``root/src/repro``
    that nothing outside ``root/tests`` names."""
    src = root / "src" / "repro"
    trees = {path: ast.parse(path.read_text())
             for path in sorted(src.rglob("*.py"))}
    outside: set[str] = set()
    for folder in ("benchmarks", "examples"):
        for path in (root / folder).rglob("*.py"):
            outside |= _referenced_names(
                ast.parse(path.read_text()), strings=folder == "benchmarks"
            )
    referenced = {path: _referenced_names(tree)
                  for path, tree in trees.items()}
    found = []
    for path, tree in trees.items():
        reached = outside | {
            name for other, names in referenced.items()
            if other != path and other.name != "__init__.py"
            for name in names
        }
        for key, node in _public_defs(tree):
            if key in allowed or node.name in reached:
                continue
            if (node.name in referenced[path]
                    and node.name in _referenced_names(tree, skip=node)):
                continue
            found.append(f"{path.relative_to(src)}::{key}")
    return found


def test_every_public_name_is_reached_outside_its_tests():
    assert unreached(ROOT) == [], (
        "public definitions with no caller outside their own tests; "
        "delete them or add a one-line reason to ALLOWED"
    )


def test_every_allowed_entry_names_a_definition_and_a_reason():
    keys = {key for path in (ROOT / "src" / "repro").rglob("*.py")
            for key, _ in _public_defs(ast.parse(path.read_text()))}
    assert set(ALLOWED) <= keys
    assert all(reason.strip() for reason in ALLOWED.values())


def test_guard_flags_a_method_only_tests_call(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "store.py").write_text(
        "class Store:\n"
        "    def get(self, key):\n"
        "        return key\n"
        "\n"
        "    def only_tested(self):\n"
        "        return self.only_tested\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_store.py").write_text(
        "from repro.store import Store\n\nStore().only_tested()\n"
    )
    app = package / "app.py"
    app.write_text("from repro.store import Store\n\nStore().get(1)\n")
    # Neither the test's call nor the method's own body counts.
    assert unreached(tmp_path, allowed={}) == ["store.py::Store.only_tested"]

    app.write_text(app.read_text() + "Store().only_tested()\n")
    assert unreached(tmp_path, allowed={}) == []
