"""Every public top-level function and class in ``src/repro`` has a caller.

A name counts as reached when it appears in a ``src/`` module other than
its own (package ``__init__`` files excluded, since re-exporting is not
calling), in ``benchmarks/`` or ``examples/``, or when its own module uses
it again past the definition. Tests do not count: a name only its own
tests call is library surface that nothing reaches.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

# name -> why it stays without a non-test caller.
ALLOWED = {
    "jaccard": "exact reference the MinHash-estimate tests compare against",
    "batches_of": "the golden regen script and streaming-equals-batch tests "
                  "split a corpus with it",
    "EmNaiveBayes": "the semi-supervised EM baseline the paper cites "
                    "(Nigam et al.); no ablation runs it yet",
    "brodley_friedl_filter": "the noise filter the paper cites beside its "
                             "own denoising; no ablation runs it yet",
}


def _public_defs(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")]


def _used_in_module(tree: ast.Module, name: str) -> bool:
    return any(
        (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        for node in ast.walk(tree)
    )


def test_every_public_name_is_reached_outside_its_tests():
    modules = {path: path.read_text() for path in SRC.rglob("*.py")}
    outside = [path.read_text()
               for folder in ("benchmarks", "examples")
               for path in (ROOT / folder).rglob("*.py")]
    unreached = []
    for path, text in modules.items():
        tree = ast.parse(text)
        others = [other for p, other in modules.items()
                  if p != path and p.name != "__init__.py"] + outside
        for name in _public_defs(tree):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if (name in ALLOWED or _used_in_module(tree, name)
                    or any(word.search(other) for other in others)):
                continue
            unreached.append(f"{path.relative_to(SRC)}::{name}")
    assert unreached == [], (
        "public names with no caller outside their own tests; delete them "
        "or add a one-line reason to ALLOWED"
    )
