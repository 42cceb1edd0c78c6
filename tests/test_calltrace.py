"""The benchmark's call tracer can patch, and restore, every target.

``benchmarks/ledger/calltrace.py`` wraps named methods and functions of
the program for traced runs.  A target renamed or moved in ``src/``
would only surface on the next traced benchmark run; entering the
tracer here makes it fail the test suite instead.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

CALLTRACE = (
    Path(__file__).resolve().parents[1] / "benchmarks" / "ledger" / "calltrace.py"
)


def load_calltrace():
    spec = importlib.util.spec_from_file_location("ledger_calltrace", CALLTRACE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def resolve(module_name: str, owner: str | None, attr: str):
    module = importlib.import_module(module_name)
    if owner is None:
        return getattr(module, attr)
    return getattr(module, owner).__dict__[attr]


def test_every_target_is_patched_and_restored():
    calltrace = load_calltrace()
    targets = [target[1:4] for target in calltrace.TARGETS]
    originals = [resolve(*target) for target in targets]
    with calltrace.CallTracer().installed():
        for target, original in zip(targets, originals):
            assert resolve(*target) is not original, target
    for target, original in zip(targets, originals):
        assert resolve(*target) is original, target
