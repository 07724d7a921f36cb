"""Every attribute the benchmark's tracer wraps (``perfbench/tracing.py``,
``WRAPS``) resolves on the module it names. A traced benchmark run looks each
one up with ``vars(owner)[attr]``, so a renamed or dropped function would
otherwise first fail there, with a ``KeyError``."""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module, path", sorted({(m, p) for m, p, _, _ in tracing.WRAPS}))
def test_wrapped_attribute_resolves(module, path):
    owner, attr = tracing.resolve(module, path)
    assert callable(vars(owner)[attr])

