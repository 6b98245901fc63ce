"""The benchmark's traced run wraps library functions by name; every name
it lists must exist, or a traced run breaks."""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attr, span", _targets())
def test_span_target_resolves(module_name, attr, span):
    assert callable(getattr(importlib.import_module(module_name), attr))
