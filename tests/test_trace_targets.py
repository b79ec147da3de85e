"""Every function the benchmark tracer patches by name exists in rlatt.

``perfbench/tracing.py`` replaces each ``(module, attribute)`` of its
``TARGETS`` and raises KeyError when one is gone, so deleting or renaming a
traced function breaks every traced benchmark run.  This test reads the
table from the file, without changing it, and fails first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_tracing_targets", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


@pytest.mark.parametrize("module,attribute,kind", _targets())
def test_trace_target_resolves(module, attribute, kind):
    owner = importlib.import_module(f"rlatt.{module}")
    if "." in attribute:
        class_name, attribute = attribute.split(".")
        owner = getattr(owner, class_name)
    # the tracer reads the owner's own namespace, as here
    assert callable(vars(owner).get(attribute))
