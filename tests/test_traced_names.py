"""The benchmark harness wraps named hpckit functions; each must exist.

``perfbench/tracing.py`` lists the functions it times (``SPANS``) and
counts (``COUNTS``) as ``"<module>.<function>"``. A name it cannot find is
silently left out of the traced result line, dropping a declared metric,
so this test fails instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_names() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.SPANS + tracing.COUNTS


def test_every_traced_name_is_an_hpckit_callable():
    names = _traced_names()
    assert len(names) == len(set(names)) > 0
    missing = [name for name in names
               if not callable(getattr(importlib.import_module(f"hpckit.{name.split('.')[0]}"),
                                       name.split(".")[1], None))]
    assert not missing, f"traced but absent from hpckit: {missing}"
