"""The benchmark tracer names cubekh functions by (module, name); a renamed
or deleted target would make its layer metrics read as missing.  The tracer
is loaded from its source without writing anything next to it."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_trace_target_resolves():
    targets = _load_tracing().TARGETS
    assert targets
    missing = [(mod, name) for mod, name in targets
               if not callable(getattr(importlib.import_module(f"cubekh.{mod}"),
                                       name, None))]
    assert not missing, f"trace targets without a callable in cubekh: {missing}"
