"""The benchmark tracer names cubekh functions by (module, name); a renamed
or deleted target would make its layer metrics read as missing.  The bench
oracles must accept true outputs of every command and reject corrupted ones.
Both are loaded from their sources without writing anything next to them."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def test_bench_selfcheck_passes():
    # small jobs of every command through the bench oracles (plumbing
    # continuant, h1 = det, ...), so a change the bench would count as a
    # failed job fails here too
    def listing():
        return sorted((p.name, p.stat().st_mtime_ns) for p in PERFBENCH.iterdir())

    before = listing()
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-B", str(PERFBENCH / "selfcheck.py")],
                          cwd=PERFBENCH.parent, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all checks passed" in proc.stdout
    assert listing() == before
