"""The benchmark tracer names cubekh functions by (module, name); a renamed
or deleted target would make its layer metrics read as missing, and a
renamed or deleted name the bench scripts import would break the bench.  The bench
oracles must accept true outputs of every command and reject corrupted ones.
Both are loaded from their sources without writing anything next to them.
The README's flag list must match what `cubekh --help` prints, no
function under src/cubekh takes a basepoint, and the diagram layer splits
no dart into a (crossing, slot) pair."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_every_name_perfbench_imports_resolves():
    # read-only: the bench scripts are parsed, not run
    imports = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "cubekh":
                imports += [(path.name, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                imports += [(path.name, a.name, None) for a in node.names
                            if a.name.split(".")[0] == "cubekh"]
    assert any(name is not None for _, _, name in imports)

    def resolves(mod, name):
        try:
            module = importlib.import_module(mod)
        except ImportError:
            return False
        return name is None or hasattr(module, name)

    missing = [entry for entry in imports if not resolves(*entry[1:])]
    assert not missing, f"names perfbench imports that cubekh lacks: {missing}"


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


README = PERFBENCH.parent / "README.md"


def _flags(text: str) -> set:
    return set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))


def test_readme_names_every_cli_flag(capsys):
    # the flags `cubekh --help` prints against the README's "Flags:"
    # paragraph, so no option is added or dropped without the README
    from cubekh.cli import main
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    printed = _flags(capsys.readouterr().out) - {"--help"}
    (paragraph,) = re.findall(r"^Flags:.*?(?=\n\n)", README.read_text(encoding="utf-8"),
                              re.S | re.M)
    assert printed == _flags(paragraph)
    assert printed == {"--command", "--input", "--max-crossings", "--json-indent"}


def test_retired_basepoint_flag_is_refused(capsys):
    # the reduced complexes mark arc 1; the flag that chose another arc is
    # gone, so argparse refuses it (exit 2) before any payload is read
    from cubekh.cli import main
    with pytest.raises(SystemExit) as exit_:
        main(["--command", "khr", "--basepoint", "1"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --basepoint 1" in capsys.readouterr().err


def test_no_internal_basepoint():
    # every reduced complex marks circle 0, so no function under src/cubekh
    # takes a basepoint, and khovanov keeps no mark callback
    paths = sorted((PERFBENCH.parent / "src" / "cubekh").glob("*.py"))
    assert any(path.name == "khovanov.py" for path in paths)
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
                assert "basepoint" not in names, (path.name, getattr(node, "name", "lambda"))
        if path.name == "khovanov.py":
            assert "_marked_circles" not in {
                node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def test_diagram_layer_names_darts_as_ints():
    # the diagram layer and the Goeritz/filling code name every dart as the
    # int 4 * crossing + slot, so no dart is split into a (crossing, slot)
    # pair, and the planar map keeps no corner lookup beside face_of
    src = PERFBENCH.parent / "src" / "cubekh"
    for name in ("diagram.py", "branched.py"):
        tree = ast.parse((src / name).read_text(encoding="utf-8"))
        calls = {node.func.id for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert "divmod" not in calls, name
        if name == "diagram.py":
            (planar_map,) = [node for node in tree.body
                             if isinstance(node, ast.ClassDef) and node.name == "PlanarMap"]
            assert "face_of_corner" not in {
                node.name for node in planar_map.body if isinstance(node, ast.FunctionDef)}
