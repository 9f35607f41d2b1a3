"""CLI behavior: command output, determinism, structured errors on fuzzed
malformed inputs."""

import io
import json
import random

import pytest

from cubekh.cli import main, run_job

TREFOIL = {"pd": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]}


def run_cli(capsys, monkeypatch, args, payload=None):
    if payload is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_khr_trefoil(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, ["--command", "khr"], TREFOIL)
    assert code == 0
    blob = json.loads(out)
    assert blob["total"] == 3
    assert blob["theory"] == "khr"


def test_det_unknot(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, ["--command", "det"],
                        {"pd": [], "free_loops": 1})
    assert code == 0
    assert json.loads(out)["det"] == 1


def test_plumbing_a2(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, ["--command", "plumbing"],
                        {"plumbing": {"mult": [2, 2], "edges": [[0, 1]]}})
    assert code == 0
    blob = json.loads(out)
    assert blob["h1"] == 3 and blob["verdict"] == "certified"


def test_surgery_command(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, ["--command", "surgery"],
                        {"linking": [[0]], "frames": [7], "v": [0]})
    assert code == 0
    assert json.loads(out)["h1"]["order"] == 7


def test_lspace_large_surgery(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, ["--command", "lspace"],
                        {"large_surgery": {"p": 2, "q": 3, "n": 6}})
    assert code == 0
    blob = json.loads(out)
    assert blob["verdict"] == "certified" and blob["h1_order"] == 6


def test_qa_command(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, ["--command", "qa"], TREFOIL)
    assert code == 0
    blob = json.loads(out)
    assert blob["verdict"] == "certified"
    assert blob["certificate"]["det"] == 3


def test_rankcheck_command(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, ["--command", "rankcheck"], TREFOIL)
    assert code == 0
    blob = json.loads(out)
    assert blob["det"] == 3 and blob["equality"]


def test_ss_command(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, ["--command", "ss"],
                        {"pd": [[1, 3, 2, 4], [3, 1, 4, 2]],
                         "marking": {"arcs": [1, 0, 0, 1]}})
    assert code == 0
    blob = json.loads(out)
    assert blob["stabilization_index"] <= 3


def test_budget_exit_code(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch,
                        ["--command", "kh", "--max-crossings", "1"], TREFOIL)
    assert code == 3
    assert json.loads(out)["error"]["kind"] == "budget"


def test_env_budget(capsys, monkeypatch):
    monkeypatch.setenv("CUBEKH_MAX_CROSSINGS", "2")
    code, out = run_cli(capsys, monkeypatch, ["--command", "kh"], TREFOIL)
    assert code == 3


def test_determinism_across_runs(capsys, monkeypatch):
    outputs = set()
    for _ in range(4):
        code, out = run_cli(capsys, monkeypatch, ["--command", "khr"], TREFOIL)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_malformed_inputs_fuzz(capsys, monkeypatch):
    rng = random.Random(13)
    payloads = [
        "not json at all",
        "[1,2,3]",
        "{}",
        '{"pd": "nope"}',
        '{"pd": [[1,2,3]]}',
        '{"pd": [[1,1,1,1]]}',
        '{"pd": [[1,4,2,5]], "free_loops": -2}',
        '{"pd": [[1,4,2,5],[3,6,4,1],[5,2,6,3]], "orientation": [1,1]}',
        '{"pd": [[1,4,2,5],[3,6,4,1],[5,2,6,3]], "marking": {"arcs": [1]}}',
        '{"linking": [[1,2],[3,4]], "v": [0,0]}',
        '{"linking": [[1]], "v": [0, 0]}',
        '{"plumbing": {"mult": [1], "edges": [[0,5]]}}',
    ]
    for _ in range(30):
        junk = "".join(rng.choice('{}[]",:abc123 ') for _ in range(rng.randint(1, 25)))
        payloads.append(junk)
    for i, raw in enumerate(payloads):
        cmd = rng.choice(["kh", "khr", "det", "h1", "qa", "surgery", "plumbing"])
        monkeypatch.setattr("sys.stdin", io.StringIO(raw))
        code = main(["--command", cmd])
        out = capsys.readouterr().out
        blob = json.loads(out)
        if code != 0:
            assert code in (1, 2, 3), (raw, cmd, code)
            assert "error" in blob and "kind" in blob["error"], (raw, cmd)


def test_run_job_twisted_matches_khr_total():
    out = run_job("twisted", TREFOIL)
    assert out["total"] == 3


# --- internal inconsistencies and input hardening ------------------------------

def test_internal_inconsistency_is_not_validation():
    from cubekh.errors import InternalInconsistency, ValidationError
    assert not issubclass(InternalInconsistency, ValidationError)


def test_disagreeing_hd_constructions_exit_internal(capsys, monkeypatch):
    import cubekh.khovanov as kh
    monkeypatch.setattr(kh, "_hd_even", lambda cube, marking: {})
    for cmd in ("hd", "ss"):
        code, out = run_cli(capsys, monkeypatch, ["--command", cmd], TREFOIL)
        assert code == 1, cmd
        err = json.loads(out)["error"]
        assert err["kind"] == "internal" and "disagree" in err["detail"]


def test_disagreeing_det_oracles_exit_internal(capsys, monkeypatch):
    import cubekh.cli as cli
    monkeypatch.setattr(cli, "link_det", lambda d: 5)
    code, out = run_cli(capsys, monkeypatch, ["--command", "det"], TREFOIL)
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "internal", "detail": "det oracles disagree: 5 vs 3"}


def test_internal_checks_survive_optimize_flag():
    # the invariant checks in twisted_complex and check_psi_naturality are
    # explicit raises, so `python -O` keeps them
    import os
    import subprocess
    import sys
    script = """
import cubekh.khovanov as kh
from cubekh.corpus import small_knot
from cubekh.diagram import ArcMarking
from cubekh.errors import InternalInconsistency
d = small_knot("3_1")
real_offset = kh._vertical_degree_offset
kh._vertical_degree_offset = lambda cube: 1 - real_offset(cube)
try:
    kh.twisted_complex(d, ArcMarking.zero(d))
except InternalInconsistency:
    print("twisted")
kh._vertical_degree_offset = real_offset
real_psi = kh.psi_identification
def reversed_psi(state):
    model, psi = real_psi(state)
    return model, dict(zip(psi, reversed(list(psi.values()))))
kh.psi_identification = reversed_psi
try:
    kh.check_psi_naturality(kh.build_cube(d))
except InternalInconsistency:
    print("psi")
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["twisted", "psi"]


@pytest.mark.parametrize("cmd", ["kh", "khr", "twisted", "hd", "ss", "det",
                                 "h1", "qa", "rankcheck"])
def test_nonplanar_pd_rejected_by_every_command(capsys, monkeypatch, cmd):
    code, out = run_cli(capsys, monkeypatch, ["--command", cmd],
                        {"pd": [[1, 2, 1, 2]]})
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "NonPlanarTrace"


@pytest.mark.parametrize("cmd, payload", [
    ("khr", {"pd": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3.5]]}),
    ("khr", {"pd": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, True]]}),
    ("khr", dict(TREFOIL, orientation=[1.0])),
    ("khr", dict(TREFOIL, orientation=[True])),
    ("kh", dict(TREFOIL, free_loops=1.5)),
    ("kh", dict(TREFOIL, free_loops=True)),
    ("twisted", dict(TREFOIL, marking={"arcs": [1.0, 1, 0, 0, 0, 0]})),
    ("twisted", dict(TREFOIL, marking={"arcs": [True, 1, 0, 0, 0, 0]})),
    ("qa", dict(TREFOIL, budget=100.5)),
    ("qa", dict(TREFOIL, budget=True)),
    ("lspace", {"large_surgery": {"p": 2.7, "q": 3, "n": True}}),
    ("lspace", {"large_surgery": {"p": 2, "q": 3.0, "n": 6}}),
    ("lspace", {"large_surgery": {"p": 2, "q": 3, "n": 6.0}}),
    ("surgery", {"linking": [[0.5]], "frames": [7], "v": [0]}),
    ("surgery", {"linking": [[0]], "frames": [True], "v": [0]}),
    ("surgery", {"linking": [[0]], "frames": [7], "v": [1.0]}),
    ("plumbing", {"plumbing": {"mult": [2, 2.0], "edges": [[0, 1]]}}),
    ("lspace", {"plumbing": {"mult": [2, 2], "edges": [[0, True]]}}),
])
def test_non_integer_inputs_rejected(capsys, monkeypatch, cmd, payload):
    code, out = run_cli(capsys, monkeypatch, ["--command", cmd], payload)
    assert code == 2
    assert "must be an integer" in json.loads(out)["error"]["detail"]


@pytest.mark.parametrize("cmd, payload, target, fake, detail", [
    # every order is 5, so the lens seed (order 2) contradicts its triad
    ("plumbing", {"plumbing": {"mult": [2, 2], "edges": [[0, 1]]}},
     "cubekh.surgery.plumbing_h1_order", lambda g: 5,
     "plumbing derivation became inconsistent"),
    ("plumbing", {"plumbing": {"mult": [2, 2], "edges": [[0, 1]]}},
     "cubekh.surgery.LSpaceVerdict.reverify", lambda self: False,
     "derivation chain failed re-verification"),
    ("lspace", {"large_surgery": {"p": 2, "q": 3, "n": 6}},
     "cubekh.surgery.LSpaceVerdict.reverify", lambda self: False,
     "large surgery chain failed re-verification"),
], ids=["certify_tree", "plumbing_reverify", "large_surgery_reverify"])
def test_failed_surgery_cross_checks_exit_internal(capsys, monkeypatch, cmd,
                                                   payload, target, fake, detail):
    monkeypatch.setattr(target, fake)
    code, out = run_cli(capsys, monkeypatch, ["--command", cmd], payload)
    assert code == 1
    assert json.loads(out)["error"] == {"kind": "internal", "detail": detail}


def test_free_loops_reach_cube_budget_before_allocating(capsys, monkeypatch):
    # a million free loops would mean a kh basis of 2^1000000 per state: the
    # budget check stops the job before any state is resolved
    import tracemalloc

    def no_resolve(*args, **kwargs):
        raise AssertionError("resolved a state past the budget")

    monkeypatch.setattr("cubekh.khovanov.resolve", no_resolve)
    tracemalloc.start()
    try:
        code, out = run_cli(capsys, monkeypatch, ["--command", "kh"],
                            {"pd": [], "free_loops": 1000000})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    err = json.loads(out)["error"]
    assert err["kind"] == "budget"
    assert "1000000 free loops exceeds the cube budget" in err["detail"]
    assert peak < 1 << 20


def test_large_surgery_chain_reaches_budget_before_allocating(capsys,
                                                             monkeypatch):
    # n = 10^12 would mean 10^12 derivation steps: the budget check stops
    # the job before the first one is built
    import tracemalloc
    tracemalloc.start()
    try:
        code, out = run_cli(capsys, monkeypatch, ["--command", "lspace"],
                            {"large_surgery": {"p": 2, "q": 3, "n": 10**12}})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    err = json.loads(out)["error"]
    assert err["kind"] == "budget"
    assert "999999999995 triad steps" in err["detail"]
    assert peak < 1 << 20
