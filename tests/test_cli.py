"""CLI behavior: command output, determinism, structured errors on fuzzed
malformed inputs."""

import io
import json
import random

import pytest

from cubekh.cli import COMMANDS, MAX_QA_BUDGET, main, run_job

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


def test_qa_root_det_is_checked_against_goeritz(capsys, monkeypatch):
    # a certified verdict is printed only once the root's det agrees with
    # the Goeritz determinant
    from cubekh.branched import link_det
    monkeypatch.setattr("cubekh.branched.link_det", lambda d: link_det(d) + 1)
    code, out = run_cli(capsys, monkeypatch, ["--command", "qa"], TREFOIL)
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "internal", "detail": "det oracles disagree: 4 vs 3"}


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


# a valid payload for every command; each would succeed with the default
# budget, and the 0-crossing one builds no cube and reaches no budget check
BUDGET_PAYLOADS = {
    "kh": TREFOIL, "khr": TREFOIL, "twisted": TREFOIL, "hd": TREFOIL,
    "ss": TREFOIL, "det": TREFOIL, "h1": TREFOIL,
    "qa": {"pd": [], "free_loops": 1}, "rankcheck": TREFOIL,
    "surgery": {"linking": [[0]], "frames": [7], "v": [0]},
    "plumbing": {"plumbing": {"mult": [2, 2], "edges": [[0, 1]]}},
    "lspace": {"large_surgery": {"p": 2, "q": 3, "n": 6}},
    "selftest": None,
}


@pytest.mark.parametrize("command", COMMANDS)
def test_negative_cube_budget_is_invalid_range(capsys, monkeypatch, command):
    # refused before any work, so selftest does not run the acceptance suite
    code, out = run_cli(capsys, monkeypatch,
                        ["--command", command, "--max-crossings", "-1"],
                        BUDGET_PAYLOADS[command])
    assert code == 2
    assert json.loads(out)["error"] == {
        "kind": "InvalidRange", "detail": "max_crossings must be non-negative, got -1"}


@pytest.mark.parametrize("command", ["det", "selftest"])
def test_negative_json_indent_is_invalid_range(capsys, monkeypatch, command):
    # refused before any work, on one line since the asked-for indent is
    # invalid; an indent of 0 still prints one key per line
    code, out = run_cli(capsys, monkeypatch,
                        ["--command", command, "--json-indent", "-3"], TREFOIL)
    assert code == 2
    assert out.count("\n") == 1
    assert json.loads(out) == {"error": {
        "kind": "InvalidRange", "detail": "json_indent must be non-negative, got -3"}}
    code, out = run_cli(capsys, monkeypatch,
                        ["--command", "det", "--json-indent", "0"], TREFOIL)
    assert code == 0 and json.loads(out)["det"] == 3
    assert out.count("\n") == 7


def _count_diagram_facts(monkeypatch) -> dict:
    """Lists that grow by one per Diagram built, per union-find pass over
    the projection's pieces and per planar map traced."""
    import cubekh.diagram as diagram
    made: dict = {"diagrams": [], "passes": [], "maps": []}

    def counted(cls, key):
        class Counted(cls):
            def __init__(self, *args, **kwargs):
                made[key].append(args)
                super().__init__(*args, **kwargs)
        monkeypatch.setattr(diagram, cls.__name__, Counted)

    counted(diagram.Diagram, "diagrams")
    counted(diagram._UnionFind, "passes")
    counted(diagram.PlanarMap, "maps")
    return made


def test_det_job_makes_one_union_find_pass(capsys, monkeypatch):
    # parsing, link_det and the Goeritz matrix share one pass over the
    # projection's components and one planar map
    from cubekh.acceptance import corpus
    made = _count_diagram_facts(monkeypatch)
    passes, maps = made["passes"], made["maps"]
    for d in [None] + corpus()[:20]:
        payload = TREFOIL if d is None else {"pd": [list(c) for c in d.crossings]}
        passes.clear()
        maps.clear()
        code, out = run_cli(capsys, monkeypatch, ["--command", "det"], payload)
        assert code == 0
        blob = json.loads(out)
        assert blob["det"] == blob["oracles"]["goeritz"] == blob["oracles"]["state_sum"]
        assert len(passes) == 1
        assert len(maps) == 1


@pytest.mark.parametrize("payload, h1, built", [
    (TREFOIL, {"free_rank": 0, "invariant_factors": [3], "order": 3, "pretty": "Z/3"}, [1, 1, 1]),
    ({"pd": TREFOIL["pd"] + [[7, 9, 8, 10], [9, 7, 10, 8]]},
     {"free_rank": 1, "invariant_factors": [6], "order": None, "pretty": "Z/6 + Z"},
     [1, 1, 1]),
], ids=["trefoil", "trefoil_split_hopf"])
def test_h1_job_builds_each_diagram_fact_once(capsys, monkeypatch, payload, h1, built):
    # built: Diagrams, union-find passes and planar maps.  The Goeritz
    # matrix of a split diagram is read off its one planar map, so it too
    # makes one of each
    made = _count_diagram_facts(monkeypatch)
    code, out = run_cli(capsys, monkeypatch, ["--command", "h1"], payload)
    assert code == 0
    assert json.loads(out) == {"h1": h1}
    assert [len(v) for v in made.values()] == built


def test_h1_free_loops_limit(capsys, monkeypatch):
    from cubekh.cli import MAX_H1_FREE_LOOPS
    code, out = run_cli(capsys, monkeypatch, ["--command", "h1"],
                        {"pd": [], "free_loops": MAX_H1_FREE_LOOPS})
    assert code == 0
    assert json.loads(out)["h1"]["free_rank"] == MAX_H1_FREE_LOOPS - 1
    code, out = run_cli(capsys, monkeypatch, ["--command", "h1"],
                        {"pd": [], "free_loops": MAX_H1_FREE_LOOPS + 1})
    assert code == 3
    assert json.loads(out)["error"] == {
        "kind": "budget", "detail": f"{MAX_H1_FREE_LOOPS + 1} free loops exceed "
                                    f"the h1 limit of {MAX_H1_FREE_LOOPS}"}


def _over_and_at_limit(capsys, monkeypatch, command, over, at):
    """The refusal's detail for `command` on the payload `over`, one over
    its size limit, which must be refused within 0.1 s and a 1 MB
    tracemalloc peak, and the exit code and output on `at`, at the limit."""
    import time
    import tracemalloc
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        code, out = run_cli(capsys, monkeypatch, ["--command", command], over)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and json.loads(out)["error"]["kind"] == "budget"
    assert elapsed < 0.1 and peak < 1 << 20
    return json.loads(out)["error"]["detail"], run_cli(capsys, monkeypatch,
                                                       ["--command", command], at)


def test_h1_crossings_limit(capsys, monkeypatch):
    # the Goeritz matrix grows with the crossings: one crossing over the
    # limit is refused before the diagram's matrix is built
    from cubekh.cli import MAX_H1_CROSSINGS
    from cubekh.corpus import braid_closure

    def closure(n):
        d = braid_closure(([1, -2] * n)[:n], 3)
        return {"pd": [list(c) for c in d.crossings]}

    detail, (code, out) = _over_and_at_limit(
        capsys, monkeypatch, "h1", closure(MAX_H1_CROSSINGS + 1), closure(MAX_H1_CROSSINGS))
    assert detail == (f"{MAX_H1_CROSSINGS + 1} crossings exceed the h1 limit "
                      f"of {MAX_H1_CROSSINGS}")
    assert code == 0 and "h1" in json.loads(out)


def test_plumbing_vertices_limit(capsys, monkeypatch):
    # the linking matrix and its determinant grow with the vertices: one
    # vertex over the limit is refused before the matrix is built
    from cubekh.surgery import MAX_PLUMBING_VERTICES

    def graph(n):
        return {"plumbing": {"mult": [-2] * n}}

    detail, (code, out) = _over_and_at_limit(
        capsys, monkeypatch, "plumbing", graph(MAX_PLUMBING_VERTICES + 1),
        graph(MAX_PLUMBING_VERTICES))
    assert detail == (f"plumbing graph of {MAX_PLUMBING_VERTICES + 1} vertices exceeds "
                      f"the budget of {MAX_PLUMBING_VERTICES} vertices")
    assert code == 0 and json.loads(out)["h1"] == 2 ** MAX_PLUMBING_VERTICES


def test_surgery_components_limit(capsys, monkeypatch):
    # the filled linking matrix is brought to Smith normal form: one
    # component over the limit is refused before surgered_h1 builds it
    import cubekh.cli as cli
    from cubekh.cli import MAX_SURGERY_COMPONENTS
    calls, real = [], cli.surgered_h1
    monkeypatch.setattr(cli, "surgered_h1",
                        lambda *args: calls.append(args) or real(*args))

    def chain(n):
        # the linear plumbing of -2 spheres: H1 = Z/(n + 1)
        linking = [[-2 if i == j else int(abs(i - j) == 1) for j in range(n)]
                   for i in range(n)]
        return {"linking": linking, "v": [0] * n}

    code, out = run_cli(capsys, monkeypatch, ["--command", "surgery"],
                        chain(MAX_SURGERY_COMPONENTS + 1))
    err = json.loads(out)["error"]
    assert code == 3 and err["kind"] == "budget" and calls == []
    assert err["detail"] == (f"{MAX_SURGERY_COMPONENTS + 1} components exceed the "
                             f"surgery limit of {MAX_SURGERY_COMPONENTS}")
    code, out = run_cli(capsys, monkeypatch, ["--command", "surgery"],
                        chain(MAX_SURGERY_COMPONENTS))
    assert code == 0 and json.loads(out)["euler"] == MAX_SURGERY_COMPONENTS + 1
    assert len(calls) == 1 and len(calls[0][1]) == MAX_SURGERY_COMPONENTS


def test_env_budget(capsys, monkeypatch):
    # the cube budget is set by --max-crossings alone; the environment
    # variable of that name is not read
    monkeypatch.setenv("CUBEKH_MAX_CROSSINGS", "2")
    code, out = run_cli(capsys, monkeypatch, ["--command", "kh"], TREFOIL)
    assert code == 0 and json.loads(out)["total"] == 6


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


@pytest.mark.parametrize("raw, detail", [
    ("[" * 100000 + "]" * 100000, "maximum recursion depth exceeded"),
    ('{"pd": [], "free_loops": ' + "1" * 5000 + "}", "Exceeds the limit"),
], ids=["nested", "long_int"])
def test_undecodable_json_is_invalid_input(capsys, monkeypatch, raw, detail):
    # the decoder's recursion and digit limits are bad input, not a fault
    monkeypatch.setattr("sys.stdin", io.StringIO(raw))
    code = main(["--command", "det"])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 2
    assert error["kind"] == "JobError"
    assert error["detail"].startswith("input is not valid JSON: ")
    assert detail in error["detail"]


def test_non_utf8_input_file_is_invalid_input(capsys, tmp_path):
    path = tmp_path / "payload.json"
    path.write_bytes(b'{"pd": [], "free_loops": 1, "note": "\xff"}')
    code = main(["--command", "det", "--input", str(path)])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 2
    assert error["kind"] == "JobError"
    assert error["detail"].startswith("input is not valid JSON: 'utf-8' codec can't decode")


def test_key_error_inside_a_job_exits_internal(capsys, monkeypatch):
    # a KeyError a job raises is a fault of the library, not bad input
    def broken(d, max_crossings=None):
        raise KeyError(7)

    monkeypatch.setattr("cubekh.cli.checked_det", broken)
    code, out = run_cli(capsys, monkeypatch, ["--command", "det"], TREFOIL)
    assert code == 1
    assert json.loads(out)["error"] == {"kind": "internal", "detail": "KeyError: 7"}


def test_run_job_twisted_matches_khr_total():
    out = run_job("twisted", TREFOIL)
    assert out["total"] == 3


# --- internal inconsistencies and input hardening ------------------------------

def test_internal_inconsistency_is_not_validation():
    from cubekh.errors import InternalInconsistency, ValidationError
    assert not issubclass(InternalInconsistency, ValidationError)


def test_disagreeing_hd_constructions_exit_internal(capsys, monkeypatch):
    import cubekh.khovanov as kh
    monkeypatch.setattr(kh, "_hd_even", lambda tw: {})
    for cmd in ("hd", "ss"):
        code, out = run_cli(capsys, monkeypatch, ["--command", cmd], TREFOIL)
        assert code == 1, cmd
        err = json.loads(out)["error"]
        assert err["kind"] == "internal" and "disagree" in err["detail"]


@pytest.mark.parametrize("cmd", ["hd", "ss"])
def test_one_e2_check_per_job(capsys, monkeypatch, cmd):
    # the hd job runs through both public dotted entries, once each, and
    # every job checks its E^2 page once
    import cubekh.cli as cli
    import cubekh.khovanov as kh
    calls = []

    def counted(name):
        real = getattr(kh, name)
        return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    for name in ("hd_even_subcomplex", "vertical_then_horizontal_ranks", "_checked_e2"):
        monkeypatch.setattr(kh, name, counted(name))
    monkeypatch.setattr(cli, "hd_even_subcomplex", kh.hd_even_subcomplex)
    code, _ = run_cli(capsys, monkeypatch, ["--command", cmd], _braid6_marked())
    assert code == 0
    assert calls == (["hd_even_subcomplex", "vertical_then_horizontal_ranks", "_checked_e2"]
                     if cmd == "hd" else ["_checked_e2"])


def _corpus_link_marked():
    from cubekh.acceptance import CORPUS_MAX_CROSSINGS, CORPUS_SEED
    from cubekh.corpus import diagram_corpus, random_compatible_marking
    d = next(d for d in diagram_corpus(CORPUS_SEED, 100, CORPUS_MAX_CROSSINGS)
             if len(d.components) > 1 and d.n >= 5)
    m = random_compatible_marking(d, random.Random(7))
    return {"pd": [list(c) for c in d.crossings], "free_loops": d.free_loops,
            "marking": {"arcs": list(m.bits)}}


@pytest.mark.parametrize("cmd", ["twisted", "hd", "ss"])
@pytest.mark.parametrize("payload", [TREFOIL, _corpus_link_marked()],
                         ids=["trefoil", "corpus_link"])
def test_twisted_jobs_place_one_layout(capsys, monkeypatch, cmd, payload):
    # the twisted complex is placed once, in total degree, through the one
    # public entry: no job copies cells into a total complex or ranks a d_v
    # cell on its own
    import sys
    import cubekh.khovanov as kh
    from cubekh import complexes, linalg
    entries = []
    real_entry = kh.twisted_complex
    monkeypatch.setattr(kh, "twisted_complex",
                        lambda *args: entries.append(1) or real_entry(*args))

    def refused(*args, **kwargs):
        raise AssertionError("a twisted job built a second layout")

    for fn in (complexes.block_matrix, complexes.total_complex, linalg.f2_rank):
        for name, module in list(sys.modules.items()):
            if name == "cubekh" or name.startswith("cubekh."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, refused)
    code, out = run_cli(capsys, monkeypatch, ["--command", cmd], payload)
    assert code == 0, out
    assert len(entries) == 1


@pytest.mark.parametrize("page, detail", [
    (1, "E^1 page does not match the all-even generator count"),
    (-1, "E^infinity does not match total homology")])
def test_corrupted_page_exits_internal(capsys, monkeypatch, page, detail):
    # one generator too many on E^1 or on E^infinity leaves E^2 as it is,
    # so the E^2 check passes and the page's own check refuses it
    import cubekh.khovanov as kh
    from cubekh.complexes import SpectralPages
    real = kh.spectral_pages

    def corrupted(fc):
        sp = real(fc)
        assert len(sp.pages) > 3
        pages = list(sp.pages)
        table = pages[page] = dict(pages[page])
        key = min(table)
        table[key] += 1
        return SpectralPages(tuple(pages), sp.d_ranks, sp.stabilization_index)

    monkeypatch.setattr(kh, "spectral_pages", corrupted)
    code, out = run_cli(capsys, monkeypatch, ["--command", "ss"], TREFOIL)
    assert code == 1
    assert json.loads(out)["error"] == {"kind": "internal", "detail": detail}


def _braid6_marked():
    from cubekh.corpus import braid_closure, random_compatible_marking
    d = braid_closure([1, -2, 1, -2, 1, -2], 3)
    m = random_compatible_marking(d, random.Random(6))
    return {"pd": [list(c) for c in d.crossings], "marking": {"arcs": list(m.bits)}}


@pytest.mark.parametrize("cmd", ["hd", "ss"])
@pytest.mark.parametrize("payload", [TREFOIL, _braid6_marked()],
                         ids=["trefoil", "braid6_marked"])
def test_one_edge_map_pass_per_job(capsys, monkeypatch, cmd, payload):
    # the E^2 page and the even-vertex subcomplex come from one twisted
    # complex, which builds the map of each shape once at the marked pair
    # of arc 1's circles: no two calls share a key, and every key of the
    # cube gets its call
    import cubekh.khovanov as kh
    from cube_oracle import edge_triples
    from cubekh.diagram import parse_pd
    real_edge_map = kh.edge_map
    calls = []

    def counted(shape, marked=None):
        calls.append((shape, marked))
        return real_edge_map(shape, marked)

    monkeypatch.setattr(kh, "edge_map", counted)
    code, _ = run_cli(capsys, monkeypatch, ["--command", cmd], payload)
    assert code == 0
    assert len(set(calls)) == len(calls)
    d = parse_pd(payload["pd"])
    cube = kh.build_cube(d)
    keys = set()
    for source, target, shape in edge_triples(cube):
        s, t = cube.states[source], cube.states[target]
        keys.add((cube.shapes[shape], (s.arc_to_circle[1], t.arc_to_circle[1])))
    assert set(calls) == keys
    assert len(calls) < len(cube.edges)


def test_disagreeing_det_oracles_exit_internal(capsys, monkeypatch):
    monkeypatch.setattr("cubekh.branched.link_det", lambda d: 5)
    code, out = run_cli(capsys, monkeypatch, ["--command", "det"], TREFOIL)
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "internal", "detail": "det oracles disagree: 5 vs 3"}


@pytest.mark.parametrize("target, fake, detail", [
    # 9 is odd like 7, so the cokernel's mod-2 check passes and only the
    # determinant catches the misread Smith form
    ("cubekh.linalg.smith_normal_form", lambda a: [9], "9 vs 7"),
    ("cubekh.linalg.det_bareiss", lambda a: 8, "7 vs 8"),
], ids=["smith_form", "determinant"])
def test_disagreeing_surgery_orders_exit_internal(capsys, monkeypatch, target, fake, detail):
    monkeypatch.setattr(target, fake)
    code, out = run_cli(capsys, monkeypatch, ["--command", "surgery"],
                        {"linking": [[0]], "frames": [7], "v": [0]})
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "internal",
        "detail": f"|H1| from the Smith form disagrees with the determinant: {detail}"}


def test_wrong_odd_smith_form_exits_h1_internal(capsys, monkeypatch):
    # the trefoil's Goeritz matrix [[-2, 1], [1, -2]] has rank 2 mod 2 and
    # determinant 3; the diagonal [1, 5] has two odd entries, so only the
    # determinant catches it
    monkeypatch.setattr("cubekh.linalg.smith_normal_form", lambda a: [1, 5])
    code, out = run_cli(capsys, monkeypatch, ["--command", "h1"], TREFOIL)
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "internal",
        "detail": "|H1| from the Smith form disagrees with the determinant: 5 vs 3"}


@pytest.mark.parametrize("chi, detail", [
    # chi(i) = 0 and chi'(i) = 6 + 8i, so P(i) = 3 + 4i: its norm 25 is a
    # perfect square, but P(i) must be real or imaginary
    ({-1: 3, 0: 4, 1: 3, 2: 4}, "bracket at q = i is 3+4i, with two nonzero parts"),
    ({0: 1}, "graded Euler characteristic is 1+0i at q = i, not 0"),
], ids=["two_parts", "no_zero_at_i"])
def test_bad_euler_sum_exits_det_internal(capsys, monkeypatch, chi, detail):
    import cubekh.khovanov as kh
    calls = []

    def fake_sum(d):
        calls.append(d)
        return dict(chi)

    monkeypatch.setattr(kh, "_euler_state_sum", fake_sum)
    code, out = run_cli(capsys, monkeypatch, ["--command", "det"], TREFOIL)
    assert code == 1 and len(calls) == 1
    assert json.loads(out)["error"] == {"kind": "internal", "detail": detail}


def test_det_job_walks_the_diagram_once(capsys, monkeypatch):
    import cubekh.khovanov as kh
    real_sum = kh._euler_state_sum
    calls = []

    def counted_sum(d):
        calls.append(d)
        return real_sum(d)

    monkeypatch.setattr(kh, "_euler_state_sum", counted_sum)
    code, out = run_cli(capsys, monkeypatch, ["--command", "det"], TREFOIL)
    assert code == 0 and json.loads(out)["det"] == 3
    assert len(calls) == 1


@pytest.mark.parametrize("cmd, walks", [
    ("det", 1), ("kh", 1), ("khr", 1), ("twisted", 1), ("hd", 1), ("ss", 1),
    ("rankcheck", 1), ("qa", 2)])
def test_frontier_walks_per_job(capsys, monkeypatch, cmd, walks):
    # a diagram keeps its Euler sum, so a job that checks it twice (rankcheck:
    # det, then the Khr cells) walks it once; qa walks each simplified
    # diagram it meets once (the trefoil and its Hopf link child; the
    # unknots need no walk)
    import cubekh.diagram as diagram
    real_steps = diagram._frontier_steps
    calls = []

    def counted_steps(d):
        calls.append(d)
        return real_steps(d)

    monkeypatch.setattr(diagram, "_frontier_steps", counted_steps)
    code, _ = run_cli(capsys, monkeypatch, ["--command", cmd], TREFOIL)
    assert code == 0
    assert len(calls) == walks
    assert len({id(d) for d in calls}) == walks


def test_kept_euler_sum_is_handed_out_as_a_copy():
    from cubekh.diagram import _euler_state_sum, parse_pd
    d = parse_pd(TREFOIL["pd"])
    chi = _euler_state_sum(d)
    chi[0] = chi.get(0, 0) + 7
    assert _euler_state_sum(d) != chi
    assert _euler_state_sum(d) == _euler_state_sum(parse_pd(TREFOIL["pd"]))


@pytest.mark.parametrize("cmd, check", [
    ("kh", "NotAComplex"), ("khr", "NotAComplex"), ("twisted", "NotBicomplex"),
    ("hd", "NotBicomplex"), ("ss", "NotBicomplex")])
def test_failed_complex_checks_exit_internal(capsys, monkeypatch, cmd, check):
    # zeroing the map of the shape of the trefoil's edge out of state 0 at
    # crossing 0 breaks a face of the cube; the diagram is valid, so this is
    # a bug and not bad input
    import cubekh.khovanov as kh
    from cube_oracle import edge_triples
    from cubekh.diagram import parse_pd
    from cubekh.linalg import MatF2
    real_edge_map = kh.edge_map
    cube = kh.build_cube(parse_pd(TREFOIL["pd"]))
    victim = next(cube.shapes[shape] for s, t, shape in edge_triples(cube) if (s, t) == (0, 1))

    def broken_edge_map(shape, marked=None):
        m = real_edge_map(shape, marked)
        if shape == victim:
            return MatF2.zero(m.nrows, m.ncols)
        return m

    monkeypatch.setattr(kh, "edge_map", broken_edge_map)
    code, out = run_cli(capsys, monkeypatch, ["--command", cmd], TREFOIL)
    assert code == 1
    err = json.loads(out)["error"]
    assert err["kind"] == "internal"
    assert err["detail"].startswith(check + ": ")


@pytest.mark.parametrize("cmd", ["kh", "khr", "twisted"])
def test_quantum_grading_check_exits_internal(capsys, monkeypatch, cmd):
    # moving one entry of each edge map to the target row with its lowest
    # bit flipped puts it in another exterior degree, so the map no longer
    # preserves the quantum grading; the diagram is valid, so this is a bug
    import cubekh.khovanov as kh
    from cubekh.linalg import MatF2
    real_edge_map = kh.edge_map

    def moved_edge_map(shape, marked=None):
        m = real_edge_map(shape, marked)
        rows = list(m.rows)
        for i, row in enumerate(rows):
            if row and i ^ 1 < len(rows):
                rows[i] ^= row & -row
                rows[i ^ 1] ^= row & -row
                break
        return MatF2(m.nrows, m.ncols, tuple(rows))

    monkeypatch.setattr(kh, "edge_map", moved_edge_map)
    code, out = run_cli(capsys, monkeypatch, ["--command", cmd], TREFOIL)
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "internal", "detail": "d_h must preserve the quantum grading"}


@pytest.mark.parametrize("cmd", ["kh", "khr", "twisted", "hd", "ss"])
def test_euler_check_exits_internal(capsys, monkeypatch, cmd):
    # one coefficient of the state sum moved by one: the cells no longer
    # match it at that q, which the error names; the twisted complex holds
    # the reduced generators, so twisted, hd and ss check them the same way
    import cubekh.khovanov as kh
    real_sum = kh._euler_state_sum
    checked = []

    def moved_sum(d):
        poly = real_sum(d)
        checked.append(d)
        poly[3] = poly.get(3, 0) + 1
        return poly

    monkeypatch.setattr(kh, "_euler_state_sum", moved_sum)
    code, out = run_cli(capsys, monkeypatch, ["--command", cmd], TREFOIL)
    assert code == 1 and len(checked) == 1
    assert json.loads(out)["error"] == {
        "kind": "internal",
        "detail": "graded Euler characteristic at q-block 3: the cells give -1, "
                  "the state sum 0"}


@pytest.mark.parametrize("payload, kh_total, khr_total", [
    ({"pd": []}, 1, 0), ({"pd": [], "free_loops": 2}, 4, 2)],
    ids=["empty", "two_loops"])
def test_kh_and_khr_without_crossings(capsys, monkeypatch, payload, kh_total, khr_total):
    # the empty link has no circle to mark, so its kh is not twice its khr
    for args, total in ((["--command", "kh"], kh_total),
                        (["--command", "khr"], khr_total)):
        code, out = run_cli(capsys, monkeypatch, args, payload)
        assert code == 0 and json.loads(out)["total"] == total, args
    code, out = run_cli(capsys, monkeypatch, ["--command", "kh"], {"pd": []})
    assert json.loads(out)["ranks"] == {"h": {"0": 1}, "i": {"0": 1}}


def test_internal_checks_survive_optimize_flag():
    # the invariant checks in twisted_complex and in the psi oracle's
    # check_psi_naturality are explicit raises, so `python -O` keeps them
    import os
    import subprocess
    import sys
    script = """
import cubekh.khovanov as kh
from cubekh.corpus import small_knot
from cubekh.diagram import ArcMarking
from cubekh.errors import InternalInconsistency
d = small_knot("3_1")
real_build = kh.build_cube
def odd_cube(d, max_crossings=None):
    # a circle more in the all-0 state flips the vertical degree's parity
    cube = real_build(d, max_crossings)
    cube.states[0] = cube.states[0]._replace(n_circles=cube.states[0].n_circles + 1)
    return cube
kh.build_cube = odd_cube
try:
    kh.twisted_complex(d, ArcMarking.zero(d))
except InternalInconsistency:
    print("twisted")
kh.build_cube = real_build
import psi_oracle
real_psi = psi_oracle.psi_identification
def reversed_psi(state, marked):
    model, psi = real_psi(state, marked)
    return model, dict(zip(psi, reversed(list(psi.values()))))
psi_oracle.psi_identification = reversed_psi
try:
    psi_oracle.check_psi_naturality(kh.build_cube(d))
except InternalInconsistency:
    print("psi")
"""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["twisted", "psi"]


def test_free_loops_mark_their_first_loop(capsys, monkeypatch):
    # a diagram of free loops has no arcs, so its first loop is marked; the
    # empty diagram marks nothing, so its Khr is zero
    code, out = run_cli(capsys, monkeypatch, ["--command", "khr"],
                        {"pd": [], "free_loops": 1})
    assert code == 0 and json.loads(out)["total"] == 1
    code, out = run_cli(capsys, monkeypatch, ["--command", "khr"], {"pd": []})
    assert code == 0 and json.loads(out)["total"] == 0


@pytest.mark.parametrize("cmd", ["khr", "twisted", "hd", "ss"])
@pytest.mark.parametrize("basepoint", [99, 0, -3])
def test_bad_basepoint_rejected_without_arcs(capsys, monkeypatch, cmd, basepoint):
    # a reduced job on a diagram of free loops marks its first loop; no
    # basepoint reaches it, through the CLI or the command's public entry,
    # and none gets a state resolved
    import cubekh.khovanov as kh
    from cubekh.diagram import ArcMarking, Diagram
    loops = {"pd": [], "free_loops": 2}
    resolved = []
    real_resolve = kh.resolve

    def counting_resolve(*args, **kwargs):
        resolved.append(args[1])
        return real_resolve(*args, **kwargs)

    monkeypatch.setattr(kh, "resolve", counting_resolve)
    d = Diagram([], free_loops=2)
    entry = {"khr": kh.khr_ranks, "twisted": kh.twisted_total_ranks,
             "hd": kh.hd_even_subcomplex, "ss": kh.weight_ss}[cmd]
    args = (d,) if cmd == "khr" else (d, ArcMarking.zero(d))
    with pytest.raises(TypeError, match="basepoint"):
        entry(*args, basepoint=basepoint)
    with pytest.raises(SystemExit) as exit_:
        run_cli(capsys, monkeypatch, ["--command", cmd, "--basepoint", str(basepoint)], loops)
    assert exit_.value.code == 2
    assert resolved == []
    code, out = run_cli(capsys, monkeypatch, ["--command", cmd], loops)
    assert code == 0 and resolved == [()]


def test_bad_marking_rejected_before_resolving(capsys, monkeypatch):
    # a marking is checked against the diagram alone, so no state is resolved
    import cubekh.khovanov as kh
    resolved = []
    real_resolve = kh.resolve

    def counting_resolve(*args, **kwargs):
        resolved.append(args[1])
        return real_resolve(*args, **kwargs)

    monkeypatch.setattr(kh, "resolve", counting_resolve)
    for cmd in ("twisted", "hd", "ss"):
        details = set()
        for bits in ([1, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0]):     # short, odd
            code, out = run_cli(capsys, monkeypatch, ["--command", cmd],
                                dict(TREFOIL, marking={"arcs": bits}))
            assert code == 2, cmd
            err = json.loads(out)["error"]
            assert err["kind"] == "IncompatibleMarking", cmd
            details.add(err["detail"])
            assert resolved == [], cmd
        assert details == {"marking has 5 bits for 6 arcs",
                           "arc marking must have even total parity to define "
                           "a two-fold datum"}, cmd
        # a compatible marking builds the one cube, which resolves state 0
        code, _ = run_cli(capsys, monkeypatch, ["--command", cmd],
                          dict(TREFOIL, marking={"arcs": [1, 1, 0, 0, 0, 0]}))
        assert code == 0 and resolved == [(0, 0, 0)], cmd
        resolved.clear()


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


@pytest.mark.parametrize("cmd, payload, kind, detail", [
    ("lspace", {"large_surgery": 5}, "JobError", "'large_surgery' must be a JSON object"),
    ("lspace", {"plumbing": 5}, "JobError", "'plumbing' must be a JSON object"),
    ("plumbing", {"plumbing": 5}, "JobError", "'plumbing' must be a JSON object"),
    ("plumbing", {"plumbing": {"mult": [2, 2], "edges": [[0]]}}, "JobError",
     "'edges' rows must be pairs of vertex indices"),
    ("lspace", {"plumbing": {"mult": [2, 2], "edges": [[0, 1, 1]]}}, "JobError",
     "'edges' rows must be pairs of vertex indices"),
    ("khr", dict(TREFOIL, orientation=5), "MalformedPD",
     "orientation must be a list of integer flags"),
    ("khr", dict(TREFOIL, orientation={"1": 1}), "MalformedPD",
     "orientation must be a list of integer flags"),
    ("lspace", {"plumbing": {"mult": [2, 2], "edges": [[0, 1]]},
                "large_surgery": {"p": 2, "q": 3, "n": 6}}, "JobError",
     "lspace payload takes 'plumbing' or 'large_surgery', not both"),
    # refused by the constructors of ArcMarking, FramedLinkPresentation and
    # PlumbingGraph
    ("twisted", dict(TREFOIL, marking={"arcs": [2, 0, 0, 0, 0, 0]}),
     "IncompatibleMarking", "marking bits must be 0 or 1"),
    ("surgery", {"linking": [[0, 1]], "v": [0]}, "DimensionMismatch",
     "linking matrix must be square"),
    ("surgery", {"linking": [[0, 1], [2, 0]], "v": [0, 0]}, "DimensionMismatch",
     "linking matrix must be symmetric"),
    ("plumbing", {"plumbing": {"mult": [2, 2], "edges": [[1, 1]]}}, "DimensionMismatch",
     "plumbing graphs here have no self-loops"),
    ("lspace", {"plumbing": {"mult": [2, 2], "edges": [[0, 5]]}}, "DimensionMismatch",
     "edge (0,5) out of range"),
])
def test_wrongly_shaped_inputs_rejected(capsys, monkeypatch, cmd, payload, kind, detail):
    # refused with a reason that names the key, not a Python error
    code, out = run_cli(capsys, monkeypatch, ["--command", cmd], payload)
    assert code == 2
    assert json.loads(out)["error"] == {"kind": kind, "detail": detail}


@pytest.mark.parametrize("budget, code, error", [
    (-1, 2, {"kind": "JobError", "detail": "qa budget must be non-negative, got -1"}),
    (MAX_QA_BUDGET + 1, 3, {"kind": "budget", "detail":
                            f"qa budget {MAX_QA_BUDGET + 1} exceeds the limit of {MAX_QA_BUDGET}"}),
])
def test_qa_budget_out_of_range_refused_before_search(capsys, monkeypatch, budget,
                                                       code, error):
    def no_search(*args, **kwargs):
        raise AssertionError("searched with a refused budget")

    monkeypatch.setattr("cubekh.branched.simplify_greedy", no_search)
    got, out = run_cli(capsys, monkeypatch, ["--command", "qa"], dict(TREFOIL, budget=budget))
    assert got == code
    assert json.loads(out)["error"] == error


def _torus_8():
    from cubekh.corpus import braid_closure
    return {"pd": [list(c) for c in braid_closure([1, 2] * 4, 3).crossings]}


@pytest.mark.parametrize("payload, reason", [
    (dict(TREFOIL, budget=0), "budget"),
    (_torus_8(), "exhausted"),
], ids=["trefoil_budget_0", "torus_s1s2_4"])
def test_qa_unknown_says_why(capsys, monkeypatch, payload, reason):
    code, out = run_cli(capsys, monkeypatch, ["--command", "qa"], payload)
    assert code == 0
    assert json.loads(out) == {"verdict": "unknown", "reason": reason}
    # a certified verdict carries no reason, at the largest budget too
    code, out = run_cli(capsys, monkeypatch, ["--command", "qa"],
                        dict(TREFOIL, budget=MAX_QA_BUDGET))
    assert code == 0 and sorted(json.loads(out)) == ["certificate", "verdict"]


def _alternating_16():
    from cubekh.corpus import braid_closure
    return {"pd": [list(c) for c in braid_closure([1, -2] * 8, 3).crossings]}


@pytest.mark.parametrize("budget, code, blob", [
    (0, 0, {"verdict": "unknown", "reason": "budget"}),
    (1, 3, {"error": {"kind": "budget",
                      "detail": "16 crossings exceeds the cube budget of 14"}}),
])
def test_qa_root_is_walked_after_the_node_budget_check(capsys, monkeypatch, budget,
                                                        code, blob):
    # the root's determinant is walked only once the node budget lets the
    # search visit the root: budget 0 answers on a diagram over the cube
    # budget, and budget 1 walks the root and is refused
    got, out = run_cli(capsys, monkeypatch, ["--command", "qa"],
                       dict(_alternating_16(), budget=budget))
    assert got == code
    assert json.loads(out) == blob


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
], ids=["plumbing_triad_additivity", "plumbing_reverify", "large_surgery_reverify"])
def test_failed_surgery_cross_checks_exit_internal(capsys, monkeypatch, cmd,
                                                   payload, target, fake, detail):
    monkeypatch.setattr(target, fake)
    code, out = run_cli(capsys, monkeypatch, ["--command", cmd], payload)
    assert code == 1
    assert json.loads(out)["error"] == {"kind": "internal", "detail": detail}


@pytest.mark.parametrize("cmd, payload", [
    ("plumbing", {"plumbing": {"mult": [3] * 4, "edges": [[0, 1], [1, 2], [2, 3]]}}),
    ("lspace", {"plumbing": {"mult": [2, 2], "edges": [[0, 1]]}}),
    ("lspace", {"large_surgery": {"p": 2, "q": 3, "n": 9}}),
], ids=["plumbing", "lspace_plumbing", "lspace_large_surgery"])
def test_each_verdict_is_reverified_once(capsys, monkeypatch, cmd, payload):
    # the check that made the verdict re-verified it; the output's
    # "reverified" field does not walk the derivation a second time
    from cubekh.surgery import LSpaceVerdict
    calls, real = [], LSpaceVerdict.reverify

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(LSpaceVerdict, "reverify", counted)
    code, out = run_cli(capsys, monkeypatch, ["--command", cmd], payload)
    assert code == 0
    result = json.loads(out)
    assert result["verdict"] == "certified" and result["reverified"] is True
    assert len(calls) == 1


def test_plumbing_job_renders_each_distinct_step_once():
    # the ten-vertex chain's 17709 steps share 29 distinct steps, so its
    # derivation lists 29 dicts, and encodes as one dict per occurrence would
    from cubekh.surgery import PlumbingGraph, plumbing_lspace_check
    mult, edges = [3] * 10, [[i, i + 1] for i in range(9)]
    out = run_job("plumbing", {"plumbing": {"mult": mult, "edges": edges}})
    assert len(out["derivation"]) == 17709
    assert len({id(step) for step in out["derivation"]}) == 29
    verdict = plumbing_lspace_check(PlumbingGraph.from_lists(mult, edges))
    per_occurrence = [{"kind": s.kind, "description": s.description,
                       "orders": list(s.orders)} for s in verdict.derivation]
    assert json.dumps(out["derivation"]) == json.dumps(per_occurrence)


def test_plumbing_job_finds_components_once(monkeypatch):
    # the forest test, the hypotheses and the split into components share
    # one union-find pass
    from cubekh.surgery import PlumbingGraph
    calls, real = [], PlumbingGraph.component_vertices

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(PlumbingGraph, "component_vertices", counted)
    out = run_job("plumbing", {"plumbing": {"mult": [3, 2, 2, 2],
                                            "edges": [[0, 1], [2, 3]]}})
    assert out["verdict"] == "certified" and out["h1"] == 5 * 3
    assert len(calls) == 1
    for spec in ({"mult": [3, 3, 3], "edges": [[0, 1], [1, 2], [0, 2]]},   # a cycle
                 {"mult": [1, 1, 1], "edges": [[0, 1], [1, 2]]}):          # deg > mult
        calls.clear()
        out = run_job("plumbing", {"plumbing": spec})
        assert out["verdict"] == "not-applicable"
        assert len(calls) == 1


@pytest.mark.parametrize("passed, code", [(True, 0), (False, 1)])
def test_selftest_writes_one_json_document(capsys, monkeypatch, passed, code):
    # criterion 1 alone, or a stand-in that fails
    import cubekh.acceptance as acceptance
    monkeypatch.setattr(acceptance, "CRITERIA", acceptance.CRITERIA[:1] if passed
                        else (("1", "stand-in", lambda: (False, "x")),))
    got, out = run_cli(capsys, monkeypatch, ["--command", "selftest"])
    assert got == code
    blob = json.loads(out)                  # the whole of stdout, one document
    assert blob["passed"] is passed
    assert [c["number"] for c in blob["criteria"]] == ["1"]
    assert blob["criteria"][0]["passed"] is passed


def test_selftest_reports_a_criterion_that_raises(capsys, monkeypatch):
    # a library error out of one check fails that criterion and keeps the
    # report: the criteria after it still run
    import cubekh.acceptance as acceptance
    from cubekh.errors import InternalInconsistency

    def raises():
        raise InternalInconsistency("stand-in check failed")

    monkeypatch.setattr(acceptance, "CRITERIA", (("1", "raises", raises),
                                                 ("2", "passes", lambda: (True, "ok"))))
    got, out = run_cli(capsys, monkeypatch, ["--command", "selftest"])
    assert got == 1
    blob = json.loads(out)                  # the whole of stdout, one document
    assert blob == {"passed": False, "criteria": [
        {"number": "1", "name": "raises", "passed": False,
         "detail": "InternalInconsistency: stand-in check failed"},
        {"number": "2", "name": "passes", "passed": True, "detail": "ok"}]}


def test_cli_import_loads_what_jobs_reach_and_nothing_else():
    # every module some command's run_job reaches is imported up front; the
    # command line parser, dataclasses and the modules only selftest and the
    # tests use are not
    import os
    import subprocess
    import sys
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(here), "src"))
    out = subprocess.run([sys.executable, "-c", "import sys, cubekh.cli; print(*sys.modules)"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    loaded = set(out.stdout.split())
    assert loaded >= {f"cubekh.{m}" for m in ("diagram", "linalg", "complexes", "khovanov",
                                             "branched", "surgery")}
    assert not loaded & {"dataclasses", "argparse", "fractions", "cubekh.rgraded",
                         "cubekh.corpus", "cubekh.acceptance"}


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


def test_free_loops_answer_det_before_the_walk(capsys, monkeypatch):
    # a million free loops would make a state sum of degree 10^6: det is 0
    # for them without entering the frontier walk
    import tracemalloc

    def no_walk(d):
        raise AssertionError("walked a diagram with free loops")

    monkeypatch.setattr("cubekh.khovanov._euler_state_sum", no_walk)
    tracemalloc.start()
    try:
        code, out = run_cli(capsys, monkeypatch, ["--command", "det"],
                            {"pd": [], "free_loops": 1000000})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(out)["det"] == 0
    assert peak < 1 << 20


def test_plumbing_reaches_depth_budget_before_recursing(capsys, monkeypatch):
    # a leaf of multiplicity 5000 would take the leaf induction 5000 levels
    # deep, past Python's recursion limit: the budget stops the job first,
    # while a component at the budget still certifies
    import tracemalloc
    from cubekh.surgery import MAX_PLUMBING_DEPTH
    tracemalloc.start()
    try:
        code, out = run_cli(capsys, monkeypatch, ["--command", "plumbing"],
                            {"plumbing": {"mult": [5000, 2], "edges": [[0, 1]]}})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    err = json.loads(out)["error"]
    assert err["kind"] == "budget"
    assert "multiplicity sum 5002 exceeds" in err["detail"]
    assert peak < 1 << 20
    code, out = run_cli(capsys, monkeypatch, ["--command", "plumbing"],
                        {"plumbing": {"mult": [MAX_PLUMBING_DEPTH - 2, 2],
                                      "edges": [[0, 1]]}})
    assert code == 0
    assert json.loads(out)["verdict"] == "certified"


def test_plumbing_reaches_step_budget_before_outgrowing_it(capsys, monkeypatch):
    # a chain of multiplicity-3 vertices takes about 2.6 times more steps
    # per added vertex (6763 for nine, 17709 for ten): at a budget of 6763
    # the nine-vertex chain still certifies and the ten-vertex chain stops
    # at the budget, before its derivation is written out
    import tracemalloc
    monkeypatch.setattr("cubekh.surgery.MAX_PLUMBING_STEPS", 6763)

    def chain(k):
        return {"plumbing": {"mult": [3] * k, "edges": [[i, i + 1] for i in range(k - 1)]}}

    code, out = run_cli(capsys, monkeypatch, ["--command", "plumbing"], chain(9))
    assert code == 0
    assert len(json.loads(out)["derivation"]) == 6763
    tracemalloc.start()
    try:
        code, out = run_cli(capsys, monkeypatch, ["--command", "plumbing"], chain(10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    err = json.loads(out)["error"]
    assert err["kind"] == "budget"
    assert "exceeds the budget of 6763 leaf-induction steps" in err["detail"]
    assert peak < 4 << 20


def test_over_budget_derivation_refused_before_any_step(capsys, monkeypatch):
    # the 13-vertex chain needs more than MAX_PLUMBING_STEPS steps; counting
    # them over its few distinct graphs refuses it before any step's order
    # is computed or any step is listed
    import time
    import tracemalloc

    import cubekh.surgery as surgery
    orders = []
    real_order = surgery.plumbing_h1_order
    monkeypatch.setattr(surgery, "plumbing_h1_order",
                        lambda g: orders.append(g) or real_order(g))
    chain = {"plumbing": {"mult": [3] * 13, "edges": [[i, i + 1] for i in range(12)]}}
    t0 = time.perf_counter()
    code, _ = run_cli(capsys, monkeypatch, ["--command", "plumbing"], chain)
    elapsed = time.perf_counter() - t0
    assert code == 3
    assert elapsed < 0.1
    # the refused derivation computed the root's order and no step's
    assert len(orders) == 1 and orders[0].vertices == 13
    tracemalloc.start()
    try:
        code, out = run_cli(capsys, monkeypatch, ["--command", "plumbing"], chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    err = json.loads(out)["error"]
    assert err["kind"] == "budget"
    assert "exceeds the budget of 200000 leaf-induction steps" in err["detail"]
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
