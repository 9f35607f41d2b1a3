"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs small jobs of every command, then checks that
  * a setup sample leaves the run's own modules in place;
  * the speed probe does fixed work, imports nothing of cubekh, and each job
    of a probed pass gets the probes taken around it;
  * every oracle accepts the true outputs and rejects each deliberately
    corrupted one (a khr total off by one, an E-infinity total off by one,
    a wrong plumbing order, ...);
  * every traced function exists at this commit, tracing leaves outputs
    unchanged, uninstalling restores the original functions, and a target
    that no longer exists is reported as missing (None), never as zero;
  * traced self times sum to no more than the traced wall time.
Exits 1 and names the failing check if any fails.
"""

import ast
import copy
import json
import os
import random
import sys
import time

import run as harness  # first, so its module baseline holds no cubekh module

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import cubekh.cli as cli  # noqa: E402
import oracles  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from cubekh.corpus import braid_closure, rational_link  # noqa: E402
from jobs import Job, diagram_payload, do_job  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def diagram_jobs(specs):
    """specs: (diagram, commands, alternating, marking seed or None)."""
    jobs = []
    for group, (d, commands, alternating, seed) in enumerate(specs):
        text = json.dumps(diagram_payload(d, None if seed is None else random.Random(seed)))
        for cmd in commands:
            jobs.append(Job(len(jobs), cmd, text,
                            {"group": group, "n": d.n, "alternating": alternating}))
    return jobs


def run(jobs):
    return {j.index: json.loads(do_job(cli, j)) for j in jobs}


def rejects(workload, jobs, outputs, index, mutate, what):
    bad_outputs = copy.deepcopy(outputs)
    mutate(bad_outputs[index])
    expect(bool(oracles.check(workload, jobs, bad_outputs)), f"{workload}: rejects {what}")


def first(jobs, command):
    return next(j.index for j in jobs if j.command == command)


def check_oracles():
    cube = diagram_jobs([(rational_link([3, 2]), ("khr", "kh"), True, None),
                         (braid_closure([1, -2, 1, 2, 2], 3), ("khr", "kh"), False, None)])
    out = run(cube)
    expect(not oracles.check("cube_khr_kh", cube, out), "cube_khr_kh: accepts true outputs")
    rejects("cube_khr_kh", cube, out, first(cube, "khr"),
            lambda o: o.update(total=o["total"] + 1), "a khr total off by one")
    rejects("cube_khr_kh", cube, out, first(cube, "kh"),
            lambda o: o.update(total=o["total"] + 2), "a kh total off by two")

    ss = diagram_jobs([(rational_link([2, 1, 2]), ("ss", "hd", "twisted"), True, 7)])
    out = run(ss)
    expect(not oracles.check("ss_marked", ss, out), "ss_marked: accepts true outputs")
    rejects("ss_marked", ss, out, first(ss, "ss"),
            lambda o: o.update(total=o["total"] + 1), "an E-infinity total off by one")
    rejects("ss_marked", ss, out, first(ss, "hd"),
            lambda o: o.update(total=o["total"] + 1), "an hd total off by one")
    rejects("ss_marked", ss, out, first(ss, "twisted"),
            lambda o: o.update(total=o["total"] + 1), "a twisted total off by one")

    qa = diagram_jobs([(rational_link([3, 1, 2]), ("qa", "det", "h1"), True, None),
                       (braid_closure([1, 2] * 4, 3), ("qa", "det", "h1"), False, None)])
    arith = [("plumbing", {"plumbing": {"mult": [3, 3, 3], "edges": [[0, 1], [1, 2]]}}),
             ("plumbing", {"plumbing": {"mult": [4, 2, 2, 2],
                                        "edges": [[0, 1], [0, 2], [0, 3]]}}),
             ("surgery", {"linking": [[0, 1], [1, 0]], "frames": [3, -2], "v": [1, 0]}),
             ("surgery", {"linking": [[0, 1], [1, 0]], "frames": [0, 0], "v": ["inf", 0]}),
             ("lspace", {"large_surgery": {"p": 2, "q": 3, "n": 9}})]
    for cmd, payload in arith:
        qa.append(Job(len(qa), cmd, json.dumps(payload), {}))
    out = run(qa)
    expect(not oracles.check("qa_arith", qa, out), "qa_arith: accepts true outputs")
    qa_i = first(qa, "qa")
    rejects("qa_arith", qa, out, qa_i,
            lambda o: o["certificate"].update(det=o["certificate"]["det"] + 1),
            "a certificate root det off by one")
    rejects("qa_arith", qa, out, qa_i,
            lambda o: o["certificate"]["children"][0].update(
                det=o["certificate"]["children"][0]["det"] + 1),
            "a certificate tree that fails verify_certificate")
    rejects("qa_arith", qa, out, qa_i, lambda o: o.update(verdict="unknown"),
            "an alternating input left unknown")
    rejects("qa_arith", qa, out, first(qa, "h1"),
            lambda o: o["h1"].update(order=o["h1"]["order"] + 1), "a wrong h1 order")
    rejects("qa_arith", qa, out, first(qa, "plumbing"),
            lambda o: o.update(h1=o["h1"] + 1, h1_order=o["h1_order"] + 1),
            "a wrong plumbing order")
    rejects("qa_arith", qa, out, first(qa, "plumbing"),
            lambda o: o.update(reverified=False), "a plumbing derivation not reverified")
    rejects("qa_arith", qa, out, first(qa, "surgery"),
            lambda o: o["h1"].update(order=o["h1"]["order"] + 1), "a wrong surgery order")
    rejects("qa_arith", qa, out, first(qa, "lspace"),
            lambda o: o.update(h1_order=o["h1_order"] - 1), "a wrong large-surgery order")
    return cube + ss + qa


def check_tracing(jobs):
    originals = {key: getattr(sys.modules[f"cubekh.{key[0]}"], key[1])
                 for key in tracing.TARGETS}
    tracer = tracing.Tracer()
    plain = [run([j]) for j in jobs]
    t0 = time.perf_counter()
    with tracer:
        traced = []
        for j in jobs:
            with tracer.span("job"):
                traced.append(run([j]))
    wall = time.perf_counter() - t0
    expect(not tracer.missing, f"every traced function exists (missing: {sorted(tracer.missing)})")
    expect(traced == plain, "tracing leaves outputs unchanged")
    expect(all(getattr(sys.modules[f"cubekh.{k[0]}"], k[1]) is fn
               for k, fn in originals.items())
           and cli.kh_ranks is sys.modules["cubekh.khovanov"].kh_ranks,
           "uninstalling restores every original function")
    selfs, _, calls = tracer.self_times()
    expect(sum(selfs.values()) <= wall, f"self times {sum(selfs.values()):.4f} s "
                                        f"<= traced wall {wall:.4f} s")
    expect(all(calls.get(s, 0) > 0 for s in ("linalg.f2_rank", "diagram.resolve",
                                              "khovanov.edge_map")),
           "calls made inside and across modules are traced")
    metrics = tracer.metrics(1)
    expect(all(v is not None for v in metrics.values()), "no metric missing at this commit")

    # as if f2_rank had been renamed: its metrics must read missing, not zero
    gone = tracing.Tracer()
    targets = dict(tracing.TARGETS)
    del targets[("linalg", "f2_rank")]
    targets[("linalg", "f2_rank_renamed")] = "linalg.f2_rank"
    gone.install(targets)
    gone.uninstall()
    m = gone.metrics(1)
    expect(m["linalg.rank_s"] is None and m["linalg.rank_calls"] is None
           and m["linalg.rank_rows"] is None,
           "a target that no longer exists reports its metrics as missing")


def check_setup_sample():
    live = dict(sys.modules)
    seconds = harness.setup_sample("qa_arith", 1)
    expect(seconds > 0 and sys.modules == live
           and all(sys.modules[k] is m for k, m in live.items()),
           "a setup sample imports anew and puts the live modules back")


def check_probe():
    with open(speed.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for a in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    expect(not any(m.split(".")[0] == "cubekh" for m in imported),
           "the speed probe imports nothing of cubekh")
    expect(speed.probe_work() == speed.probe_work() and speed.probe() > 0,
           "the speed probe does the same work every call")

    # jobs of 0.15 s: probes before the first, before the third (0.30 s of
    # job time since the first probe) and after the last
    reads = iter([0.010, 0.020, 0.040])
    jobs = [Job(i, "none", "{}") for i in range(3)]
    p = harness.run_pass(jobs, lambda job: time.sleep(0.15) or "out", probe=lambda: next(reads))
    expect(p.probes == [0.015, 0.015, 0.030] and next(reads, None) is None
           and p.wall >= 0.45 and p.outputs == ["out"] * 3,
           "each job of a probed pass gets the mean of the probes around it")


def main() -> int:
    check_setup_sample()
    check_probe()
    check_tracing(check_oracles())
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
