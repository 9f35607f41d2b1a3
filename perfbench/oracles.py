"""Output oracles, run outside the timed region.

Each oracle compares job outputs with another job of the same group or with
an independent computation:
  cube_khr_kh  kh total = 2 * khr total (holds over GF(2) for every link);
               khr total >= Goeritz det, with equality on alternating inputs
  ss_marked    ss E^2 total = hd total; ss E^infinity total = twisted total
  qa_arith     alternating inputs are certified, the certificate's root det
               equals the det job and the tree passes verify_certificate;
               h1 order = det; plumbing is re-verified and its order equals
               a continuant recurrence; surgery order equals an exact
               rational determinant; large surgery is certified at order n

`check` returns {job index: reason} for every job whose output is wrong.
"""

from __future__ import annotations

import json
from fractions import Fraction

from cubekh.branched import QACertificate, link_det, verify_certificate
from cubekh.diagram import parse_pd


def _groups(jobs, outputs):
    groups: dict[int, dict[str, tuple]] = {}
    for job in jobs:
        if "group" in job.meta and job.index in outputs:
            groups.setdefault(job.meta["group"], {})[job.command] = (job, outputs[job.index])
    return groups


def _diagram(job):
    payload = json.loads(job.text)
    return parse_pd(payload["pd"], free_loops=payload.get("free_loops", 0))


def check_cube(jobs, outputs) -> dict[int, str]:
    bad = {}
    for members in _groups(jobs, outputs).values():
        if "khr" not in members:
            continue
        job, khr = members["khr"]
        det = link_det(_diagram(job))
        if khr["total"] < det:
            bad[job.index] = f"khr total {khr['total']} < det {det}"
        elif job.meta["alternating"] and khr["total"] != det:
            bad[job.index] = f"alternating khr total {khr['total']} != det {det}"
        if "kh" in members:
            kh_job, kh = members["kh"]
            if kh["total"] != 2 * khr["total"]:
                bad[kh_job.index] = f"kh total {kh['total']} != 2 * khr total {khr['total']}"
    return bad


def e2_total(ss: dict) -> int:
    pages = ss["pages"]
    return sum(pages[min(2, len(pages) - 1)].values())


def check_ss(jobs, outputs) -> dict[int, str]:
    bad = {}
    for members in _groups(jobs, outputs).values():
        if "ss" not in members:
            continue
        ss_job, ss = members["ss"]
        if "hd" in members:
            hd_job, hd = members["hd"]
            if e2_total(ss) != hd["total"]:
                bad[ss_job.index] = f"E2 total {e2_total(ss)} != hd total {hd['total']}"
        if "twisted" in members:
            tw_job, tw = members["twisted"]
            if ss["total"] != tw["total"]:
                bad[ss_job.index] = (f"E-infinity total {ss['total']} != "
                                     f"twisted total {tw['total']}")
    return bad


def certificate_from_json(node: dict) -> QACertificate:
    d = parse_pd(node["pd"], free_loops=node["free_loops"])
    children = tuple(certificate_from_json(c) for c in node.get("children", ()))
    return QACertificate(d, node["det"], node.get("crossing"), children)


def tree_det(mult, edges) -> int | None:
    """|det| of a plumbing tree's linking matrix by the continuant recurrence:
    eliminate leaves one at a time, folding -1/m(leaf) into the neighbour."""
    weight = [Fraction(m) for m in mult]
    nbrs = [set() for _ in mult]
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    alive = set(range(len(mult)))
    det = Fraction(1)
    while alive:
        leaf = min(v for v in alive if len(nbrs[v]) <= 1)
        if weight[leaf] == 0:
            return None         # singular pivot: the recurrence does not apply
        det *= weight[leaf]
        for w in nbrs[leaf]:
            weight[w] -= 1 / weight[leaf]
            nbrs[w].discard(leaf)
        alive.discard(leaf)
    return abs(int(det))


def rational_det(m) -> int:
    """|det| of an integer matrix by exact Gaussian elimination over Q."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return 0
        a[col], a[piv] = a[piv], a[col]
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    return abs(int(det))


def filled_matrix(payload: dict) -> list[list[int]]:
    m = [list(row) for row in payload["linking"]]
    for i, f in enumerate(payload["frames"]):
        m[i][i] = f
    keep = [i for i, x in enumerate(payload["v"]) if x != "inf"]
    return [[m[i][j] + (payload["v"][i] if i == j else 0) for j in keep] for i in keep]


def check_qa_arith(jobs, outputs) -> dict[int, str]:
    bad = {}
    for members in _groups(jobs, outputs).values():
        if "det" not in members:
            continue            # the det job failed; h1 and qa have no reference
        det = members["det"][1]["det"]
        if "h1" in members:
            h1_job, h1 = members["h1"]
            if h1["h1"]["order"] != (det if det else None):
                bad[h1_job.index] = f"h1 order {h1['h1']['order']} != det {det}"
        if "qa" not in members:
            continue
        qa_job, qa = members["qa"]
        if qa["verdict"] == "certified":
            cert = qa["certificate"]
            if cert["det"] != det:
                bad[qa_job.index] = f"certificate det {cert['det']} != det job {det}"
            elif not verify_certificate(certificate_from_json(cert)):
                bad[qa_job.index] = "certificate fails verify_certificate"
        elif qa_job.meta["alternating"]:
            bad[qa_job.index] = f"alternating input not certified: {qa['verdict']}"
    for job in jobs:
        if job.index not in outputs or "group" in job.meta:
            continue
        out = outputs[job.index]
        payload = json.loads(job.text)
        if job.command == "plumbing":
            spec = payload["plumbing"]
            want = tree_det(spec["mult"], spec["edges"])
            if out["verdict"] != "certified" or not out["reverified"]:
                bad[job.index] = f"plumbing {out['verdict']}, reverified {out['reverified']}"
            elif out["h1"] != want or out["h1_order"] != want:
                bad[job.index] = f"plumbing order {out['h1']} != continuant {want}"
        elif job.command == "surgery":
            want = rational_det(filled_matrix(payload))
            order = out["h1"]["order"]
            if order != (want if want else None) or out["euler"] != want:
                bad[job.index] = f"surgery order {order}, euler {out['euler']} != det {want}"
        elif job.command == "lspace":
            n = payload["large_surgery"]["n"]
            if (out["verdict"], out["reverified"], out["h1_order"]) != ("certified", True, n):
                bad[job.index] = (f"large surgery {out['verdict']}, reverified "
                                  f"{out['reverified']}, order {out['h1_order']} != {n}")
    return bad


CHECKS = {"cube_khr_kh": check_cube, "ss_marked": check_ss, "qa_arith": check_qa_arith}


def check(workload: str, jobs, outputs: dict) -> dict[int, str]:
    """Reasons for every wrong output; an oracle that crashes on a malformed
    output fails every job it was checking."""
    try:
        return CHECKS[workload](jobs, outputs)
    except (KeyError, TypeError, ValueError, IndexError, ArithmeticError) as e:
        return {idx: f"oracle could not read output: {type(e).__name__}: {e}"
                for idx in outputs}
