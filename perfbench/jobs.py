"""Workload job lists: CLI-shaped JSON payloads generated from the seed.

Every workload is a fixed list of jobs; the seed picks the random family
members and markings and shuffles the order.  Each job carries the meta data
its oracle needs (diagram group, family, crossing count, alternation).

Families:
  braid3   the alternating 3-braid closure (s1 s2^-1)^k, with one more s1
           for an odd crossing count; the seed rotates the word and may
           mirror it, so its cost depends on n alone
  rational alternating rational (2-bridge) links from corpus.rational_link,
           with twist counts drawn from the seed
  random   non-alternating random_braid_diagram closures from the seed
  torus    the torus closures (s1 s2)^k, not quasi-alternating
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from cubekh.corpus import (
    braid_closure,
    random_braid_diagram,
    random_compatible_marking,
    rational_link,
)

ALTERNATING = {"braid3": True, "rational": True, "random": False, "torus": False}

# workload -> (family, crossings, commands, copies).  Diagram jobs share one
# diagram (and one marking) per copy, so the oracles can compare commands.
DIAGRAM_SPECS = {
    "cube_khr_kh": [
        ("random", 7, ("khr", "kh"), 3),
        ("rational", 8, ("khr", "kh"), 3),
        ("braid3", 9, ("khr", "kh"), 4),
        ("braid3", 10, ("khr", "kh"), 5),
        ("braid3", 11, ("khr", "kh"), 1),
        ("braid3", 12, ("khr",), 1),
    ],
    "ss_marked": [
        ("random", 6, ("ss", "hd", "twisted"), 1),
        ("rational", 6, ("ss", "hd", "twisted"), 1),
        ("braid3", 6, ("ss", "hd", "twisted"), 4),
        ("braid3", 7, ("ss", "hd", "twisted"), 3),
        ("braid3", 8, ("ss", "hd", "twisted"), 2),
        ("braid3", 9, ("ss", "hd", "twisted"), 1),
    ],
    "qa_arith": [
        ("braid3", 8, ("qa", "det", "h1"), 1),
        ("rational", 9, ("qa", "det", "h1"), 2),
        ("braid3", 10, ("qa", "det", "h1"), 1),
        ("rational", 11, ("qa", "det", "h1"), 2),
        ("braid3", 12, ("qa", "det", "h1"), 1),
        ("rational", 13, ("qa", "det", "h1"), 1),
        ("braid3", 14, ("qa", "det", "h1"), 1),
        ("torus", 8, ("qa", "det", "h1"), 1),
        ("torus", 10, ("qa", "det", "h1"), 1),
    ],
}

# qa_arith also runs arithmetic jobs that take no diagram
PLUMBING_CHAINS = (6, 7, 8, 9, 10)
PLUMBING_STARS = (7, 9, 11)
SURGERY_JOBS = 8
LSPACE_TORUS = ((2, 3), (2, 5), (3, 4), (3, 5), (2, 7))


@dataclass
class Job:
    index: int
    command: str
    text: str                   # JSON payload exactly as the CLI reads it
    meta: dict = field(default_factory=dict)


def _diagram(family: str, n: int, rng: random.Random):
    if family == "braid3":
        # a seeded conjugate (cyclic rotation) of the word, possibly mirrored:
        # the same link and the same cube size under a different labelling
        word = ([1, -2] * n)[:n]
        r = rng.randrange(n)
        sign = rng.choice((1, -1))
        return braid_closure([sign * x for x in word[r:] + word[:r]], 3)
    if family == "torus":
        return braid_closure([1, 2] * (n // 2), 3)
    if family == "rational":
        parts, left = [], n
        while left:
            parts.append(rng.randint(1, min(4, left)))
            left -= parts[-1]
        return rational_link(parts)
    if family == "random":
        return random_braid_diagram(rng, max_crossings=n, min_crossings=n)
    raise ValueError(f"unknown family {family!r}")


def diagram_payload(d, marking_rng: random.Random | None = None) -> dict:
    """The CLI payload of diagram `d`, with a random compatible marking
    drawn from `marking_rng` when one is given."""
    payload = {"pd": [list(c) for c in d.crossings]}
    if d.free_loops:
        payload["free_loops"] = d.free_loops
    if marking_rng is not None:
        payload["marking"] = {"arcs": list(random_compatible_marking(d, marking_rng).bits)}
    return payload


def _diagram_jobs(workload: str, rng: random.Random) -> list[tuple[str, dict, dict]]:
    out = []
    group = 0
    for family, n, commands, copies in DIAGRAM_SPECS[workload]:
        for _ in range(copies):
            d = _diagram(family, n, rng)
            payload = diagram_payload(d, rng if "ss" in commands else None)
            meta = {"group": group, "family": family, "n": d.n,
                    "alternating": ALTERNATING[family]}
            out.extend((cmd, payload, meta) for cmd in commands)
            group += 1
    return out


def _chain(k: int) -> dict:
    """A chain of k vertices of multiplicity 3: the leaf induction splits
    into about 2.7 times more steps per added vertex."""
    return {"mult": [3] * k, "edges": [[i, i + 1] for i in range(k - 1)]}


def _star(k: int) -> dict:
    """A centre of multiplicity 4 with three arms of multiplicity 2 over k
    vertices in all."""
    edges = []
    ends = [0, 0, 0]
    for v in range(1, k):
        arm = (v - 1) % 3
        edges.append([ends[arm], v])
        ends[arm] = v
    return {"mult": [4] + [2] * (k - 1), "edges": edges}


def _surgery(rng: random.Random) -> dict:
    k = rng.randint(2, 4)
    m = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            m[i][j] = m[j][i] = rng.randint(-2, 2)
    return {"linking": m, "frames": [rng.randint(-6, 6) for _ in range(k)],
            "v": [rng.choice([0, 1, 1, "inf"]) for _ in range(k)]}


def _arith_jobs(rng: random.Random) -> list[tuple[str, dict, dict]]:
    out = []
    for k in PLUMBING_CHAINS:
        out.append(("plumbing", {"plumbing": _chain(k)}, {"shape": "chain"}))
    for k in PLUMBING_STARS:
        out.append(("plumbing", {"plumbing": _star(k)}, {"shape": "star"}))
    for _ in range(SURGERY_JOBS):
        out.append(("surgery", _surgery(rng), {}))
    for p, q in LSPACE_TORUS:
        n = p * q - 1 + rng.randint(0, 40)
        out.append(("lspace", {"large_surgery": {"p": p, "q": q, "n": n}}, {}))
    return out


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list for `seed`, in its seeded run order."""
    if workload not in DIAGRAM_SPECS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    specs = _diagram_jobs(workload, rng)
    if workload == "qa_arith":
        specs += _arith_jobs(rng)
    rng.shuffle(specs)
    return [Job(i, cmd, json.dumps(payload), dict(meta))
            for i, (cmd, payload, meta) in enumerate(specs)]


def do_job(cli, job: Job) -> str:
    """One CLI-shaped job: decode the payload, run it, encode the result."""
    payload = json.loads(job.text)
    return json.dumps(cli.run_job(job.command, payload), sort_keys=True)


def crossing_histogram(jobs: list[Job]) -> dict[str, int]:
    """Jobs per crossing count (diagram jobs only)."""
    hist: dict[int, int] = {}
    for job in jobs:
        if "n" in job.meta:
            hist[job.meta["n"]] = hist.get(job.meta["n"], 0) + 1
    return {str(n): c for n, c in sorted(hist.items())}
