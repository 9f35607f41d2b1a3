"""Every diagram command's output, pinned byte for byte.

One SHA-256 per command over `json.dumps(run_job(cmd, payload),
sort_keys=True)`, one line per payload, for the first 100 corpus diagrams,
each with the marking `random_compatible_marking(d, random.Random(29))`
(commands without a marking ignore it).  A change that claims identical
output must leave every digest as it is; a change that means to move an
output updates the digest and says why.
"""

import hashlib
import json
import random

import pytest

from cubekh.acceptance import CORPUS_MAX_CROSSINGS, CORPUS_SEED
from cubekh.cli import run_job
from cubekh.corpus import (
    braid_closure,
    diagram_corpus,
    random_braid_diagram,
    random_compatible_marking,
)

DIGESTS = {
    "kh": "4ee2639db649ce59697c01ee3cdfba23988f0f81f476754d1a85d53b7aaa135c",
    "khr": "26f87ce436cbc4de73704a947b534f8cfd596ee68ed994b86872d85b0ab13896",
    "twisted": "5092bbc3f8386f5cb2b875a35732aee644972a1662874bf46fea320282f1259d",
    "hd": "b2f3f369b28311c654f9aed28fab00132d08e77f59faaa321ed565a5c83e5c58",
    "ss": "7b1913b755801abb19d3e3e1450dbd9d397183c91ecc8b4b60a0e6a2cc3ccfc1",
    "det": "e5d0c929d819edde0d244783669ef296ec2f8e46a150ee654ca65cfca18d5e80",
    "h1": "26deb1d7ae21ffa26fa5c4ae37e7e623e16b1bd6cd40fcbfd773b284c7f0785c",
    "rankcheck": "c89a21c33a64cc0621410a35048c6b431267d325863e5900b216f5198b0078bf",
    "qa": "cde6f7f0fe9013f74b8139f169407a336bef960c3e11ef4cf1f7bd8874e3f99a",
}


def _payloads():
    out = []
    for d in diagram_corpus(CORPUS_SEED, 100, CORPUS_MAX_CROSSINGS):
        m = random_compatible_marking(d, random.Random(29))
        out.append({"pd": [list(c) for c in d.crossings], "free_loops": d.free_loops,
                    "marking": {"arcs": list(m.bits)}})
    return out


PAYLOADS = _payloads()


@pytest.mark.parametrize("cmd", sorted(DIGESTS))
def test_output_digest(cmd):
    h = hashlib.sha256()
    for payload in PAYLOADS:
        h.update(json.dumps(run_job(cmd, payload), sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == DIGESTS[cmd]


# The corpus stops at 7 crossings, so states with many circles and splits
# of long circles are pinned here, at the sizes the benchmark runs: the
# 3-braid closures of the first n letters of s1 s2^-1 s1 s2^-1 ... and
# seeded random braid closures, each twisted, hd and ss payload with the
# marking `random_compatible_marking(d, random.Random(29))`.
LARGE_DIGESTS = {
    "kh": "2a94e6083b8c1892747a43a06190c82b4379dfa18cc1df996ffb6d2461f82966",
    "khr": "a382b13eb9c3eb514f947c596f2e2129550b07d7119d0b674449e95aa34cca92",
    "twisted": "91c918db990c03e3cbfc8870f62bb0da2a93969ddac90c888057f2bc356df7c3",
    "hd": "62c0dd03482ef6e89a9e41d280c1ae1d22ee56a44813d0af4555708406ee1a9e",
    "ss": "194a136ccde843ea049f1d1efba3f32f40b4b09356a302fbde2caf60a6fc2109",
}


def _payload(d, marked):
    out = {"pd": [list(c) for c in d.crossings], "free_loops": d.free_loops}
    if marked:
        out["marking"] = {"arcs": list(random_compatible_marking(d, random.Random(29)).bits)}
    return out


def _large_diagrams(cmd):
    if cmd in ("kh", "khr"):
        sizes, random_size = range(9, 13), 7
    else:
        sizes, random_size = (8, 9), 9
    closures = [braid_closure(([1, -2] * 6)[:n], 3) for n in sizes]
    return closures + [random_braid_diagram(random.Random(7), random_size, random_size)]


@pytest.mark.parametrize("cmd", sorted(LARGE_DIGESTS))
def test_benchmark_size_digest(cmd):
    h = hashlib.sha256()
    for d in _large_diagrams(cmd):
        payload = _payload(d, cmd not in ("kh", "khr"))
        h.update(json.dumps(run_job(cmd, payload), sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == LARGE_DIGESTS[cmd]
