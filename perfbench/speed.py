"""The machine-speed probe that scales the benchmark's timed figures.

On a shared host the same job can take 1.5-2x longer for seconds or minutes
at a time while other tenants load the machine, and such a spell can cover a
whole run.  The probe is a fixed piece of pure-Python work of the kind cubekh
does (GF(2) elimination on int bit rows, union-find over a list, dict
updates).  It lives in the benchmark and calls nothing in cubekh, so a change
to the program never moves it.  A job timed at the same moment as the probe
is scaled by REF_S / probe time: the time the job would take on a machine
where the probe takes REF_S, about its time on a quiet 2-core 2.0 GHz Xeon
sandbox.
"""

import gc
import random
import time

REF_S = 0.010               # probe time that defines the reference speed


def probe_work() -> int:
    """The fixed work: the same operations on the same data every call."""
    rng = random.Random(12345)
    rows = [rng.getrandbits(160) for _ in range(160)]
    rank = 0
    for bit in range(160):
        mask = 1 << bit
        pivot = next((i for i in range(rank, len(rows)) if rows[i] & mask), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] & mask:
                rows[i] ^= p
        rank += 1
    parent = list(range(3000))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    seen: dict = {}
    for _ in range(6000):
        a, b = rng.randrange(3000), rng.randrange(3000)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
        seen[(a, b)] = seen.get((b, a), 0) + 1
    return rank + len(seen)


def probe() -> float:
    """Seconds the fixed work takes now.  The garbage collector is off
    meanwhile, so the heap a job leaves behind is never traversed here."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        probe_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
