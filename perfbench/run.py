"""cubekh benchmark: CLI-shaped JSON jobs driven through cubekh.cli.run_job.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  Each job
decodes its JSON payload, calls run_job and encodes the result with
json.dumps(sort_keys=True): the path of `cubekh --command ...` without
process start-up.  One client runs the workload's job list in a closed loop,
pass after pass, until the next pass would end after --seconds.

--trace 0 reports the end-to-end metrics, each time scaled to a reference
machine speed by the probe in speed.py, so that a slow spell of a shared
host does not show as a slower program.  --trace 1 alternates untraced
passes with traced passes that wrap cubekh's public functions (see
tracing.py), and reports per-layer self times and counts per traced pass plus
the tracing overhead.
Outputs are checked by the oracles in oracles.py after the timed loop.

The last line of stdout is the result object; the line before it is a
record of the run (machine, seed, commit, job count, crossing histogram,
per-job latencies with their median and tail, failures with reasons).
"""

import sys
import time

_T0 = time.perf_counter()       # setup_s counts from here to the first job ready
_BASELINE = frozenset(sys.modules)

# only what setup needs (cubekh.cli imports argparse as well) comes before it
import argparse                 # noqa: E402
import gc                       # noqa: E402
import os                       # noqa: E402
from typing import NamedTuple   # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PER_ROUND = 2             # setup samples taken after each round of passes
PROBE_EVERY_S = 0.25            # job time between two machine-speed probes
TAIL_ABOVE = 10                 # jobs above the reported tail percentile
WORKLOADS = ("cube_khr_kh", "ss_marked", "qa_arith")


def setup(workload: str, seed: int):
    """Import cubekh from this checkout's src/ and nowhere else, then make
    the workload's jobs: the work that setup_s times."""
    package = os.path.join(SRC, "cubekh")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"perfbench: no cubekh sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import cubekh
    import cubekh.cli
    if os.path.dirname(os.path.abspath(cubekh.__file__)) != package:
        sys.exit(f"perfbench: imported cubekh from {cubekh.__file__}, not {package}")
    from jobs import make_jobs
    return cubekh.cli, make_jobs(workload, seed)


def setup_sample(workload: str, seed: int) -> float:
    """Time setup() once more as a fresh process would run it.

    Every module loaded since the top of this file is set aside first, so
    cubekh and the standard modules it needs are imported anew, and put back
    afterwards, so the run keeps running the modules it started with."""
    live = {k: sys.modules.pop(k) for k in list(sys.modules) if k not in _BASELINE}
    try:
        t0 = time.perf_counter()
        setup(workload, seed)
        return time.perf_counter() - t0
    finally:
        for k in [k for k in sys.modules if k not in _BASELINE]:
            del sys.modules[k]
        sys.modules.update(live)


def commit_id() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except (FileNotFoundError, NotADirectoryError):
        pass
    return "unknown"


class Pass(NamedTuple):
    wall: float                 # seconds of job time, probes excluded
    latencies: list             # per job, seconds
    outputs: object             # first pass: outputs; later: indices that differ
    errors: dict                # job index -> reason
    probes: list                # per job, the probe time around it (or None)


def run_pass(jobs, do_job, reference=None, probe=None):
    """One pass over the job list.

    Given the first pass's outputs as `reference`, the pass keeps only the
    set of job indices whose output differs, so the benchmark's own memory
    does not grow with the number of passes and show in peak RSS.

    Given `probe` (speed.probe), the machine's speed is probed before the
    first job, after the last, and between jobs once PROBE_EVERY_S of job
    time has passed since the last probe.  Each job gets the mean of the
    probes just before and just after it.

    After each job, outside its time, the garbage collector frees what the
    job left: a CLI process would free it at exit, and left in the heap it
    would make a later job's collections slower and the peak RSS depend on
    when a full collection happened to run."""
    latencies, outputs, errors = [], [], {}
    probes, before = [], []
    since_probe = PROBE_EVERY_S
    for job in jobs:
        if probe is not None and since_probe >= PROBE_EVERY_S:
            probes.append(probe())
            since_probe = 0.0
        before.append(len(probes) - 1)
        t0 = time.perf_counter()
        try:
            outputs.append(do_job(job))
        except Exception as e:      # a failed job is counted, never aborts the run
            outputs.append(None)
            errors[job.index] = f"{type(e).__name__}: {e}"
        latencies.append(time.perf_counter() - t0)
        since_probe += latencies[-1]
        gc.collect()
    if probe is not None:
        probes.append(probe())
        around = [(probes[k] + probes[k + 1]) / 2 for k in before]
    else:
        around = [None] * len(jobs)
    if reference is not None:
        outputs = {i for i, out in enumerate(outputs) if out != reference[i]}
    return Pass(sum(latencies), latencies, outputs, errors, around)


def timed_rounds(pass_kinds, seconds: float, after_round=None):
    """Rounds of passes until the next round would end after `seconds`.

    A round runs one pass of each kind in turn; each kind is called with the
    first pass's outputs (None for that first pass) and returns run_pass's
    tuple.  `after_round` runs after each round, inside the time budget."""
    start = time.perf_counter()
    rounds, reference = [], None
    while True:
        t_round = time.perf_counter()
        passes = []
        for kind in pass_kinds:
            passes.append(kind(reference))
            if reference is None:
                reference = passes[0].outputs
        if after_round is not None:
            after_round()
        rounds.append(passes)
        now = time.perf_counter()
        if now - start + (now - t_round) > seconds:
            return rounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli, jobs = setup(args.workload, args.seed)
    setup_samples = [time.perf_counter() - _T0]

    # the harness's own modules, after setup_s is taken
    import json
    import platform
    import resource
    import statistics

    import oracles
    import speed
    import tracing
    from jobs import crossing_histogram, do_job

    # each setup sample with the probe time around it (only after, for the
    # run's own setup)
    setup_probes = [speed.probe()]

    def untraced_pass(reference):
        return run_pass(jobs, lambda job: do_job(cli, job), reference,
                        None if args.trace else speed.probe)

    tracer = None
    if args.trace:
        # untraced and traced passes alternate, so a slow spell of the
        # machine falls on both sides of the overhead ratio
        tracer = tracing.Tracer()

        def traced_job(job):
            with tracer.span("job"):
                with tracer.span(tracing.JSON_SPAN):
                    payload = json.loads(job.text)
                result = cli.run_job(job.command, payload)
                with tracer.span(tracing.JSON_SPAN):
                    return json.dumps(result, sort_keys=True)

        def traced_pass(reference):
            with tracer:
                return run_pass(jobs, traced_job, reference)

        rounds = timed_rounds((untraced_pass, traced_pass), args.seconds)
        untraced = [r[0] for r in rounds]
        traced = [r[1] for r in rounds]
        passes = untraced + traced
    else:
        # further setup samples are spread over the run, so a slow spell of
        # the machine at its start does not set setup_s alone
        def sample_setup():
            for _ in range(SETUP_PER_ROUND):
                p0 = speed.probe()
                setup_samples.append(setup_sample(args.workload, args.seed))
                setup_probes.append((p0 + speed.probe()) / 2)

        rounds = timed_rounds((untraced_pass,), args.seconds, sample_setup)
        passes = untraced = [r[0] for r in rounds]

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # -- correctness, outside the timed region -------------------------------
    first = passes[0].outputs
    parsed = {job.index: json.loads(first[job.index]) for job in jobs
              if first[job.index] is not None}
    bad = oracles.check(args.workload, jobs, parsed)
    failed = 0
    for _, _, differs, errors, _ in passes:
        for job in jobs:
            i = job.index
            if i in errors:
                bad.setdefault(i, errors[i])
            elif differs is not first and i in differs:
                bad.setdefault(i, "output differs between passes")
            elif i not in bad:
                continue
            failed += 1
    attempted = len(jobs) * len(passes)

    # -- metrics --------------------------------------------------------------
    # each job at its median pass, so one probe read in a short stall does
    # not set the job's figure
    per_job = [statistics.median(p.latencies[i] for p in untraced)
               for i in range(len(jobs))]
    tail_index = len(jobs) - 1 - TAIL_ABOVE
    if tracer is None:
        # times at the reference speed (see speed.py), each scaled by the
        # probe taken around it: a slow spell of the machine slows the probe
        # as much as the job, even when it covers the whole run
        def at_ref(seconds, probe_s):
            return seconds * speed.REF_S / probe_s

        per_job_ref = [statistics.median(at_ref(p.latencies[i], p.probes[i]) for p in passes)
                       for i in range(len(jobs))]
        metrics = {
            "setup_s": (statistics.median(map(at_ref, setup_samples, setup_probes)), "s"),
            "wall_s": (sum(per_job_ref), "s"),
            "job_p50_s": (statistics.median(per_job_ref), "s"),
            "job_tail_s": (sorted(per_job_ref)[tail_index], "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        # means, like every per-layer figure: self times then sum to at most
        # trace.wall_s
        traced_wall = statistics.fmean(p.wall for p in traced)
        untraced_wall = statistics.fmean(p.wall for p in untraced)
        metrics = {"trace.wall_s": (traced_wall, "s"),
                   "trace.overhead_ratio": (traced_wall / untraced_wall, "ratio")}
        for name, value in tracer.metrics(len(traced)).items():
            unit = "s" if name.endswith("_s") else (
                "ratio" if name.endswith("_ratio") else "count")
            metrics[name] = (value, unit)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": commit_id(),
        "machine": {"nproc": os.cpu_count(), "arch": platform.machine(),
                    "python": platform.python_version(),
                    "implementation": platform.python_implementation()},
        "job_count": len(jobs), "passes": len(passes),
        "pass_wall_s": [p.wall for p in untraced],
        # the timed metrics as measured, before scaling to the reference speed
        "unscaled": {"setup_s": statistics.median(setup_samples),
                     "wall_s": sum(per_job),
                     "job_p50_s": statistics.median(per_job),
                     "job_tail_s": sorted(per_job)[tail_index]},
        "tail_percentile": round(100.0 * (tail_index + 1) / len(jobs), 2),
        "crossing_histogram": crossing_histogram(jobs),
        "commands": {c: sum(1 for j in jobs if j.command == c)
                     for c in sorted({j.command for j in jobs})},
        "setup_samples_s": setup_samples,
        "setup_probes_s": setup_probes,
        "probe_median_s": statistics.median(
            [x for p in untraced for x in p.probes if x is not None] or [0.0]),
        "job_latency_s": sorted(
            ([lat, j.command, j.meta.get("family", j.meta.get("shape", "")),
              j.meta.get("n")] for j, lat in zip(jobs, per_job)), reverse=True),
        "error_rate": failed / attempted,
        "failures": [{"job": i, "command": jobs[i].command, "reason": r}
                     for i, r in sorted(bad.items())],
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
