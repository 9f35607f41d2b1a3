"""Measure the benchmark over several seeds and append one trajectory point.

    python3 perfbench/trajectory.py --seeds 1-10 [--workloads a,b] [--no-append]

Runs `run.py` once per workload and seed, one run after another, each in its
own process, then one traced run per workload (first seed).  Prints, per
workload and end-to-end metric, the median, quartiles and spread (the
interquartile range over the median), and appends a summary line to
perfbench/trajectory.jsonl unless --no-append is given.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1]), time.perf_counter() - t0


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--no-append", action="store_true")
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    point = {"date": time.strftime("%Y-%m-%d"), "run_seconds": seconds,
             "seeds": seeds_from(args.seeds), "workloads": {}}
    all_ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        record = None
        for seed in point["seeds"]:
            record, result, elapsed = run(workload, seed, seconds, 0)
            all_ok &= result["correct"] and result["failed"] == 0
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  "correct" if result["correct"] else "WRONG", f"({elapsed:.1f} s)", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, value in record["unscaled"].items():
                values.setdefault("unscaled." + name, []).append(value)
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"  {workload} {name:12s} median {med:.4g}  spread {spread:.3f}"
                  f"  (bound {bounds.get(name)})", flush=True)
        _, traced, _ = run(workload, point["seeds"][0], seconds, 1)
        point["commit"] = record["commit"]
        point["machine"] = dict(record["machine"], cpu=cpu_model())
        point["workloads"][workload] = {
            "job_count": record["job_count"],
            "tail_percentile": record["tail_percentile"],
            "crossing_histogram": record["crossing_histogram"],
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if not args.no_append:
        with open(os.path.join(HERE, "trajectory.jsonl"), "a") as fh:
            fh.write(json.dumps(point, sort_keys=True) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
