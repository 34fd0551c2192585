"""Record one trajectory point of the benchmark.

    python3 perfbench/trajectory.py --commit <id> [--seeds 10]

Run from the repository root.  Runs every workload of BENCHMARK.json on
seeds 1..N with --trace 0, plus one --trace 1 run per workload, and writes
perfbench/trajectory/BENCH_<id>.json: for each end-to-end metric its values,
median, quartiles and spread (interquartile distance over the median, the
figure each bound in BENCHMARK.json is compared with), and the per-layer
metrics of the traced run, together with the Python version and CPU count.
Exits nonzero if any run was incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)], capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["exit"] = proc.returncode
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--commit", required=True, help="the commit measured, for the file name")
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    point: dict = {
        "commit": args.commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "run_seconds": seconds,
        "seeds": list(range(1, args.seeds + 1)),
        "workloads": {},
    }
    for w in (w["name"] for w in spec["workloads"]):
        runs = [bench(w, seed, seconds, 0) for seed in point["seeds"]]
        traced = bench(w, 1, seconds, 1)
        ok &= all(r["exit"] == 0 and r["correct"] for r in runs + [traced])
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        for name in bounds:
            entry["end_to_end"][name] = summarize([r["metrics"][name]["value"] for r in runs])
            s = entry["end_to_end"][name]
            print(f"{w:18s} {name:15s} median {s['median']:12.6g}  spread {s['spread']:.4f}"
                  f"  bound {bounds[name]}", flush=True)
        point["workloads"][w] = entry
    os.makedirs(os.path.join(HERE, "trajectory"), exist_ok=True)
    path = os.path.join(HERE, "trajectory", f"BENCH_{args.commit}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(point, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
