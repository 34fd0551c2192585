"""Self-test of the benchmark: a small run of every workload, and proof that
each correctness check catches the fault it exists for.

    python3 perfbench/selftest.py        (from the repository root)

It checks that BENCHMARK.json names exactly the metrics run.py prints;
that small runs of every workload pass every check; that a corrupted golden
digest, a certificate with a wrong determinant, a repeat whose output
differs and a tampered certificate accepted by mistake each raise
failed_frac above 0; that a traced run fails when a function that should
run records no calls; that run.py passes end to end with --trace 0 and 1;
and that it exits nonzero, printing nothing, where the lenshf sources are
missing.  Exit code 0 means every check held.
"""

from __future__ import annotations

import copy
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.abspath("src"))

import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

SEED = 7
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def small_run(workload: str, golden: dict, count: int):
    """One pass over a short batch, in this process."""
    items, meta = run.build_items(workload, SEED, golden, count)
    out = io.StringIO()
    worker.run_passes(worker.make_step(workload), items, out, lambda n, t: n >= 1)
    return items, meta, run.parse_results(out.getvalue().splitlines())


def failed_frac(workload: str, golden: dict, items, meta, rows) -> float:
    failed, _ = run.count_failures(workload, rows, items, meta, golden)
    return failed / sum(runs for _, runs, *_ in rows)


def check_benchmark_json() -> None:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "BENCHMARK.json workloads")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end names and units")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]}
           == {name: unit for name, (unit, _) in run.PER_LAYER.items()},
           "BENCHMARK.json per_layer names and units")


def check_faults(golden: dict) -> None:
    sizes = {"sweep": 1, "analyze-prime": len(gen.PRIME_BLOCK), "analyze-composite": 20, "verify-bulk": 200}
    runs = {w: small_run(w, golden, n) for w, n in sizes.items()}
    for w, (items, meta, rows) in runs.items():
        expect(failed_frac(w, golden, items, meta, rows) == 0, f"{w}: small run is correct")

    items, meta, rows = runs["sweep"]
    bad = copy.deepcopy(golden)
    bad["sweep"][str(items[0])] = "0" * 64
    expect(failed_frac("sweep", bad, items, meta, rows) > 0, "sweep: corrupted digest is caught")

    items, meta, rows = runs["analyze-prime"]
    bad = copy.deepcopy(golden)
    key, index, _ = meta[0]
    bad["analyze-prime"][key][index] = bad["analyze-prime"][key][index][:2] + "0" * 16
    expect(failed_frac("analyze-prime", bad, items, meta, rows) > 0,
           "analyze-prime: corrupted digest is caught")

    # A wrong determinant that the golden data agrees with: only the
    # benchmark's own closed-form determinant can catch it.
    i, n, differ, (count, text), times = rows[0]
    cert = json.loads(text)
    cert["det"] = str(-int(cert["det"]))
    wrong = json.dumps(cert, indent=2)
    bad = copy.deepcopy(golden)
    bad["analyze-prime"][meta[i][0]][meta[i][1]] = f"{count}:{gen.digest(wrong)}"
    forged = [(i, n, differ, [count, wrong], times)] + rows[1:]
    expect(failed_frac("analyze-prime", bad, items, meta, forged) > 0,
           "analyze-prime: wrong det is caught independently of the golden data")

    unsteady = [(i, n + 1, 1, [count, text], times)] + rows[1:]
    expect(failed_frac("analyze-prime", golden, items, meta, unsteady) > 0,
           "analyze-prime: a repeat with another output is caught")

    items, meta, rows = runs["verify-bulk"]
    tampered = [k for k, (i, *_) in enumerate(rows) if not meta[i]]
    expect(bool(tampered), "verify-bulk: the batch holds tampered certificates")
    accepted = list(rows)
    i, n, differ, _, times = accepted[tampered[0]]
    accepted[tampered[0]] = (i, n, differ, 1, times)
    expect(failed_frac("verify-bulk", golden, items, meta, accepted) > 0,
           "verify-bulk: tampered certificate accepted by mistake is caught")


def check_trace_coverage() -> None:
    names = [f"{layer}.{fn}" for layer, fns in run.LAYERS.items() for fn in fns]
    trace = {"calls": dict.fromkeys(names, 1), "self_s": dict.fromkeys(names, 0.0),
             "edges": [], "plain_s": 1.0, "traced_s": 1.5}
    rows = [(0, 1, 0, None, None)]
    _, missing = run.per_layer("analyze-prime", trace, 1, rows, [None])
    expect(not missing, "trace: full coverage passes")
    trace["calls"]["numtheory.factor"] = 0
    _, missing = run.per_layer("analyze-prime", trace, 1, rows, [None])
    expect(missing == ["numtheory.factor"], "trace: a function with no calls fails the run")


def check_command() -> None:
    for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        for w in run.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(SEED),
                 "--seconds", "1", "--trace", str(trace)], capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout else {}
            expect(proc.returncode == 0 and result.get("correct") is True
                   and list(result["metrics"]) == list(names),
                   f"run.py --workload {w} --trace {trace}")

    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    shutil.copy("BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout, "run.py without lenshf sources exits nonzero silently")


def main() -> int:
    with open(run.GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    check_benchmark_json()
    check_faults(golden)
    check_trace_coverage()
    check_command()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks held")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
