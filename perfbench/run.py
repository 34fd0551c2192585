"""lenshf benchmark: one command for every workload, every metric and every
correctness check.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds the inputs of workload W from
the seed (gen.py, with sympy, never with lenshf), times them in a fresh
worker process that imports only lenshf (worker.py), then checks every
output against the seed commit's golden data (data/golden.json) and
against its own independent arithmetic.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it reports per-layer counts and self
times from a traced run (tracer.py) and the tracing overhead.  Human-readable
lines come first and the last line is one JSON object.  The exit code is 0
only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
from itertools import cycle, islice
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
from calib import STARTUP_NOMINAL_S  # noqa: E402
from tracer import LAYERS  # noqa: E402
from worker import quantile  # noqa: E402

WORKLOADS = ("sweep", "analyze-prime", "analyze-composite", "verify-bulk")

# name -> unit, for --trace 0
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics for --trace 1: name -> (unit, the end-to-end metric and
# workload it should move).
PER_LAYER = {
    "numtheory.factor.calls": ("count", "items_per_s on sweep (once per p); latency_p50_ms on analyze-composite"),
    "numtheory.factor.self_s": ("s", "items_per_s on sweep; latency_p50_ms on analyze-composite (Pollard)"),
    "numtheory.factor.calls_per_p": ("ratio", "items_per_s on sweep (factor once per p)"),
    "numtheory.is_prime.calls": ("count", "latency_p90_ms on analyze-prime; items_per_s on sweep"),
    "numtheory.is_prime.self_s": ("s", "latency_p90_ms on analyze-prime; items_per_s on sweep"),
    "numtheory.is_prime.calls_per_space": ("ratio", "latency_p90_ms on analyze-prime (p tested twice)"),
    "numtheory.sqrt_mod.calls": ("count", "latency_p90_ms, peak_rss_mb on analyze-composite; items_per_s on sweep"),
    "numtheory.sqrt_mod.self_s": ("s", "latency_p90_ms, peak_rss_mb on analyze-composite; items_per_s on sweep"),
    "numtheory.sqrt_mod_prime.calls": ("count", "items_per_s on sweep"),
    "numtheory.sqrt_mod_prime.self_s": ("s", "items_per_s on sweep"),
    "solver.find_prime_shift.calls": ("count", "items_per_s on sweep; latency_p50_ms on analyze-prime"),
    "solver.find_prime_shift.self_s": ("s", "items_per_s on sweep; latency_p50_ms on analyze-prime"),
    "solver.find_prime_shift.candidates_per_hit": ("ratio", "items_per_s on sweep; latency_p50_ms on analyze-prime"),
    "solver.minimal_planar_boundaries.self_s": ("s", "items_per_s on sweep"),
    "solver.solve_n2.self_s": ("s", "items_per_s on sweep"),
    "solver.solve_n3.self_s": ("s", "items_per_s on sweep"),
    "lens.bezout.self_s": ("s", "items_per_s on sweep"),
    "quadform.construct_representing_form.self_s": ("s", "items_per_s on sweep"),
    "witness.verify.calls": ("count", "items_per_s on sweep and verify-bulk"),
    "witness.verify.self_s": ("s", "items_per_s on sweep and verify-bulk"),
    "witness.verify.calls_per_answer": ("ratio", "items_per_s on sweep (2 per answer at the seed)"),
    "witness.det_exact.self_s": ("s", "items_per_s on sweep and verify-bulk (determinant route)"),
    "witness.certificate_from_json.self_s": ("s", "items_per_s on verify-bulk"),
    "witness.certificate_to_json.self_s": ("s", "latency_p50_ms on analyze-prime (about 0.2%: no change expected)"),
    "cli.main.self_s": ("s", "items_per_s on sweep (row formatting and printing)"),
    "trace.overhead_frac": ("ratio", "none: traced over untraced wall time, minus 1"),
}

# Wrapped functions that must record calls on each workload.
_ANALYZE_CALLS = {
    "solver.minimal_planar_boundaries", "solver.solve_n2", "solver.solve_n3",
    "solver.find_prime_shift", "numtheory.factor", "numtheory.is_prime",
    "numtheory.sqrt_mod", "numtheory.sqrt_mod_prime", "lens.bezout",
    "quadform.construct_representing_form", "witness.verify",
    "witness.det_exact", "witness.certificate_to_json",
}
EXPECTED_CALLS = {
    "sweep": (_ANALYZE_CALLS - {"witness.certificate_to_json"}) | {"cli.main"},
    "analyze-prime": _ANALYZE_CALLS,
    "analyze-composite": _ANALYZE_CALLS,
    "verify-bulk": {"witness.certificate_from_json", "witness.verify", "witness.det_exact"},
}

SETUP_REPEATS = 15
GOLDEN_PATH = os.path.join(HERE, "data", "golden.json")
OUT_DIR = ".perfbench_out"


# --- inputs -----------------------------------------------------------------

def _permutations(rng: random.Random, pool_sizes: dict) -> dict:
    """A seeded order of the pool indices, per stratum key."""
    return {key: iter(rng.sample(range(size), size)) for key, size in pool_sizes.items()}


# The batch a run passes over, again and again: at least 100 items where
# latency_p90_ms is taken over items, so ten lie above it, and small enough
# that a run makes several passes.  A sweep item is one table call of about
# 12,000 rows, over which its latencies are taken.
ITEMS = {"sweep": 1, "analyze-prime": gen.PRIME_BLOCKS * len(gen.PRIME_BLOCK), "analyze-composite": 256,
         "verify-bulk": 1024}


def build_items(workload: str, seed: int, golden: dict, count: int | None = None) -> tuple[list, list]:
    """(items for the worker, what the checker needs to know about each)."""
    rng = random.Random(f"{workload}:{seed}")
    count = count or ITEMS[workload]
    if workload == "sweep":
        lo, hi = gen.SWEEP_PMAX
        items = [rng.randint(lo, hi) for _ in range(count)]
        return items, items
    if workload == "analyze-prime":
        order = _permutations(rng, gen.PRIME_POOL)
        keys = [(bits, kind, next(order[bits, kind]))
                for bits, kind in islice(cycle(gen.PRIME_BLOCK), count)]
        spaces = {key: gen.prime_space(*key) for key in set(keys)}
        meta = [(f"{bits}-{kind}", index, spaces[bits, kind, index][2]) for bits, kind, index in keys]
        return [spaces[key][:2] for key in keys], meta
    if workload == "analyze-composite":
        order = _permutations(rng, dict.fromkeys(gen.COMPOSITE_BLOCK, gen.COMPOSITE_POOL))
        keys = [(kind, next(order[kind])) for kind in islice(cycle(gen.COMPOSITE_BLOCK), count)]
        spaces = [gen.composite_space(*key) for key in keys]
        return [space[:2] for space in spaces], [(*key, space[2]) for key, space in zip(keys, spaces)]
    return verify_items(rng, golden["verify-bulk"], count)


def _pad_to(d: dict, n: int) -> dict:
    """Append boundary components with a = 0, t = 1 and no linking; the
    determinant is unchanged (cofactor expansion along the new row)."""
    d = {k: v for k, v in d.items() if k != "trace"}
    a, t, l = list(d["a"]), list(d["t"]), [list(row) for row in d["l"]]
    while len(a) < n:
        for row in l:
            row.append("0")
        l.append(["0"] * (len(a) + 1))
        a.append("0")
        t.append("1")
    d.update(n=str(n), a=a, t=t, l=l)
    return d


def verify_items(rng: random.Random, pool: list[dict], count: int) -> tuple[list[str], list[bool]]:
    """`count` certificate texts: 60% as the solver emitted them (n = 1 and 2),
    30% padded to n = 5 so det_exact takes the Bareiss route, and 10%
    tampered (a wrong witness entry or a wrong stored det) that must be
    rejected.  Texts are rendered exactly as certificate_to_json writes them."""
    texts, sound = [], []
    for _ in range(count):
        d = rng.choice(pool)
        r = rng.random()
        if r < 0.6:
            ok = True
        elif r < 0.9:
            d, ok = _pad_to(d, 5), True
        elif r < 0.95:
            d = dict(d, t=[str(int(d["t"][0]) + 1), *d["t"][1:]])
            ok = False
        else:
            d = _pad_to(dict(d, det=str(-int(d["det"]))), 5)
            ok = False
        texts.append(json.dumps(d, indent=2))
        sound.append(ok)
    return texts, sound


# --- checks -----------------------------------------------------------------

def _det_closed_form(p: int, q: int, a: list[int], t: list[int], l: list[list[int]]) -> int:
    """Determinant of the bordered matrix for n = 1 or 2, written out."""
    if len(a) == 1:
        return p * t[0] + q * a[0] * a[0]
    m = [[p, -q * a[0], -q * a[1]], [a[0], t[0], l[0][1]], [a[1], l[1][0], t[1]]]
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def check_record(workload: str, record, item, meta, golden: dict) -> str | None:
    """None when the record is correct, else what is wrong with it."""
    if isinstance(record, dict):
        return f"raised {record['error']}"
    if workload == "sweep":
        code, sha, rows = record
        if code != 0 or sha != golden["sweep"][str(item)] or rows < 1:
            return f"table {item}: exit {code}, sha256 {sha}"
        return None
    if workload == "verify-bulk":
        if record != meta:
            return f"certificate {'accepted' if record else 'rejected'}, expected the opposite"
        return None
    count, text = record
    p, q = item
    key, index, factors = meta
    want = golden[workload][key][index]
    if f"{count}:{gen.digest(text)}" != want:
        return f"L({p},{q}): count:digest {count}:{gen.digest(text)} != golden {want}"
    cert = json.loads(text)
    ints = lambda xs: [int(x) for x in xs]  # noqa: E731
    det = _det_closed_form(int(cert["p"]), int(cert["q"]), ints(cert["a"]), ints(cert["t"]),
                           [ints(row) for row in cert["l"]])
    if (int(cert["p"]), int(cert["q"])) != (p, q) or det != int(cert["det"]) or det not in (1, -1):
        return f"L({p},{q}): certificate determinant {cert['det']} (recomputed {det})"
    expected = gen.boundary_count(q, factors)
    if count != expected or int(cert["n"]) != count - 1:
        return f"L({p},{q}): count {count}, quadratic residuosity says {expected}"
    return None


def parse_results(lines) -> list[tuple[int, int, int, object, list[float]]]:
    """(item index, runs, runs whose output differed from the first, first
    output, [its time, and the median and 90th percentile of its units'
    times]) per line the worker wrote.  For sweep the units are the rows."""
    rows = []
    for line in lines:
        index, runs, differ, output, times = line.rstrip("\n").split("\t")
        rows.append((int(index), int(runs), int(differ), json.loads(output), json.loads(times)))
    return rows


def count_failures(workload: str, rows, items, meta, golden: dict) -> tuple[int, list[str]]:
    """Failed runs, and what was wrong, over every line of the results."""
    failed, errors = 0, []
    for index, runs, differ, output, _ in rows:
        wrong = check_record(workload, output, items[index], meta[index], golden)
        if differ:
            errors.append(f"item {index}: {differ} of {runs} runs gave another output than the first")
        if wrong:
            errors.append(wrong)
        failed += runs if wrong else differ
    return failed, errors


# --- metrics ----------------------------------------------------------------

def end_to_end(workload: str, rows, summary: dict, setup: tuple[float, float]) -> dict[str, float]:
    """Every time is an item's (or row's) time at the nominal host speed, as
    run_passes in worker.py takes it."""
    if workload == "sweep":
        # The units are the table rows: one (p, q) each, timed as the gap
        # between consecutive rows.
        rate = statistics.median(out[2] / times[0] for _, _, _, out, times in rows)
        p50 = statistics.median(times[1] for *_, times in rows)
        p90 = statistics.median(times[2] for *_, times in rows)
    else:
        latencies = sorted(times[0] for *_, times in rows)
        rate = len(latencies) / sum(latencies)
        p50, p90 = quantile(latencies, 0.5), quantile(latencies, 0.9)
    setup_s, setup_scale = setup
    return {
        "setup_s": setup_s * setup_scale,
        "items_per_s": rate,
        "latency_p50_ms": p50 * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "peak_rss_mb": summary["maxrss_kb"] / 1024,
    }


def per_layer(workload: str, trace: dict, passes: int, traced_rows, items) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics over `passes` traced passes, and the functions that
    should have run but did not."""
    calls, self_s = trace["calls"], trace["self_s"]
    edges = {(a, b): c for a, b, c in trace["edges"]}
    if workload == "sweep":
        # table pmax decides every (p, q) with 2 <= p <= pmax
        spaces = passes * sum(out[2] for _, _, _, out, _ in traced_rows if isinstance(out, list))
        p_values = passes * sum(items[index] - 1 for index, *_ in traced_rows)
    else:
        spaces = p_values = passes * len(traced_rows)
    out: dict[str, float] = {}
    for layer, names in LAYERS.items():
        for name in names:
            out[f"{layer}.{name}.calls"] = calls[f"{layer}.{name}"]
            out[f"{layer}.{name}.self_s"] = self_s[f"{layer}.{name}"]
    hits = calls["solver.find_prime_shift"]
    out["numtheory.factor.calls_per_p"] = calls["numtheory.factor"] / max(p_values, 1)
    out["numtheory.is_prime.calls_per_space"] = calls["numtheory.is_prime"] / max(spaces, 1)
    out["solver.find_prime_shift.candidates_per_hit"] = (
        edges.get(("solver.find_prime_shift", "numtheory.is_prime"), 0) / hits if hits else 0.0)
    out["witness.verify.calls_per_answer"] = calls["witness.verify"] / max(spaces, 1)
    out["trace.overhead_frac"] = trace["traced_s"] / trace["plain_s"] - 1
    missing = sorted(name for name in EXPECTED_CALLS[workload] if calls[name] == 0)
    return {name: out[name] for name in PER_LAYER}, missing


# --- main -------------------------------------------------------------------

def measure_setup(env: dict) -> tuple[float, float]:
    """Median wall time of a fresh interpreter that imports lenshf.cli, and
    the host-speed scale from bare interpreter starts between them."""
    imports, bare = [], []
    for _ in range(SETUP_REPEATS):
        for code, times in (("import lenshf.cli", imports), ("pass", bare)):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            times.append(perf_counter() - t0)
    return statistics.median(imports), STARTUP_NOMINAL_S / statistics.median(bare)


def run_worker(spec: dict, env: dict, timeout: float) -> dict:
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")], env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(json.dumps(spec), timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker did not finish within {timeout:.0f} s")
    finally:  # also on SIGTERM or Ctrl-C: never leave the worker behind
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "lenshf", "cli.py")) or not os.path.isfile(GOLDEN_PATH):
        print("run from the root of a lenshf checkout: src/lenshf or the golden data is missing",
              file=sys.stderr)
        return 2
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    items, meta = build_items(args.workload, args.seed, golden)

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, HERE]))
    setup = None if args.trace else measure_setup(env)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    results = os.path.join(OUT_DIR, f"results-{tag}.tsv")
    spec = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "items": items, "results": results,
            "spans": os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl")}
    summary = run_worker(spec, env, timeout=3 * args.seconds + 60)
    with open(results, encoding="utf-8") as fh:
        rows = parse_results(fh)
    os.remove(results)

    failed, errors = count_failures(args.workload, rows, items, meta, golden)
    attempted = sum(runs for _, runs, *_ in rows)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"items {len(items)}, passes {summary['passes']}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} runs of an item)")
    for msg in errors[:10]:
        print(f"  wrong: {msg}")

    if args.trace:
        # Untraced and traced passes alternate, each writing one line per item.
        traced_rows = rows[len(items):2 * len(items)]
        metrics, missing = per_layer(args.workload, summary["trace"], summary["passes"], traced_rows, items)
        for name in missing:
            print(f"  wrong: {name} recorded no calls")
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        for name, value in metrics.items():
            print(f"{name:46s} {value:14.6g} {units[name]:6s} -> {PER_LAYER[name][1]}")
        print(f"spans: {summary['trace']['spans']} kept, {summary['trace']['dropped_spans']} "
              f"past the cap, in {spec['spans']}")
    else:
        missing = []
        metrics = end_to_end(args.workload, rows, summary, setup)
        units = END_TO_END
        print(f"host speed: measured times scaled by {summary['scale']:.4f} (median over buckets) "
              f"(setup: {setup[1]:.4f}) to the nominal host; unscaled setup_s {setup[0]:.6g}")
        for name, value in metrics.items():
            print(f"{name:16s} {value:14.6g} {units[name]}")
    correct = not errors and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
