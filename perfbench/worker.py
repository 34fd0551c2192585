"""The timed half of the benchmark: one closed-loop caller in one process.

Started by run.py with the generated inputs as JSON on stdin.  It imports
only lenshf and the standard library, so its peak RSS is lenshf's plus the
inputs.  It passes over the whole batch of items again and again until the
time is up, then writes one line per item to the results file: how often it
ran, how often its output differed from the first run's, that first output,
and its time at the nominal host speed (see run_passes).  run.py checks the
outputs after this process has exited.  A summary goes to stdout as one
JSON object.

Passing over the whole batch again and again, rather than timing each item
once, spreads every item over the whole run, so each meets the host in
several of its moods and the median over them repeats from run to run."""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import statistics
import sys
from array import array
from operator import add
from time import perf_counter

from calib import Calibrator


class HashSink:
    """stdout replacement that hashes everything written and stamps the time
    at which each row (a write ending in a newline) is complete."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.marks = array("d")

    def write(self, text: str) -> int:
        self.sha.update(text.encode())
        if text.endswith("\n"):
            self.marks.append(perf_counter())
        return len(text)

    def flush(self) -> None:
        pass


def quantile(sorted_values, frac: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(frac * len(sorted_values)))]


def make_step(workload: str):
    """The function that handles one item.  It returns the item's output,
    which must be the same on every pass, and the times of the units of work
    inside the call (the table rows, for sweep), or None when the call is
    the unit."""
    import lenshf
    import lenshf.cli

    if workload == "sweep":
        def step(pmax):
            sink = HashSink()
            start = perf_counter()
            with contextlib.redirect_stdout(sink):
                code = lenshf.cli.main(["table", str(pmax)])
            marks = sink.marks
            gaps = array("d", (b - a for a, b in zip([start, *marks], marks)))
            return [code, sink.sha.hexdigest(), len(gaps)], gaps
    elif workload.startswith("analyze"):
        def step(pq):
            count, cert = lenshf.minimal_planar_boundaries(lenshf.LensSpace(*pq))
            return [count, lenshf.certificate_to_json(cert, include_trace=True)], None
    else:
        def step(text):
            cert = lenshf.certificate_from_json(text)
            rec = lenshf.verify(cert.lens, cert.witness)
            return int(rec.det == cert.det and rec.valid and cert.valid), None
    return step


def run_passes(step, items, out, stop, tracer=None, calibrator=None) -> tuple[int, float]:
    """Pass over every item, again and again, until stop(passes, elapsed) is
    true after a pass; write one line per item and return the pass count and
    the wall time.  A raised exception is the item's output, so a failing
    item is counted, not fatal.

    Each item keeps, per unit of work, its mean time in each time bucket of
    the calibrator (one bucket without one), scaled by that bucket's
    host-speed factor, and reports the median over the buckets it ran in.
    Item and reference are both means over the same few seconds, so they
    meet the same host however often each ran in them; the median over
    buckets sets aside a bucket that a burst of noise hit."""
    first: list = [None] * len(items)
    differ = [0] * len(items)
    sums: list[dict[int, list]] = [{} for _ in items]  # item -> bucket -> [runs, per-unit sums]
    passes = 0
    t_start = perf_counter()
    while True:
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.space_id = i
            t0 = perf_counter()
            try:
                output, units = step(item)
            except Exception as exc:  # reported per item and checked by run.py
                output, units = {"error": repr(exc)}, None
            elapsed = perf_counter() - t0
            times = units if units is not None else (elapsed,)
            b = 0 if calibrator is None else calibrator.bucket()
            if passes == 0:
                first[i] = output
            else:
                differ[i] += output != first[i]
            acc = sums[i].get(b)
            if acc is None:
                sums[i][b] = [1, array("d", times)]
            else:
                acc[0] += 1
                acc[1] = array("d", map(add, acc[1], times))
        passes += 1
        wall = perf_counter() - t_start
        if stop(passes, wall):
            break
    for i, buckets in enumerate(sums):
        scaled = [[t * (1.0 if calibrator is None else calibrator.factor(b)) / runs for t in total]
                  for b, (runs, total) in buckets.items()]
        unit_times = [statistics.median(ts) for ts in zip(*scaled)]
        ordered = sorted(unit_times)
        summary = [sum(unit_times), quantile(ordered, 0.5), quantile(ordered, 0.9)]
        out.write(f"{i}\t{passes}\t{differ[i]}\t{json.dumps(first[i])}\t{json.dumps(summary)}\n")
    return passes, wall


def main() -> None:
    spec = json.load(sys.stdin)
    items, seconds = spec["items"], spec["seconds"]
    step = make_step(spec["workload"])
    summary: dict = {}
    with open(spec["results"], "w", encoding="utf-8") as out:
        if not spec["trace"]:
            calibrator = Calibrator(spec["workload"], perf_counter())
            # Stop at the pass boundary nearest to the time asked for.
            summary["passes"], _ = run_passes(step, items, out, lambda n, t: t + t / n / 2 >= seconds,
                                              calibrator=calibrator)
            summary["scale"] = statistics.median(map(calibrator.factor, calibrator.samples))
        else:
            from tracer import Tracer

            # Untraced and traced passes alternate, so that the host's drift
            # falls on both alike; their ratio is the tracing overhead.
            tracer = Tracer()
            rounds, plain_s, traced_s = 0, 0.0, 0.0
            while rounds == 0 or plain_s + traced_s < seconds * rounds / (rounds + 0.5):
                plain_s += run_passes(step, items, out, lambda n, t: True)[1]
                with tracer:
                    traced_s += run_passes(step, items, out, lambda n, t: True, tracer)[1]
                rounds += 1
            tracer.write_spans(spec["spans"])
            summary["passes"] = rounds
            summary["trace"] = {
                "plain_s": plain_s, "traced_s": traced_s,
                "calls": tracer.calls, "self_s": tracer.self_s,
                "edges": [[a, b, c] for (a, b), c in tracer.edges.items()],
                "spans": len(tracer.spans), "dropped_spans": tracer.dropped_spans,
            }
    summary["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
