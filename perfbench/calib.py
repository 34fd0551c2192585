"""Host-speed calibration.

On a shared host the same code runs up to about 90% slower for minutes at
a time, and a spell can cover a whole run, so no choice of samples inside
one run can remove it.  The benchmark therefore also times fixed
reference kernels, interleaved with the measured work, and scales each
time measured in a bucket of a few seconds by the ratio of the kernels'
nominal times to their mean times in the same bucket, weighed per
workload like the workload's own work.
Start-up time is scaled the same way, with a bare interpreter start as its
reference, since process creation and imports slow down in step with each
other but not with pure-Python work.  No reference runs lenshf, so a change
to lenshf cannot move them: the scaling removes the host's speed from the
figures, never a change in lenshf's cost.  Reported times read as they
would on a host where each kernel takes its NOMINAL_S and `python -c pass`
takes STARTUP_NOMINAL_S."""

from __future__ import annotations

import json
from time import perf_counter

# The nominal host: each kernel's time, and the median start of a bare
# interpreter, on a quiet 2.1 GHz Xeon vCPU with Python 3.11
NOMINAL_S = {"interpreter": 0.0016, "bigint": 0.0017, "parsing": 0.00143}
STARTUP_NOMINAL_S = 0.040

# How much each kernel weighs in a workload's reference.  The host's slow
# spells do not slow all code alike: in one spell of two minutes, at 1.56x
# for the interpreter kernel, big-integer pow ran 1.38x, JSON parsing 1.70x,
# and the workloads' own items 1.48x (sweep), 1.56x (analyze-composite),
# 1.61x (verify-bulk), 1.49x (256-bit analyze) and 1.36x (512-bit analyze).
# The mixes follow that spell where it agreed with others: sweep fell
# behind a mix that matched it there, in a later spell, and keeps the
# interpreter kernel alone.  analyze-prime's mix is weighed toward its
# 512-bit spaces, which take most of its time.
MIX = {
    "sweep": {"interpreter": 1.0},
    "analyze-prime": {"interpreter": 0.2, "bigint": 0.8},
    "analyze-composite": {"interpreter": 1.0},
    "verify-bulk": {"interpreter": 0.7, "parsing": 0.3},
}

_MODULUS = (1 << 255) - 19
_MODULUS_512 = (1 << 512) - 569


def interpreter() -> int:
    """Small-integer loops, a dict, and formatting and parsing of decimal
    strings, as in lenshf's per-space bookkeeping, JSON and table rows."""
    acc = 0
    for i in range(200):
        acc = (acc * 31 + pow(i + 2, 65537, _MODULUS)) % _MODULUS
        table = {j: j * i % 97 for j in range(24)}
        acc += sum(table.values())
        acc += int(f"{acc % 10**30}\t{i}".split("\t")[0])
    return acc


def bigint() -> int:
    """512-bit modular exponentiation, as in a Miller-Rabin round."""
    acc = 0
    for base in range(2, 5):
        acc ^= pow(base, _MODULUS_512 >> 1, _MODULUS_512)
    return acc


def _certificate_text() -> str:
    """A certificate-shaped JSON text of 64 records with 150-digit numbers."""
    big = 7 ** 177
    return json.dumps([{"p": str(big + i), "q": str(big // 3 + i), "a": [str(big // 5), "0"],
                        "t": [str(i), "1"], "l": [["0", str(i)], [str(i), "0"]], "det": "-1"}
                       for i in range(64)], indent=2)


_TEXT = _certificate_text()


def parsing() -> int:
    """JSON parsing of certificate-shaped text into strings and lists, as in
    certificate_from_json."""
    return sum(len(json.loads(_TEXT)) for _ in range(16))


KERNELS = {"interpreter": interpreter, "bigint": bigint, "parsing": parsing}


BUCKET_S = 2.5  # long enough for about 50 samples, short next to a slow spell
EVERY_S = 0.05


class Calibrator:
    """Samples the workload's reference kernels about every EVERY_S seconds
    and keeps, for each bucket of BUCKET_S seconds of the run, the mean
    sample: the host's speed in that bucket.  A time measured in a bucket is
    scaled to the nominal host speed by that bucket's factor."""

    def __init__(self, workload: str, start: float) -> None:
        self.mix = MIX[workload]
        self.start = start
        self.samples: dict[int, list[float]] = {}  # bucket -> mix of kernel times over nominal
        self._due = 0.0

    def bucket(self) -> int:
        """The bucket of the present moment, which holds a sample once this
        returns: sampled if one is due, or if none was taken in it yet."""
        b = int((perf_counter() - self.start) / BUCKET_S)
        late = perf_counter() - self._due
        if late >= 0 or b not in self.samples:
            # after a long item, catch up with one sample per EVERY_S
            # seconds since the last, at most five
            for _ in range(min(5, 1 + int(max(late, 0) / EVERY_S))):
                self._sample(b)
        return b

    def _sample(self, b: int) -> None:
        ratio = 0.0
        for name, weight in self.mix.items():
            t0 = perf_counter()
            KERNELS[name]()
            ratio += weight * (perf_counter() - t0) / NOMINAL_S[name]
        self.samples.setdefault(b, []).append(ratio)
        self._due = perf_counter() + EVERY_S

    def factor(self, b: int) -> float:
        return len(self.samples[b]) / sum(self.samples[b])
