"""Regenerate perfbench/data/golden.json from the lenshf source in src/.

Run from the repository root:

    python3 perfbench/make_golden.py

The file pins the outputs the benchmark checks against: the sha256 of
`lenshf table N` for every pmax the sweep can draw, a digest and count for
every analyze pool entry, and the certificates verify-bulk reads back.
Regenerate it only when a change of output is intended.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import gen  # noqa: E402
from lenshf import LensSpace, certificate_to_dict, certificate_to_json, minimal_planar_boundaries  # noqa: E402
from lenshf.cli import main as lenshf_main  # noqa: E402

# sha256 of `lenshf table 1000`, recorded in ROADMAP.md at the seed commit.
TABLE_1000_SHA256 = "cb2df1a381bfab86ea820f2998d1b6d18c0fed6d28fdca66f74a5ca14728eade"


def sweep_digests() -> dict[str, str]:
    """sha256 of `table pmax` for each pmax in SWEEP_PMAX.  Rows come in p
    order, so each is a prefix of the `table 1000` output, which must match
    the recorded hash."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if lenshf_main(["table", "1000"]) != 0:
            raise SystemExit("table 1000 failed")
    text = buf.getvalue()
    if hashlib.sha256(text.encode()).hexdigest() != TABLE_1000_SHA256:
        raise SystemExit("table 1000 no longer matches the recorded sha256")
    lo, hi = gen.SWEEP_PMAX
    out, h, pos = {}, hashlib.sha256(), 0
    for pmax in range(2, hi + 1):
        end = text.index(f"\n{pmax + 1}\t", pos) + 1
        h.update(text[pos:end].encode())
        pos = end
        if pmax >= lo:
            out[str(pmax)] = h.copy().hexdigest()
    return out


def solve_entry(space: gen.Space) -> str:
    p, q, _ = space
    count, cert = minimal_planar_boundaries(LensSpace(p, q))
    return f"{count}:{gen.digest(certificate_to_json(cert, include_trace=True))}"


def main() -> None:
    golden: dict = {"sweep": sweep_digests()}
    golden["analyze-prime"] = {
        f"{bits}-{kind}": [solve_entry(gen.prime_space(bits, kind, i)) for i in range(size)]
        for (bits, kind), size in sorted(gen.PRIME_POOL.items())
    }
    golden["analyze-composite"] = {
        kind: [solve_entry(gen.composite_space(kind, i)) for i in range(gen.COMPOSITE_POOL)]
        for kind in gen.COMPOSITE_BLOCK
    }
    certs = []
    for bits in gen.VERIFY_BITS:
        for n in (1, 2):
            for i in range(gen.VERIFY_POOL):
                p, q = gen.verify_space(bits, n, i)
                count, cert = minimal_planar_boundaries(LensSpace(p, q))
                if count != n + 1:
                    raise SystemExit(f"L({p},{q}) gave count {count}, wanted {n + 1}")
                certs.append(certificate_to_dict(cert, include_trace=True))
    golden["verify-bulk"] = certs
    path = os.path.join(HERE, "data", "golden.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
