"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -v tests/test_acceptance.py` to get one line per criterion;
add -s to also see the detail lines printed here.
"""

from __future__ import annotations

import random
import time
from math import gcd

import numpy as np

from lenshf.cli import main
from lenshf.lens import LensSpace, same_homeomorphism_class
from lenshf.quadform import construct_representing_form, solvable_congruence
from lenshf.solver import minimal_planar_boundaries, solve_n2, solve_n3
from lenshf.witness import Witness, pad, verify
from oracle import brute_form_represents, brute_is_prime, brute_n3, brute_qr


def _coprime_pairs(pmax):
    for p in range(2, pmax + 1):
        for q in range(1, p):
            if gcd(p, q) == 1:
                yield p, q


def _report(num, ok, desc):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {desc}")
    assert ok, f"criterion {num:02d} failed: {desc}"


def test_criterion_01_count2_decision_matches_residue_scan_under_10s():
    start = time.perf_counter()
    mismatches = []
    for p, q in _coprime_pairs(200):
        fast = solve_n2(LensSpace(p, q)) is not None
        slow = brute_qr(q, p) or brute_qr(p - q, p)
        if fast != slow:
            mismatches.append((p, q))
    elapsed = time.perf_counter() - start
    _report(
        1,
        not mismatches and elapsed < 10.0,
        f"solve_n2 vs residue scan, p ≤ 200: {len(mismatches)} mismatches, {elapsed:.2f}s",
    )


def test_criterion_02_count3_construction_total_under_30s():
    start = time.perf_counter()
    failures = []
    for p, q in _coprime_pairs(200):
        lens = LensSpace(p, q)
        w = solve_n3(lens).witness
        if abs(verify(lens, w).det) != 1:
            failures.append((p, q))
    elapsed = time.perf_counter() - start
    _report(
        2,
        not failures and elapsed < 30.0,
        f"solve_n3 total on p ≤ 200: {len(failures)} failures, {elapsed:.2f}s",
    )


def test_criterion_03_certificates_sound_and_realizable_by_scan():
    unsound = []
    for p, q in _coprime_pairs(200):
        lens = LensSpace(p, q)
        _, cert = minimal_planar_boundaries(lens)
        if not cert.valid or verify(lens, cert.witness).det != cert.det:
            unsound.append((p, q))
    # independent realizability: a box scan must find count-3 witnesses
    # without the pipeline
    missed = []
    for p, q in _coprime_pairs(60):
        lens = LensSpace(p, q)
        count, _ = minimal_planar_boundaries(lens)
        if count != 3:
            continue
        w = brute_n3(lens, 25)
        if w is None or not verify(lens, w).valid:
            missed.append((p, q))
    _report(
        3,
        not unsound and not missed,
        f"{len(unsound)} unsound certificates (p ≤ 200); "
        f"{len(missed)} count-3 cases missed by box-25 scan (p ≤ 60)",
    )


def test_criterion_04_worked_instance_L52():
    lens = LensSpace(5, 2)
    got = solve_n3(lens)
    w, trace = got.witness, got.trace
    cert = verify(lens, w)
    ok = (
        cert.det == 1
        and w == Witness.pair(1, 0, -1, -7, -2)
        and trace.k == 1
        and trace.q_prime == 7
        and trace.eps == -1
        and trace.D == 3
        and trace.n_form == -7
        and abs(trace.z0) == 2
        and trace.C0 == -1
    )
    _report(4, ok, f"L(5,2) pipeline: witness {w.a + [w.l[0][1]] + w.t}, det {cert.det}")


def test_criterion_05_prime_residue_class_counts():
    bad = []
    for p in range(3, 201):
        if not brute_is_prime(p):
            continue
        twos = sum(
            1 for q in range(1, p) if minimal_planar_boundaries(LensSpace(p, q))[0] == 2
        )
        expected = p - 1 if p % 4 == 3 else (p - 1) // 2
        if twos != expected:
            bad.append((p, twos, expected))
    _report(5, not bad, f"residue-class counts over primes p ≤ 200: {len(bad)} wrong")


def test_criterion_06_congruence_solvable_iff_form_represents():
    span = 30
    bound = 60
    solvable = {}
    for n in range(-span, span + 1):
        if n == 0:
            continue
        for D in range(-span, span + 1):
            solvable[(n, D)] = solvable_congruence(n, D)

    # forward: a congruence root yields a form of determinant D that
    # represents n primitively (found independently by the scan)
    forward_fail = []
    for (n, D), z0 in solvable.items():
        if z0 is None:
            continue
        f = construct_representing_form(n, D, z0)
        if f.determinant() != D or brute_form_represents(f, n, bound) is None:
            forward_fail.append((n, D))

    # converse: when no root exists, no form of determinant D may represent
    # n primitively; sweep forms with |A|, |B| ≤ 30 over the whole vector box
    xs = np.arange(-bound, bound + 1, dtype=np.int64)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    coprime = np.array(
        [[gcd(int(x), int(y)) == 1 for y in xs] for x in xs], dtype=bool
    )
    X2, XY, Y2 = X * X, X * Y, Y * Y
    converse_fail = []
    for D in range(-span, span + 1):
        represented = set()
        for A in range(-span, span + 1):
            if A == 0:
                continue
            for B in range(-span, span + 1):
                num = D + B * B
                if num % A != 0:
                    continue
                C = num // A
                vals = A * X2 + 2 * B * XY + C * Y2
                hits = np.unique(vals[coprime & (np.abs(vals) <= span)])
                represented.update(int(v) for v in hits)
        for n in range(-span, span + 1):
            if n == 0:
                continue
            if solvable[(n, D)] is None and n in represented:
                converse_fail.append((n, D))

    _report(
        6,
        not forward_fail and not converse_fail,
        f"|n|,|D| ≤ {span}: {len(forward_fail)} forward failures, "
        f"{len(converse_fail)} converse discrepancies at bound {bound}",
    )


def test_criterion_07_padding_preserves_determinant_1000x():
    rng = random.Random(71)
    bad = 0
    for _ in range(1000):
        p = rng.randint(2, 10**4)
        q = rng.randint(1, p - 1)
        if gcd(p, q) != 1:
            q = 1
        lens = LensSpace(p, q)
        n = rng.randint(1, 5)
        a = [rng.randint(-50, 50) for _ in range(n)]
        t = [rng.randint(-50, 50) for _ in range(n)]
        l = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                l[i][j] = l[j][i] = rng.randint(-50, 50)
        w = Witness(a, t, l)
        if verify(lens, pad(w)).det != verify(lens, w).det:
            bad += 1
    _report(7, bad == 0, f"pad determinant invariance on 1000 random witnesses: {bad} broken")


def test_criterion_08_homeomorphic_spaces_get_same_count():
    disagreements = []
    for p in range(2, 51):
        counts = {}
        for q in range(1, p):
            if gcd(p, q) == 1:
                counts[q] = minimal_planar_boundaries(LensSpace(p, q))[0]
        qs = sorted(counts)
        for q1 in qs:
            for q2 in qs:
                if same_homeomorphism_class(LensSpace(p, q1), LensSpace(p, q2)):
                    if counts[q1] != counts[q2]:
                        disagreements.append((p, q1, q2))
    _report(8, not disagreements, f"class consistency p ≤ 50: {len(disagreements)} disagreements")


def test_criterion_09_cli_round_trip_100x(tmp_path, capsys):
    rng = random.Random(91)
    failures = []
    done = 0
    while done < 100:
        p = rng.randint(2, 500)
        q = rng.randint(1, p - 1)
        if gcd(p, q) != 1:
            continue
        code = main(["analyze", str(p), str(q), "--json", "--trace"])
        out = capsys.readouterr().out
        if code != 0:
            failures.append((p, q, "analyze", code))
            continue
        path = tmp_path / f"cert_{p}_{q}.json"
        path.write_text(out, encoding="utf-8")
        vcode = main(["verify", str(path)])
        capsys.readouterr()
        if vcode != 0:
            failures.append((p, q, "verify", vcode))
        done += 1
    _report(9, not failures, f"analyze --json | verify on 100 random (p,q), p ≤ 500: {failures[:5]}")
