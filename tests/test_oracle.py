"""Tests for the brute-force oracles themselves.

The oracles are the reference side of every fast-path pairing, so they get
their own checks against directly enumerated ground truth.
"""

from __future__ import annotations

import random
from math import gcd

import pytest

from lenshf.errors import DomainError
from lenshf.lens import LensSpace
from lenshf.quadform import QuadForm
from lenshf.witness import verify
from oracle import (
    brute_form_represents,
    brute_is_prime,
    brute_least_roots,
    brute_n2,
    brute_n3,
    brute_primes_below,
    brute_qr,
)


def test_brute_qr_known_values():
    assert not brute_qr(2, 5)  # squares mod 5: {0, 1, 4}
    for m in (2, 3, 4, 5, 7, 12, 100):
        assert brute_qr(4, m)
    assert brute_qr(-3 % 7, 7)  # 2² ≡ 4 ≡ -3
    assert brute_qr(-3, 7)      # reduced internally
    assert brute_qr(0, 5)
    with pytest.raises(DomainError):
        brute_qr(1, 0)


def test_brute_qr_matches_square_sets():
    for m in range(1, 80):
        squares = {x * x % m for x in range(m)}
        assert brute_least_roots(m).keys() == squares
        for a in range(m):
            assert brute_qr(a, m) == (a in squares)


def test_brute_least_roots_and_the_prime_references_known_values():
    assert brute_least_roots(8) == {0: 0, 1: 1, 4: 2}
    assert brute_least_roots(15) == {0: 0, 1: 1, 4: 2, 9: 3, 10: 5, 6: 6}
    assert [m for m in range(-2, 30) if brute_is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert brute_primes_below(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29] and brute_primes_below(2) == []


def test_brute_n2_known_values():
    assert brute_n2(LensSpace(2, 1)) == (1, 0)
    assert brute_n2(LensSpace(4, 1)) == (1, 0)
    assert brute_n2(LensSpace(5, 2)) is None
    assert brute_n2(LensSpace(7, 3)) == (3, -4)  # 3·a² mod 7 misses ±1 for a < 3


def test_brute_n2_results_satisfy_identity():
    for p in range(2, 80):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            hit = brute_n2(LensSpace(p, q))
            if hit is None:
                continue
            a, t = hit
            assert abs(t * p + q * a * a) == 1


def test_brute_n3_known_values():
    assert brute_n3(LensSpace(3, 1), 0) is None  # a = 0 forces det ≡ 0 (mod 3)

    w = brute_n3(LensSpace(2, 1), 1)
    assert w is not None
    assert verify(LensSpace(2, 1), w).valid

    w = brute_n3(LensSpace(5, 2), 7)
    assert w is not None
    assert verify(LensSpace(5, 2), w).valid
    assert all(abs(v) <= 7 for v in w.a + w.t + [w.l[0][1]])


def test_brute_n3_rejects_negative_box():
    with pytest.raises(DomainError):
        brute_n3(LensSpace(5, 2), -1)


def test_brute_n3_witnesses_verify():
    rng = random.Random(61)
    for _ in range(60):
        p = rng.randint(2, 40)
        q = rng.randint(1, p - 1)
        if gcd(p, q) != 1:
            continue
        w = brute_n3(LensSpace(p, q), 6)
        if w is not None:
            assert verify(LensSpace(p, q), w).valid


def test_brute_form_represents_known_values():
    assert brute_form_represents(QuadForm(1, 0, 1), 2, 5) == (1, 1)
    assert brute_form_represents(QuadForm(-7, 2, -1), -7, 5) == (1, 0)
    assert brute_form_represents(QuadForm(1, 0, 1), 3, 50) is None
    with pytest.raises(DomainError):
        brute_form_represents(QuadForm(1, 0, 1), 2, -1)


def test_brute_form_represents_primitivity():
    # x² + y² = 4 only at (±2, 0) / (0, ±2), neither primitive
    assert brute_form_represents(QuadForm(1, 0, 1), 4, 10) is None
    assert brute_form_represents(QuadForm(9, 0, 1), 9, 10) == (1, 0)


def test_brute_form_represents_respects_bound():
    # x² + y² = 178 = 3² + 13² needs |y| = 13
    f = QuadForm(1, 0, 1)
    assert brute_form_represents(f, 178, 12) is None
    assert brute_form_represents(f, 178, 13) == (3, 13)
