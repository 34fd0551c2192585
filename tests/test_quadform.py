"""Tests for binary quadratic forms and the -z0² ≡ D (mod |n|) congruence."""

from __future__ import annotations

import random
import time
from math import gcd

import pytest

from lenshf.errors import DomainError, ResourceError
from lenshf.quadform import QuadForm, construct_representing_form, solvable_congruence
from oracle import brute_form_represents


def test_evaluate_known_values():
    f = QuadForm(1, 0, 1)
    assert f.evaluate(3, 4) == 25
    assert QuadForm(-7, 2, -1).evaluate(1, 0) == -7
    for f in (QuadForm(1, 0, 1), QuadForm(3, -2, 5), QuadForm(-4, 7, 0)):
        assert f.evaluate(0, 0) == 0


def test_determinant_convention():
    assert QuadForm(2, 3, 7).determinant() == 2 * 7 - 9
    assert QuadForm(-7, 2, -1).determinant() == 3


def test_quadform_is_an_immutable_named_tuple():
    f = QuadForm(2, 3, 7)
    A, B, C = f
    assert (A, B, C) == (2, 3, 7) and f._fields == ("A", "B", "C")
    assert f._replace(B=-1) == QuadForm(2, -1, 7) and type(f._replace(B=-1)) is QuadForm
    assert repr(f) == "QuadForm(A=2, B=3, C=7)"
    with pytest.raises(AttributeError):
        f.A = 0
    with pytest.raises(AttributeError):
        f.extra = 0


def test_construct_representing_form_known():
    f = construct_representing_form(-7, 3, 2)
    assert (f.A, f.B, f.C) == (-7, 2, -1)
    assert f.determinant() == 3
    assert construct_representing_form(5, 0, 0) == QuadForm(5, 0, 0)
    for D in (-9, 0, 4, 100):
        f = construct_representing_form(1, D, 0)
        assert f == QuadForm(1, 0, D)
        assert f.evaluate(1, 0) == 1


def test_construct_representing_form_contract():
    rng = random.Random(21)
    checked = 0
    while checked < 400:
        n = rng.randint(-40, 40)
        z0 = rng.randint(-40, 40)
        D = rng.randint(-60, 60)
        if n == 0 or (D + z0 * z0) % n != 0:
            continue
        f = construct_representing_form(n, D, z0)
        assert f.determinant() == D
        assert f.evaluate(1, 0) == n
        checked += 1


def test_construct_representing_form_rejects_bad_inputs():
    with pytest.raises(DomainError):
        construct_representing_form(0, 3, 1)
    with pytest.raises(DomainError):
        construct_representing_form(7, 3, 1)  # 7 does not divide 4


def test_solvable_congruence_known_values():
    assert solvable_congruence(-7, 3) == 2  # z0² ≡ -3 ≡ 4 (mod 7)
    assert solvable_congruence(5, 1) == 2   # z0² ≡ -1 ≡ 4 (mod 5)
    for D in (-100, -1, 0, 1, 3, 99):
        assert solvable_congruence(1, D) == 0
        assert solvable_congruence(-1, D) == 0


def test_solvable_congruence_rejects_zero_modulus():
    with pytest.raises(DomainError):
        solvable_congruence(0, 5)


def test_solvable_congruence_caps_its_scan():
    start = time.perf_counter()
    with pytest.raises(ResourceError, match=r"z = 0 \.\. 15000000 .*1000000"):
        solvable_congruence(3 * 10**7, 3)  # gcd(-3, 3·10^7) = 3: the scan branch
    assert time.perf_counter() - start < 1.0
    assert solvable_congruence(-(10**6), 0) == 0  # at the cap the scan still runs


def test_solvable_congruence_agrees_with_scan():
    for n in range(-50, 51):
        if n == 0:
            continue
        m = abs(n)
        for D in range(-50, 51):
            brute = [z for z in range(m) if (z * z + D) % m == 0]
            z0 = solvable_congruence(n, D)
            if not brute:
                assert z0 is None, (n, D)
                continue
            assert z0 is not None, (n, D)
            assert (z0 * z0 + D) % m == 0
            # smallest magnitude representative
            assert -m < 2 * z0 <= m
            assert abs(z0) == min(min(z, m - z) for z in brute)


def test_solvable_congruence_tie_break_is_positive():
    hits = 0
    for n in range(2, 60):
        for D in range(-60, 61):
            z0 = solvable_congruence(n, D)
            if z0 is None or z0 == 0 or 2 * abs(z0) == n:
                continue
            # both ±z0 solve the congruence whenever either does
            if ((-z0) * (-z0) + D) % n == 0:
                assert z0 > 0, (n, D, z0)
                hits += 1
    assert hits > 100  # the tie case actually occurs


def test_congruence_solvable_iff_constructed_form_represents():
    # when the congruence has a root, the constructed form takes the value n
    # at the primitive vector (1, 0); a scan confirms independently
    for n in range(-20, 21):
        if n == 0:
            continue
        for D in range(-20, 21):
            z0 = solvable_congruence(n, D)
            if z0 is None:
                continue
            f = construct_representing_form(n, D, z0)
            hit = brute_form_represents(f, n, 2)
            assert hit is not None
            x, y = hit
            assert gcd(x, y) == 1 and f.evaluate(x, y) == n


def test_representation_implies_congruence_solvable():
    # a form of determinant D representing n primitively forces the
    # congruence to be solvable; scan small forms and vectors for violations
    rng = random.Random(22)
    for _ in range(300):
        A = rng.choice([a for a in range(-8, 9) if a])
        B = rng.randint(-8, 8)
        C = rng.randint(-8, 8)
        f = QuadForm(A, B, C)
        D = f.determinant()
        x = rng.randint(-10, 10)
        y = rng.randint(-10, 10)
        if gcd(x, y) != 1:
            continue
        n = f.evaluate(x, y)
        if n == 0:
            continue
        assert solvable_congruence(n, D) is not None, (A, B, C, x, y)
