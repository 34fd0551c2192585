"""Tests for lens space normalization, Bezout pairs, and homeomorphism classes."""

from __future__ import annotations

import random
import re
from math import gcd

import pytest

from lenshf.errors import DomainError
from lenshf.lens import (
    NOT_A_LENS_SPACE,
    THREE_SPHERE,
    BezoutPair,
    LensSpace,
    SpecialCase,
    bezout,
    normalize,
    same_homeomorphism_class,
)


def test_lens_space_validation():
    lens = LensSpace(5, 2)
    assert (lens.p, lens.q) == (5, 2)
    assert str(lens) == "L(5,2)"
    for p, q, message in (
        (1, 0, "need p >= 2, got 1"),
        (5, 0, "need 0 < q < p, got q=0, p=5"),
        (5, 5, "need 0 < q < p, got q=5, p=5"),
        (6, 3, "need gcd(p, q) = 1, got gcd 3"),
    ):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            LensSpace(p, q)
        if p >= 2:  # _replace checks the new pair as the constructor does
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                LensSpace(p, 1)._replace(q=q)


def test_lens_records_are_immutable_named_tuples():
    lens = LensSpace(8, 3)
    p, q = lens
    assert (p, q) == (8, 3) and lens._fields == ("p", "q")
    assert lens._replace(q=5) == LensSpace(8, 5) and type(lens._replace(q=5)) is LensSpace
    assert repr(lens) == "LensSpace(p=8, q=3)"
    assert bezout(lens) == BezoutPair(s=2, r=5)
    for record in (lens, bezout(lens), normalize(1, 0)):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], 0)
        with pytest.raises(AttributeError):
            record.extra = 0


def test_normalize_reduces_q():
    assert normalize(5, 7) == LensSpace(5, 2)
    assert normalize(5, -3) == LensSpace(5, 2)
    assert normalize(7, 100) == LensSpace(7, 2)


def test_normalize_orientation_flip():
    # L(-p, q) is read as L(p, (-q) mod p)
    assert normalize(-5, 2) == LensSpace(5, 3)
    assert normalize(-7, 1) == LensSpace(7, 6)


def test_normalize_special_cases():
    out = normalize(1, 0)
    assert isinstance(out, SpecialCase) and out.kind == THREE_SPHERE
    assert normalize(-1, 3).kind == THREE_SPHERE
    assert normalize(0, 1).kind == NOT_A_LENS_SPACE


def test_normalize_rejects_common_factor():
    with pytest.raises(DomainError):
        normalize(6, 3)
    with pytest.raises(DomainError):
        normalize(-6, 4)


def test_normalize_is_idempotent():
    rng = random.Random(31)
    for _ in range(500):
        p = rng.randint(-1000, 1000)
        q = rng.randint(-1000, 1000)
        try:
            out = normalize(p, q)
        except DomainError:
            continue
        if isinstance(out, SpecialCase):
            continue
        again = normalize(out.p, out.q)
        assert again == out


def test_bezout_known_values():
    assert bezout(LensSpace(5, 2)) == BezoutPair(s=1, r=2)
    assert bezout(LensSpace(2, 1)) == BezoutPair(s=1, r=1)
    assert bezout(LensSpace(7, 3)) == BezoutPair(s=1, r=2)


def test_bezout_identity_small_exhaustive():
    for p in range(2, 300):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            pair = bezout(LensSpace(p, q))
            assert p * pair.s - q * pair.r == 1
            assert 0 < pair.r < p and pair.s > 0
            assert q * pair.r % p == p - 1  # q·r ≡ -1 (mod p)


def test_bezout_identity_sampled_large():
    rng = random.Random(32)
    done = 0
    while done < 500:
        p = rng.randint(2, 10**6)
        q = rng.randint(1, p - 1)
        if gcd(p, q) != 1:
            continue
        pair = bezout(LensSpace(p, q))
        assert p * pair.s - q * pair.r == 1
        assert 0 < pair.r < p and pair.s > 0
        done += 1


def test_same_class_known_values():
    assert same_homeomorphism_class(LensSpace(5, 2), LensSpace(5, 3))  # 3 ≡ -2
    assert same_homeomorphism_class(LensSpace(5, 2), LensSpace(5, 2))
    assert not same_homeomorphism_class(LensSpace(7, 1), LensSpace(7, 2))
    assert not same_homeomorphism_class(LensSpace(5, 2), LensSpace(7, 2))


def test_same_class_is_an_equivalence_on_small_p():
    for p in range(2, 51):
        qs = [q for q in range(1, p) if gcd(p, q) == 1]
        spaces = [LensSpace(p, q) for q in qs]
        rel = {
            (a.q, b.q)
            for a in spaces
            for b in spaces
            if same_homeomorphism_class(a, b)
        }
        for q in qs:
            assert (q, q) in rel
        for a, b in rel:
            assert (b, a) in rel
        for a, b in rel:
            for c in qs:
                if (b, c) in rel:
                    assert (a, c) in rel, (p, a, b, c)


def test_same_class_matches_inverse_and_negation():
    for p in range(2, 60):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            lens = LensSpace(p, q)
            qinv = pow(q, -1, p)
            for q2 in (q, (-q) % p, qinv, (-qinv) % p):
                assert same_homeomorphism_class(lens, LensSpace(p, q2))
