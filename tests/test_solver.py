"""Tests for the boundary-count decision procedures and witness construction.

The frozen traces below were hand-executed step by step (Bezout pair, prime
shift, Jacobi signs, modular square root, congruence root, form coefficients)
and cross-checked against the exact determinant verifier before being pinned.
"""

from __future__ import annotations

import hashlib
import random
from math import gcd, prod

import pytest

import lenshf.numtheory
import lenshf.solver
from lenshf.errors import DomainError, IntegrityError, ResourceError
from lenshf.lens import BezoutPair, LensSpace, bezout
from lenshf.numtheory import factor, is_prime, jacobi, mod_inv
from lenshf.quadform import QuadForm, construct_representing_form
from lenshf.solver import (
    ConstructionTrace,
    PrimeShift,
    find_prime_shift,
    minimal_planar_boundaries,
    solve_n2,
    solve_n3,
)
from lenshf.witness import Certificate, Witness, certificate_to_json, verify
from oracle import brute_n2, brute_qr


# --- solve_n2 ----------------------------------------------------------------

def test_solve_n2_known_values():
    cert = solve_n2(LensSpace(2, 1))
    assert (cert.witness.a, cert.witness.t, cert.det) == ([1], [0], 1)

    cert = solve_n2(LensSpace(7, 3))
    assert (cert.witness.a, cert.witness.t, cert.det) == ([3], [-4], -1)  # -3 ≡ 4 = 2² (mod 7)

    assert solve_n2(LensSpace(5, 2)) is None  # squares mod 5 are {1, 4}


def test_solve_n2_prefers_plus_one_and_smallest_root():
    # q = 1: both signs work for p ≡ 1 (mod 4); the +1 branch must win with a = 1
    cert = solve_n2(LensSpace(13, 1))
    assert cert.det == 1 and cert.witness.a == [1] and cert.witness.t == [0]
    # L(5,4): 4a² ≡ 1 (mod 5) at a ∈ {2, 3}; smallest root wins, t = (1-16)/5
    cert = solve_n2(LensSpace(5, 4))
    assert cert.det == 1 and cert.witness.a == [2] and cert.witness.t == [-3]


def test_solve_n2_agrees_with_scan():
    for p in range(2, 120):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            fast = solve_n2(LensSpace(p, q))
            slow = brute_n2(LensSpace(p, q))
            assert (fast is None) == (slow is None), (p, q)
            if fast is not None:
                assert verify(LensSpace(p, q), fast.witness).det == fast.det


def test_solve_n2_trivial_q1():
    for p in range(2, 40):
        cert = solve_n2(LensSpace(p, 1))
        assert cert.det == 1 and cert.witness.a == [1] and cert.witness.t == [0]


# --- find_prime_shift --------------------------------------------------------

def test_find_prime_shift_known_values():
    assert find_prime_shift(LensSpace(5, 2), bezout(LensSpace(5, 2))) == PrimeShift(
        "q-branch", 1, 7, 3
    )
    # 1 + 3k: k=2 gives 7 before the r-branch (2 + 3k) reaches 11 at k=3
    assert find_prime_shift(LensSpace(3, 1), bezout(LensSpace(3, 1))) == PrimeShift(
        "q-branch", 2, 7, 5
    )
    shift = find_prime_shift(LensSpace(2, 1), bezout(LensSpace(2, 1)))
    assert shift.q_prime == 3 and shift.k == 1


def test_prime_shift_is_an_immutable_named_tuple():
    shift = find_prime_shift(LensSpace(5, 2), bezout(LensSpace(5, 2)))
    branch, k, q_prime, s_prime = shift
    assert (branch, k, q_prime, s_prime) == ("q-branch", 1, 7, 3)
    assert shift._fields == ("branch", "k", "q_prime", "s_prime")
    assert shift._replace(k=2) == PrimeShift("q-branch", 2, 7, 3)
    assert type(shift._replace(k=2)) is PrimeShift
    with pytest.raises(AttributeError):
        shift.k = 0
    with pytest.raises(AttributeError):
        shift.extra = 0


def test_find_prime_shift_postcondition():
    rng = random.Random(51)
    for _ in range(300):
        p = rng.randint(2, 5000)
        q = rng.randint(1, p - 1)
        if gcd(p, q) != 1:
            continue
        lens = LensSpace(p, q)
        pair = bezout(lens)
        shift = find_prime_shift(lens, pair)
        assert shift.q_prime % 4 == 3
        base = lens.q if shift.branch == "q-branch" else pair.r
        assert shift.q_prime == base + shift.k * p
        q_tilde = pair.r if shift.branch == "q-branch" else lens.q
        assert p * shift.s_prime - q_tilde * shift.q_prime == 1


def test_find_prime_shift_cap_exhaustion(monkeypatch):
    monkeypatch.setattr(lenshf.solver, "PRIME_SHIFT_CAP", 1)
    with pytest.raises(ResourceError, match="PRIME_SHIFT_CAP"):
        find_prime_shift(LensSpace(3, 1), bezout(LensSpace(3, 1)))


# --- solve_n3 ----------------------------------------------------------------

def _check(lens, expect_witness, expect_trace):
    got = solve_n3(lens)
    w, trace = got.witness, got.trace
    assert w == expect_witness
    assert trace == expect_trace
    cert = verify(lens, w)
    assert cert.valid and cert.det == trace.eps_prime


def test_solve_n3_L52_frozen_trace():
    _check(
        LensSpace(5, 2),
        Witness.pair(1, 0, -1, -7, -2),
        ConstructionTrace(
            branch="q-branch", k=1, q_prime=7, s_prime=3, eps=-1, z=3,
            z_inv=5, eps_prime=1, D=3, n_form=-7, z0=2, C0=-1, w=1,
        ),
    )


def test_solve_n3_L21_frozen_trace():
    _check(
        LensSpace(2, 1),
        Witness.pair(1, 0, -1, -3, -1),
        ConstructionTrace(
            branch="q-branch", k=1, q_prime=3, s_prime=2, eps=-1, z=1,
            z_inv=1, eps_prime=1, D=2, n_form=-3, z0=1, C0=-1, w=1,
        ),
    )


def test_solve_n3_L31_transfer_branch():
    # q-branch prime with r ≠ q: the witness vector is scaled to w = r = 2
    _check(
        LensSpace(3, 1),
        Witness.pair(2, 0, 0, 7, -3),
        ConstructionTrace(
            branch="q-branch", k=2, q_prime=7, s_prime=5, eps=-1, z=2,
            z_inv=4, eps_prime=1, D=-9, n_form=7, z0=3, C0=0, w=2,
        ),
    )


def test_solve_n3_L83_transfer_branch():
    _check(
        LensSpace(8, 3),
        Witness.pair(5, 0, -9, 3, -1),
        ConstructionTrace(
            branch="q-branch", k=0, q_prime=3, s_prime=2, eps=-1, z=1,
            z_inv=1, eps_prime=1, D=-28, n_form=3, z0=1, C0=-9, w=5,
        ),
    )


def test_solve_n3_L92_transfer_branch():
    got = solve_n3(LensSpace(9, 2))
    w, trace = got.witness, got.trace
    assert w == Witness.pair(4, 0, -5, -11, -4)
    assert (trace.branch, trace.k, trace.q_prime) == ("q-branch", 1, 11)
    assert verify(LensSpace(9, 2), w).det == -1


def test_solve_n3_r_branch_cases():
    # L(4,1): r-branch at k=0 (r = 3 is already prime ≡ 3 mod 4)
    got = solve_n3(LensSpace(4, 1))
    w, trace = got.witness, got.trace
    assert trace.branch == "r-branch" and trace.k == 0 and trace.q_prime == 3
    assert w == Witness.pair(1, 0, 0, 3, -1)
    assert verify(LensSpace(4, 1), w).det == -1

    # L(3,2): q-branch 2+3k never hits ≡ 3 (mod 4) before r-branch 1+3k
    # reaches 7 at k = 2
    got = solve_n3(LensSpace(3, 2))
    w, trace = got.witness, got.trace
    assert trace.branch == "r-branch" and trace.k == 2 and trace.q_prime == 7
    assert w == Witness.pair(1, 0, -2, -7, -3)
    assert verify(LensSpace(3, 2), w).det == 1


def test_solve_n3_succeeds_everywhere_small():
    for p in range(2, 80):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            lens = LensSpace(p, q)
            got = solve_n3(lens)
            w, trace = got.witness, got.trace
            cert = verify(lens, w)
            assert cert.valid and cert.det == trace.eps_prime, (p, q)


def test_solve_n3_eps_is_the_unique_residue_sign():
    rng = random.Random(52)
    for _ in range(200):
        p = rng.randint(2, 2000)
        q = rng.randint(1, p - 1)
        if gcd(p, q) != 1:
            continue
        trace = solve_n3(LensSpace(p, q)).trace
        jp = jacobi(p, trace.q_prime)
        jm = jacobi(-p, trace.q_prime)
        assert jp * jm == -1  # q' ≡ 3 (mod 4) forces opposite signs
        assert jacobi(trace.eps * p, trace.q_prime) == 1
        assert trace.eps_prime == -trace.eps
        # the congruence root and form data are consistent
        assert (trace.z * trace.z - trace.eps * p) % trace.q_prime == 0
        assert (trace.z0 * trace.z0 + trace.D) % trace.q_prime == 0
        assert (trace.D + trace.z0 * trace.z0) % trace.n_form == 0


def test_solve_n3_resource_error_carries_no_witness(monkeypatch):
    monkeypatch.setattr(lenshf.solver, "PRIME_SHIFT_CAP", 1)
    with pytest.raises(ResourceError):
        solve_n3(LensSpace(3, 1))


# --- minimal_planar_boundaries -----------------------------------------------

def test_minimal_count_known_values():
    count, cert = minimal_planar_boundaries(LensSpace(7, 3))
    assert count == 2 and cert.valid and cert.witness.n == 1
    count, cert = minimal_planar_boundaries(LensSpace(5, 2))
    assert count == 3 and cert.valid and cert.witness.n == 2
    assert cert.trace is not None and cert.trace.q_prime == 7


def test_minimal_count_q1_is_always_two():
    for p in (2, 3, 10, 97, 1024):
        count, cert = minimal_planar_boundaries(LensSpace(p, 1))
        assert count == 2
        assert cert.witness.a == [1] and cert.witness.t == [0]


def test_minimal_count_matches_residue_scan():
    for p in range(2, 100):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            count, cert = minimal_planar_boundaries(LensSpace(p, q))
            assert cert.valid
            two_possible = brute_qr(q, p) or brute_qr(p - q, p)
            assert count == (2 if two_possible else 3), (p, q)


def test_count_two_certificates_have_no_trace():
    _, cert = minimal_planar_boundaries(LensSpace(7, 3))
    assert cert.trace is None


def test_certificate_det_is_the_recomputed_determinant():
    # the solvers' checked sign stands in for a second verify; it must be
    # exactly what verify recomputes, with or without a supplied factorization
    for p in range(2, 60):
        fact = factor(p)
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            lens = LensSpace(p, q)
            count, cert = minimal_planar_boundaries(lens)
            assert cert == verify(lens, cert.witness)._replace(trace=cert.trace), (p, q)
            assert minimal_planar_boundaries(lens, fact=fact) == (count, cert), (p, q)


def test_certificates_traces_and_forms_are_their_record_types():
    # tuple equality ignores the class, so the equality tests above would
    # pass on plain tuples; pin the records' classes and their namedtuple API
    def check(cert, lens):
        assert type(cert) is Certificate and cert.lens == lens, lens
        assert type(cert.witness) is Witness, lens
        t = cert.trace
        if t is not None:
            assert type(t) is ConstructionTrace and t.C0 == cert.witness.t[0], lens
            assert type(t._replace(k=0)) is ConstructionTrace
            f = construct_representing_form(t.n_form, t.D, t.z0)
            assert type(f) is QuadForm and (f.A, f.B, f.C) == (t.n_form, t.z0, t.C0), lens
            assert f._replace(B=0) == (t.n_form, 0, t.C0) and type(f._replace(B=0)) is QuadForm
            assert f.determinant() == t.D

    for p in range(2, 61):
        for q, count, cert in lenshf.solver.table_rows(p):
            lens = LensSpace(p, q)
            check(cert, lens)
            assert (cert.trace is None) == (count == 2), lens
            check(minimal_planar_boundaries(lens)[1], lens)
            plain = verify(lens, cert.witness)
            check(plain, lens)
            assert plain.trace is None and plain._replace(det=0).det == 0
            assert type(plain._replace(det=0)) is Certificate


def test_solvers_reject_a_witness_of_the_wrong_sign(monkeypatch):
    def flipped(lens, w):
        cert = verify(lens, w)
        return cert._replace(det=-cert.det)

    monkeypatch.setattr(lenshf.solver, "verify", flipped)
    with pytest.raises(IntegrityError, match="wanted -1"):
        solve_n2(LensSpace(7, 3))
    with pytest.raises(IntegrityError, match="wanted 1"):
        solve_n3(LensSpace(5, 2))


def test_minimal_count_returns_the_solvers_own_certificate(monkeypatch):
    returned = []
    for name in ("solve_n2", "solve_n3"):
        original = getattr(lenshf.solver, name)

        def wrapper(*args, _original=original, **kwargs):
            returned.append(_original(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(lenshf.solver, name, wrapper)
    count, cert = minimal_planar_boundaries(LensSpace(7, 3))
    assert count == 2 and cert is returned[-1] and cert.trace is None
    count, cert = minimal_planar_boundaries(LensSpace(5, 2))
    assert count == 3 and cert is returned[-1] and cert.trace is not None
    assert returned[-2] is None  # solve_n2 found no n = 1 witness for L(5,2)


# sha256 of certificate_to_json(cert, include_trace=True), generated at the
# commit before solve_n2/solve_n3 returned certificates and the q-branch
# transfer shift became a closed form: these pin every trace field.
_GOLDEN_CERTIFICATES = [
    pytest.param(  # 128-bit prime, q-branch at k = 0, transferred (w = r)
        170141183460469231731687303715884118201, 11, 3, "q-branch", True,
        "8fd763c9fde734c3bbec43afc94bfb9b42b4e5cb2b6ff77a5efe453ada3f6734",
        id="q-branch-128",
    ),
    pytest.param(  # 512-bit prime, q-branch at k = 321, transferred (w = r)
        int(
            "67039039649712985497870124991029230637396829102961966888617807218608820150"
            "36773488400937149083451713845015929093243025426876941405973284973216824503054581"
        ),
        2, 3, "q-branch", True,
        "8a18127ccf79c5f35fed68a3ae567a0a75b7cfeaeebcb22d6c5e3c55daa2e827",
        id="q-branch-512",
    ),
    pytest.param(  # 256-bit prime, r-branch at k = 133 (w = 1)
        57896044618658097711785492504343953926634992332820282019728792003956564832381,
        6, 3, "r-branch", False,
        "2955841deae350a7e3862499210c7874731f2979fedf5b440ae64a04897f6ba7",
        id="r-branch-256",
    ),
    pytest.param(  # 3*5*...*29*(2^61 - 1): ten odd primes, q = -x^2 mod p, det -1
        7459048453076331689038325865, 7458048453076253689038324344, 2, None, False,
        "39b446de42031c6eb53e0a04cfd76cc861c0d559e4856a8ec7c105b05a26cccb",
        id="count2-composite",
    ),
]


@pytest.mark.parametrize("p, q, count, branch, transferred, digest", _GOLDEN_CERTIFICATES)
def test_certificate_json_is_golden(p, q, count, branch, transferred, digest):
    got, cert = minimal_planar_boundaries(LensSpace(p, q))
    assert got == count
    if branch is None:
        assert cert.trace is None
    else:
        assert cert.trace.branch == branch
        assert (cert.trace.w != 1) == transferred
    text = certificate_to_json(cert, include_trace=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_factorization_of_another_number_is_rejected():
    with pytest.raises(DomainError):
        minimal_planar_boundaries(LensSpace(15, 2), fact=factor(21))
    with pytest.raises(DomainError):
        solve_n2(LensSpace(7, 3), fact=factor(5))


# --- count 3 from the Jacobi symbols of ±q -----------------------------------

def test_count_three_by_jacobi_symbols_factors_nothing(count_calls):
    calls = count_calls(lenshf.solver, "factor")
    p512, q512 = next(param.values[:2] for param in _GOLDEN_CERTIFICATES if param.id == "q-branch-512")
    for p, q in ((5, 2), (p512, q512)):
        assert jacobi(q, p) == jacobi(-q, p) == -1
        assert minimal_planar_boundaries(LensSpace(p, q))[0] == 3
    assert calls["factor"] == 0
    assert minimal_planar_boundaries(LensSpace(7, 3))[0] == 2
    assert calls["factor"] == 1


def test_count_three_with_a_plus_one_symbol_still_solves(count_calls):
    # (2|15) = (2|3)(2|5) = +1, yet 2 is a square mod neither 3 nor 5
    calls = count_calls(lenshf.solver, "sqrt_mod")
    assert jacobi(2, 15) == 1
    assert minimal_planar_boundaries(LensSpace(15, 2))[0] == 3
    assert calls["sqrt_mod"] >= 1


def test_solve_n2_without_a_factorization_matches_with_one():
    for p in range(3, 300, 2):
        fact = factor(p)
        for q in range(1, p):
            if gcd(p, q) == 1:
                lens = LensSpace(p, q)
                assert solve_n2(lens) == solve_n2(lens, fact=fact), (p, q)


# --- signs ruled out by the divisors found while factoring p ------------------

def _products_past_trial_bound():
    """(p, its primes, several q) for seeded products of 2-3 distinct primes
    of 14-24 bits, each prime's class mod 4 set by the bits of the index."""
    rng = random.Random(23)
    spaces = []
    for i in range(32):
        primes: list[int] = []
        while len(primes) < 2 + i % 2:
            bits = rng.randint(14, 24)
            cand = rng.getrandbits(bits) | 1 << (bits - 1) | 1
            wanted = 3 if i >> (1 + len(primes)) & 1 else 1
            if cand % 4 == wanted and cand not in primes and is_prime(cand):
                primes.append(cand)
        p = prod(primes)
        qs = [q for q in (rng.randrange(1, p) for _ in range(8)) if gcd(p, q) == 1]
        spaces.append((p, primes, qs[:6]))
    return spaces


def test_solve_n2_without_a_factorization_matches_with_one_past_trial_bound():
    counts = set()
    for p, _, qs in _products_past_trial_bound():
        fact = factor(p)
        for q in qs:
            lens = LensSpace(p, q)
            cert = solve_n2(lens)
            assert cert == solve_n2(lens, fact=fact), (p, q)
            counts.add(cert is None)
    assert counts == {True, False}


def test_solve_n2_none_past_trial_bound_agrees_with_sympy():
    # a sign δ gives a square when δ*q^-1 is one mod every prime power of p
    residue_ntheory = pytest.importorskip("sympy.ntheory.residue_ntheory")
    for p, primes, qs in _products_past_trial_bound():
        for q in qs:
            qinv = mod_inv(q, p)
            square = any(
                all(residue_ntheory.is_quad_residue(sign * qinv % prime, prime) for prime in primes)
                for sign in (1, -1)
            )
            assert (solve_n2(LensSpace(p, q)) is None) == (not square), (p, q)


def test_solve_n2_stops_factoring_once_both_signs_are_ruled_out(count_calls):
    # p ≡ 1 (mod 4) and (±2|p) = +1, so p must be factored; its first split
    # (ECM's) gives 10037 and 10009*10061, the second is tested first, and
    # (±2|10009*10061) = -1 rules out both signs
    calls = count_calls(lenshf.numtheory, "_ecm")
    p = 10009 * 10037 * 10061
    assert jacobi(2, p) == jacobi(-2, p) == 1
    for d in (10037, 10009 * 10061):
        assert jacobi(2, d) == jacobi(-2, d) == -1
    fact = factor(p)
    assert calls["_ecm"] == 2
    calls["_ecm"] = 0
    assert solve_n2(LensSpace(p, 2)) is None
    assert calls["_ecm"] == 1
    # the small primes count too: (±2|5) = (±2|13) = -1 decide before any
    # split, although (±2|10009*10169) = +1
    calls["_ecm"] = 0
    assert solve_n2(LensSpace(5 * 13 * 10009 * 10169, 2)) is None
    assert calls["_ecm"] == 0
    # a count-2 q still factors p completely, to the same certificate
    calls["_ecm"] = 0
    cert = solve_n2(LensSpace(p, 13))
    assert calls["_ecm"] == 2
    assert cert is not None and cert == solve_n2(LensSpace(p, 13), fact=fact)


def test_solve_n2_takes_one_jacobi_symbol_per_odd_divisor_while_a_sign_is_left(count_calls):
    # d = p first, then each proper divisor factor(p) finds; (-q|d) = ±(q|d)
    # by d mod 4.  factor hands stop nothing before its first split of p,
    # and then the divisors tested before each later split.  ECM splits p
    # into 10037 and 10009*10061 and tests the second first; its split is
    # the last, so stop never sees 10037 or the primes of 10009*10061:
    # q = 13 (+1 mod every d) takes 2 symbols, p and 10009*10061
    calls = count_calls(lenshf.solver, "jacobi")
    p = 10009 * 10037 * 10061
    for n, q, symbols in ((p, 2, 2), (p, 13, 2), (5 * 13 * 10009 * 10169, 2, 2)):
        calls["jacobi"] = 0
        solve_n2(LensSpace(n, q))
        assert calls["jacobi"] == symbols, (n, q)
