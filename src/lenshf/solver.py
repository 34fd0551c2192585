"""Decides the minimal number of boundary components (2 or 3) of a planar
homologically fibered surface in a lens space, producing integer witnesses.

Count 2 (an annulus-like surface, n = 1) exists iff q or -q is a quadratic
residue mod p: t*p + q*a^2 = ±1 with a the root.  Otherwise count 3 (n = 2)
always works and is built constructively: shift q or the Bezout partner r
by multiples of p until a prime q' ≡ 3 (mod 4) appears, take a square root
z of ±p mod q' (exactly one sign is a residue), and turn z^{-1} into a
binary quadratic form whose coefficients fill the witness.  Every witness
is verified by exact determinant evaluation before it is returned.

table_rows is the census of one p that `lenshf table` prints: every L(p, q)
with its count and certificate, p factored once, each row's work done once.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .errors import IntegrityError, ResourceError
from .lens import BezoutPair, LensSpace, bezout
from .numtheory import Factorization, factor, is_prime, jacobi, mod_inv, sqrt_mod, sqrt_mod_prime
from .quadform import construct_representing_form
from .witness import Certificate, ConstructionTrace, Witness, verify

PRIME_SHIFT_CAP = 100_000

Q_BRANCH = "q-branch"
R_BRANCH = "r-branch"


class PrimeShift(namedtuple("PrimeShift", "branch k q_prime s_prime")):
    """A prime q_prime ≡ 3 (mod 4) at shift k of branch, as find_prime_shift returns it."""

    __slots__ = ()


def find_prime_shift(lens: LensSpace, pair: BezoutPair) -> PrimeShift:
    """First prime ≡ 3 (mod 4) in the progressions q + k*p and r + k*p.

    Tested in the interleaved order (q-branch, k), (r-branch, k), k + 1, so
    results are deterministic.  Returns the branch, shift k, the prime
    q_prime, and s_prime = s + k*r (q-branch) or s + k*q (r-branch), which
    satisfies p*s_prime - q~*q_prime = 1 for q~ = r resp. q.  One branch
    always holds such a prime (Dirichlet), so PRIME_SHIFT_CAP (10^5) shifts
    per branch is a runaway guard: past it, ResourceError.
    """
    p, q = lens.p, lens.q
    s, r = pair.s, pair.r
    branches = ((Q_BRANCH, q, r), (R_BRANCH, r, q))
    for k in range(PRIME_SHIFT_CAP):
        for branch, base, step in branches:
            cand = base + k * p
            if cand % 4 == 3 and is_prime(cand):
                return PrimeShift(branch, k, cand, s + k * step)
    raise ResourceError(
        f"no prime ≡ 3 (mod 4) in {q}+k*{p} or {r}+k*{p} for k < {PRIME_SHIFT_CAP} "
        f"(solver.PRIME_SHIFT_CAP)"
    )


def _certified(
    lens: LensSpace, w: Witness, want: int, trace: ConstructionTrace | None = None
) -> Certificate:
    """The certificate of w with trace attached; IntegrityError unless its
    exactly evaluated determinant is the sign want the construction aimed at."""
    cert = verify(lens, w)
    if cert.det != want:
        raise IntegrityError(f"witness for {lens} has det {cert.det}, wanted {want}; trace: {trace}")
    return cert if trace is None else tuple.__new__(Certificate, (lens, w, want, True, trace))


def solve_n2(lens: LensSpace, *, fact: Factorization | None = None) -> Certificate | None:
    """Certificate with one boundary pair (n = 1), or None when impossible.

    Solves q*a^2 ≡ δ (mod p) for δ = +1 then -1 with sqrt_mod's smallest
    root a; the certificate's det is the sign δ.  fact is the factorization
    of p; one of another number raises DomainError.

    Without fact, signs are ruled out first.  A square mod p is a square
    mod every divisor d of p, so a sign δ with jacobi(δ*q, d) = -1 for an
    odd d is out.  ruled_out takes one symbol j = jacobi(q, d) per odd d,
    as jacobi(-q, d) = ±j by d mod 4: first for d = p, then for each
    proper divisor factor(p) finds, before each split; once no sign is
    left, factor stops and None is returned.
    """
    p, q = lens.p, lens.q
    signs = (1, -1)
    if fact is None:
        def ruled_out(divisors: list[int]) -> bool:
            nonlocal signs
            for d in divisors:
                if d % 2 and signs:
                    j = jacobi(q, d)  # jacobi(-1, d) = -1 iff d ≡ 3 (mod 4)
                    signs = tuple(sign for sign in signs if (sign if d % 4 == 3 else 1) * j == 1)
            return not signs

        if ruled_out([p]) or (fact := factor(p, stop=ruled_out)) is None:
            return None
    qinv = mod_inv(q, p)
    for delta in signs:
        a = sqrt_mod(delta * qinv % p, p, fact)
        if a is not None:
            return _n2_from_root(lens, a, delta)
    return None


def _n2_from_root(lens: LensSpace, a: int, delta: int) -> Certificate:
    """solve_n2's certificate from a root a of q*a^2 ≡ δ (mod p): t = (δ - q*a^2)/p."""
    p, q = lens
    return _certified(lens, Witness.single(a, (delta - q * a * a) // p), delta)


def solve_n3(lens: LensSpace) -> Certificate:
    """Certificate with two boundary pairs (n = 2) and its construction
    trace; ResourceError only past PRIME_SHIFT_CAP prime-search shifts.

    Pipeline: Bezout pair; prime shift q' ≡ 3 (mod 4); the sign
    eps = jacobi(p, q'), so jacobi(eps*p, q') = +1 as q' ≡ 3 (mod 4);
    z = sqrt of eps*p mod q'; z' = z^{-1}; eps' = -eps.  The congruence
    -z0^2 ≡ eps'*s' (mod q') holds for z0 = ±z', and the representing form
    (n_form, z0, C0) fills the witness a = (w, 0), t = [C0, n_form],
    l12 = -z0.  An r-branch prime certifies the input directly (w = 1);
    a q-branch prime certifies L(p, r) with r = -q^{-1} mod p, so it is
    transferred across L(p, r) = L(p, q) by the shift m with
    r + m*p = -q'*r^2, scaling the vector to w = r.  That shift is the
    exact quotient m = -r*(q'*r + 1)/p = -r*s', because q' = q + k*p and
    q*r + 1 = p*s give q'*r + 1 = p*s'.  The returned certificate's det
    is exactly eps'.
    """
    pair = bezout(lens)
    return _n3_from_shift(lens, pair, find_prime_shift(lens, pair))


def _n3_from_shift(lens: LensSpace, pair: BezoutPair, shift: PrimeShift) -> Certificate:
    """solve_n3 past its prime shift: the sign eps, the root z of eps*p mod q', z^{-1}."""
    p, qp = lens.p, shift.q_prime
    eps = jacobi(p, qp)  # ±1: q' is prime to p, as q and r are
    z = sqrt_mod_prime(eps * p % qp, qp)
    if z is None:
        raise IntegrityError(f"{eps}*{p} unexpectedly a non-residue mod {qp}")
    return _n3_certificate(lens, pair, shift, eps, z, mod_inv(z, qp))


def _n3_certificate(
    lens: LensSpace, pair: BezoutPair, shift: PrimeShift, eps: int, z: int, z_inv: int
) -> Certificate:
    """solve_n3's tail: the form, the witness and the trace built from the
    prime shift and the root z (z_inv its inverse mod q'), verified once."""
    q, s, r = lens.q, pair.s, pair.r
    qp = shift.q_prime
    eps_prime = -eps
    z0 = min(z_inv, qp - z_inv)  # smallest-magnitude representative of ±z'
    if shift.branch == Q_BRANCH and r != q:
        w_scale = r
        m = -r * shift.s_prime
        D = eps_prime * (s + m * q)
        n_form = eps_prime * qp
    else:
        w_scale = 1
        D = eps_prime * shift.s_prime
        n_form = -eps_prime * qp
    f0 = construct_representing_form(n_form, D, z0)
    trace = tuple.__new__(ConstructionTrace, (
        shift.branch, shift.k, qp, shift.s_prime, eps, z, z_inv, eps_prime, D, n_form, z0, f0.C, w_scale
    ))
    return _certified(lens, Witness.pair(w_scale, 0, f0.C, n_form, -z0), eps_prime, trace)


def _n3_from_partner(lens: LensSpace, partner: Certificate) -> Certificate:
    """solve_n3's certificate of L(p, q) from that of its Bezout partner
    L(p, r), r = -q^{-1} mod p other than q.

    The Bezout pair of L(p, q) is that of L(p, r) with r and q swapped, so
    find_prime_shift tests the same two candidates at each k in swapped
    order and hits at the same least k.  There L(p, q) takes the prime,
    s', eps and root of L(p, r), unless L(p, r) hit on its q-branch and
    q + k*p is a prime ≡ 3 (mod 4) too: that is then L(p, q)'s own q-branch
    hit at k, with s' = s + k*r, and only its eps and root are new.
    """
    p, q = lens
    r, t = partner.lens.q, partner.trace
    pair = BezoutPair((1 + q * r) // p, r)
    if t.branch == Q_BRANCH:
        cand = q + t.k * p
        if cand % 4 == 3 and is_prime(cand):
            return _n3_from_shift(lens, pair, PrimeShift(Q_BRANCH, t.k, cand, pair.s + t.k * r))
    shift = PrimeShift(R_BRANCH if t.branch == Q_BRANCH else Q_BRANCH, t.k, t.q_prime, t.s_prime)
    return _n3_certificate(lens, pair, shift, t.eps, t.z, t.z_inv)


def minimal_planar_boundaries(
    lens: LensSpace, *, fact: Factorization | None = None
) -> tuple[int, Certificate]:
    """The minimal boundary count (2 or 3) with a verified certificate.

    fact, the factorization of p, lets a caller deciding many spaces with
    the same p factor it once; None factors here.  The certificate is the
    one solve_n2/solve_n3 verified.
    """
    two = solve_n2(lens, fact=fact)
    if two is not None:
        return 2, two
    return 3, solve_n3(lens)


def table_rows(p: int):
    """(q, count, cert) for each L(p, q) in ascending q, each certificate
    the one minimal_planar_boundaries gives, built and verified once, at
    its own row.

    first maps each square of 1..p//2 to its least root, the root solve_n2
    finds (p - a is a root too); the square of a non-unit is a non-unit, so
    no gcd is needed.  A row where only p - q is in first takes δ = -1 and
    a = first[-q^{-1} mod p].  A count-3 row whose Bezout partner comes
    later leaves it its certificate.
    """
    fact = factor(p)
    first = {a * a % p: a for a in range(p // 2, 0, -1)}
    later = {}  # a later Bezout partner's q -> the certificate of the row it pairs with
    for q in range(1, p):
        if gcd(p, q) != 1:
            continue
        lens = tuple.__new__(LensSpace, (p, q))  # skips LensSpace's checks: 0 < q < p, gcd 1 above
        if q in later:
            yield q, 3, _n3_from_partner(lens, later.pop(q))
        elif q in first:
            count, cert = minimal_planar_boundaries(lens, fact=fact)
            if count != 2:
                raise IntegrityError(f"{lens}: {q} is a square mod {p}, but the solver says {count}")
            yield q, 2, cert
        elif p - q in first:
            yield q, 2, _n2_from_root(lens, first[p - pow(q, -1, p)], -1)
        else:
            cert = solve_n3(lens)
            # r = -q^{-1} mod p from the trace, without a modular inverse: an
            # r-branch prime is r + k*p, and a q-branch witness is scaled by
            # w = r (w = 1 when r = q, which has no partner)
            t = cert.trace
            r = t.q_prime - t.k * p if t.branch == R_BRANCH else t.w
            if r > q:
                later[r] = cert
            yield q, 3, cert
