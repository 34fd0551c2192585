"""Decides the minimal number of boundary components (2 or 3) of a planar
homologically fibered surface in a lens space, producing integer witnesses.

Count 2 (an annulus-like surface, n = 1) exists iff q or -q is a quadratic
residue mod p: t*p + q*a^2 = ±1 with a the root.  Otherwise count 3 (n = 2)
always works and is built constructively: shift q or the Bezout partner r
by multiples of p until a prime q' ≡ 3 (mod 4) appears, take a square root
z of ±p mod q' (exactly one sign is a residue), and turn z^{-1} into a
binary quadratic form whose coefficients fill the witness.  Every witness
is verified by exact determinant evaluation before it is returned.
"""

from __future__ import annotations

from collections import namedtuple

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
    for k in range(PRIME_SHIFT_CAP):
        for branch, base, step in ((Q_BRANCH, q, r), (R_BRANCH, r, q)):
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
    return cert if trace is None else Certificate(lens, w, want, True, trace)


def solve_n2(lens: LensSpace, *, fact: Factorization | None = None) -> Certificate | None:
    """Certificate with one boundary pair (n = 1), or None when impossible.

    Solves q*a^2 ≡ δ (mod p) for δ = +1 then -1, preferring the +1 branch
    and the smallest root a; t = (δ - q*a^2)/p is exact.  The certificate's
    det is the sign δ.  fact is the factorization of p; one of another
    number raises DomainError.

    Without fact, signs are ruled out before and while p is factored.  A
    square mod p is a square mod every divisor d of p, so for odd d its
    Jacobi symbol is +1, and a found d with jacobi(δ*q, d) = -1 rules δ out.
    For odd p, one symbol jacobi(q, p) does this for d = p: when p ≡ 1
    (mod 4), jacobi(-1, p) = +1 and both signs share it; when p ≡ 3
    (mod 4) exactly one sign survives.  Then factor(p) passes the divisors
    it has found to this check before each split, by Pollard p-1 or
    Pollard-Brent; once no sign is left it stops and None is returned.
    sqrt_mod runs only for the surviving signs.
    """
    p, q = lens.p, lens.q
    signs = (1, -1)
    if fact is None:
        if p % 2:
            j = jacobi(q, p)
            if p % 4 == 3:
                signs = (j,)  # jacobi(-q, p) = -j
            elif j == -1:
                return None

        def ruled_out(divisors: list[int]) -> bool:
            nonlocal signs
            odd = [d for d in divisors if d % 2]
            signs = tuple(sign for sign in signs if all(jacobi(sign * q, d) == 1 for d in odd))
            return not signs

        fact = factor(p, stop=ruled_out)
        if fact is None:
            return None
    qinv = mod_inv(q, p)
    for delta in signs:
        a = sqrt_mod(delta * qinv % p, p, fact)
        if a is not None:
            return _certified(lens, Witness.single(a, (delta - q * a * a) // p), delta)
    return None


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
    p, q = lens.p, lens.q
    pair = bezout(lens)
    s, r = pair.s, pair.r
    shift = find_prime_shift(lens, pair)
    qp = shift.q_prime
    eps = jacobi(p, qp)  # ±1: q' is prime to p, as q and r are
    z = sqrt_mod_prime(eps * p % qp, qp)
    if z is None:
        raise IntegrityError(f"{eps}*{p} unexpectedly a non-residue mod {qp}")
    z_inv = mod_inv(z, qp)
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
    trace = ConstructionTrace(
        branch=shift.branch, k=shift.k, q_prime=qp, s_prime=shift.s_prime,
        eps=eps, z=z, z_inv=z_inv, eps_prime=eps_prime,
        D=D, n_form=n_form, z0=z0, C0=f0.C, w=w_scale,
    )
    return _certified(lens, Witness.pair(w_scale, 0, f0.C, n_form, -z0), eps_prime, trace)


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

