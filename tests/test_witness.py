"""Tests for witness assembly, exact determinants, padding, and JSON interchange."""

from __future__ import annotations

import json
import random
import re
from itertools import permutations, product
from math import gcd

import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from lenshf.errors import DomainError
from lenshf.lens import LensSpace
from lenshf.solver import ConstructionTrace, minimal_planar_boundaries
from lenshf.witness import (
    TRACE_FIELDS,
    Certificate,
    Witness,
    assemble_matrix,
    certificate_from_dict,
    certificate_from_json,
    certificate_to_dict,
    certificate_to_json,
    det_exact,
    pad,
    verify,
)


def _random_witness(rng, n, span=20):
    a = [rng.randint(-span, span) for _ in range(n)]
    t = [rng.randint(-span, span) for _ in range(n)]
    l = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            l[i][j] = l[j][i] = rng.randint(-span, span)
    return Witness(a, t, l)


# --- structure ---------------------------------------------------------------

def test_witness_validation():
    Witness.single(3, -2)
    Witness.pair(1, 0, -1, -7, -2)
    for a, t, l, message in (
        ([], [], [], "witness needs n >= 1"),
        ([1], [2, 3], [[0]], "len(t) = 2 != len(a) = 1"),
        ([1, 2], [3, 4], [[0, 1], [2, 0]], "l must be symmetric"),
        ([1, 2], [3, 4], [[1, 0], [0, 0]], "l must have zero diagonal"),
        ([1, 2], [3, 4], [[0, 1]], "l must be an n x n matrix"),  # ragged
        ([1, 2], [3, 4], [[0, 1], [2]], "l must be an n x n matrix"),
    ):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            Witness(a, t, l)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):  # _replace checks too
            Witness.single(1, 0)._replace(a=a, t=t, l=l)


def test_builders_equal_the_checked_constructor():
    rng = random.Random(20)
    for _ in range(2000):
        # entries of up to 2, 64 and 600 bits, zero and negative ones included
        a1, a2, t1, t2, l12 = (rng.randint(-(1 << b), 1 << b) for b in rng.choices((2, 64, 600), k=5))
        for built, checked in (
            (Witness.single(a1, t1), Witness([a1], [t1], [[0]])),
            (Witness.pair(a1, a2, t1, t2, l12), Witness([a1, a2], [t1, t2], [[0, l12], [l12, 0]])),
        ):
            assert built == checked and type(built) is type(checked) is Witness


def test_witness_records_are_immutable_named_tuples():
    w = Witness.pair(1, 0, -1, -7, -2)
    a, t, l = w
    assert (a, t, l) == ([1, 0], [-1, -7], [[0, -2], [-2, 0]]) and w.n == 2
    assert w._replace(t=[5, 7]) == Witness([1, 0], [5, 7], l)
    cert = verify(LensSpace(5, 2), w)
    assert cert == Certificate(LensSpace(5, 2), w, 1, True) and cert.trace is None
    for record, name in ((w, "a"), (cert, "det")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_trace_fields_are_the_json_trace_keys_in_order():
    _, cert = minimal_planar_boundaries(LensSpace(8, 3))
    keys = list(json.loads(certificate_to_json(cert))["trace"])
    assert keys == list(TRACE_FIELDS) == [
        "branch", "k", "q_prime", "s_prime", "eps", "z", "z_inv", "eps_prime",
        "D", "n_form", "z0", "C0", "w",
    ]
    assert TRACE_FIELDS == ConstructionTrace._fields
    with pytest.raises(AttributeError):
        cert.trace.k = 0


def test_assemble_matrix_known():
    assert assemble_matrix(LensSpace(2, 1), Witness.single(1, 0)) == [[2, -1], [1, 0]]
    assert assemble_matrix(LensSpace(5, 2), Witness.pair(1, 0, -1, -7, -2)) == [
        [5, -2, 0],
        [1, -1, -2],
        [0, -2, -7],
    ]


def test_assemble_matrix_zero_witness_is_diagonal():
    for p, q, n in ((5, 2, 1), (7, 3, 2), (11, 4, 5)):
        w = Witness([0] * n, [1] * n, [[0] * n for _ in range(n)])
        m = assemble_matrix(LensSpace(p, q), w)
        for i in range(n + 1):
            for j in range(n + 1):
                expect = p if i == j == 0 else (1 if i == j else 0)
                assert m[i][j] == expect


# --- determinants ------------------------------------------------------------

def test_det_exact_small_matrices():
    assert det_exact([[7]]) == 7
    assert det_exact([[1, 2], [3, 4]]) == -2
    assert det_exact([[2, -1], [1, 0]]) == 1
    for bad in ([[1, 2], [3]], [], [[]], [[1, 2], [3, 4], [5, 6]], [[1, 2, 3], [4, 5, 6]]):
        with pytest.raises(DomainError):
            det_exact(bad)


def _det_leibniz(m):
    """Reference determinant: the signed sum over all permutations."""
    size = len(m)
    total = 0
    for perm in permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
        term = -1 if inversions % 2 else 1
        for row, col in zip(m, perm):
            term *= row[col]
        total += term
    return total


def test_det_exact_agrees_with_leibniz():
    from lenshf.witness import _det_bareiss

    rng = random.Random(41)
    cases = []
    for size in range(1, 8):
        for _ in range(30):
            cases.append([[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)])
            # mostly zeros: zero pivots, row swaps and singular matrices
            cases.append([[rng.choice((0, 0, 0, 0, 1, -1, 3)) for _ in range(size)] for _ in range(size)])
    for size in range(1, 6):
        for _ in range(10):
            cases.append([[rng.randint(-10**100, 10**100) for _ in range(size)] for _ in range(size)])
    for m in cases:
        expect = _det_leibniz(m)
        assert det_exact(m) == expect, m
        assert _det_bareiss(m) == expect, m


def test_det_exact_raises_exactly_on_a_row_of_another_length():
    # sizes 1-3 check the shape by unpacking, larger ones before Bareiss:
    # every mix of row lengths 0..size+1, each raising iff a row is off size
    rng = random.Random(43)
    for size in range(6):
        for lengths in product(range(size + 2), repeat=size):
            m = [[rng.randint(-5, 5) for _ in range(length)] for length in lengths]
            if size == 0 or any(length != size for length in lengths):
                with pytest.raises(DomainError, match="^matrix must be square and non-empty$"):
                    det_exact(m)
            else:
                assert det_exact(m) == _det_leibniz(m), m


def test_det_exact_handles_zero_pivots():
    m = [
        [0, 1, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1],
    ]
    assert det_exact(m) == 1  # two row swaps
    assert det_exact([[0] + row[1:] for row in m]) == 0  # no pivot in column 0
    assert det_exact([[0, 0], [0, 0]]) == 0


def test_verify_known_values():
    cert = verify(LensSpace(2, 1), Witness.single(1, 0))
    assert cert.det == 1 and cert.valid
    cert = verify(LensSpace(5, 2), Witness.pair(1, 0, -1, -7, -2))
    assert cert.det == 1 and cert.valid
    cert = verify(LensSpace(5, 2), Witness.single(1, 0))
    assert cert.det == 2 and not cert.valid


def test_verify_never_raises_on_well_formed_witnesses():
    rng = random.Random(42)
    for _ in range(200):
        lens = LensSpace(rng.randint(2, 50), 1)
        w = _random_witness(rng, rng.randint(1, 4))
        cert = verify(lens, w)
        assert cert.valid == (cert.det in (1, -1))


def test_n1_determinant_closed_form():
    # det [[p, -q a],[a, t]] = t p + q a²
    for p in range(2, 51):
        for q in range(1, p):
            if __import__("math").gcd(p, q) != 1:
                continue
            for a in (-20, -3, 0, 1, 7, 20):
                for t in (-20, -1, 0, 2, 20):
                    cert = verify(LensSpace(p, q), Witness.single(a, t))
                    assert cert.det == t * p + q * a * a


def test_n2_determinant_closed_form():
    rng = random.Random(43)
    for _ in range(500):
        p = rng.randint(2, 100)
        q = rng.randint(1, p - 1)
        if __import__("math").gcd(p, q) != 1:
            continue
        a1, a2 = rng.randint(-30, 30), rng.randint(-30, 30)
        t1, t2 = rng.randint(-30, 30), rng.randint(-30, 30)
        l12 = rng.randint(-30, 30)
        cert = verify(LensSpace(p, q), Witness.pair(a1, a2, t1, t2, l12))
        closed = p * (t1 * t2 - l12 * l12) - q * (
            2 * l12 * a1 * a2 - t2 * a1 * a1 - t1 * a2 * a2
        )
        assert cert.det == closed


def test_det_invariant_under_index_permutation():
    rng = random.Random(44)
    for _ in range(100):
        n = rng.randint(2, 5)
        lens = LensSpace(97, 31)
        w = _random_witness(rng, n)
        base = verify(lens, w).det
        perm = list(range(n))
        rng.shuffle(perm)
        pw = Witness(
            [w.a[i] for i in perm],
            [w.t[i] for i in perm],
            [[w.l[i][j] for j in perm] for i in perm],
        )
        assert verify(lens, pw).det == base


def test_det_invariant_under_negating_a():
    rng = random.Random(45)
    for _ in range(100):
        n = rng.randint(1, 5)
        lens = LensSpace(101, 13)
        w = _random_witness(rng, n)
        neg = Witness([-v for v in w.a], w.t, w.l)
        assert verify(lens, neg).det == verify(lens, w).det


# --- padding -----------------------------------------------------------------

def test_pad_known():
    w = pad(Witness.single(1, 0))
    assert w.a == [1, 0] and w.t == [0, 1]
    assert w.l == [[0, 0], [0, 0]]
    assert verify(LensSpace(2, 1), w).det == 1


def test_pad_preserves_det():
    rng = random.Random(46)
    for _ in range(200):
        lens = LensSpace(rng.randint(2, 200), 1)
        w = _random_witness(rng, rng.randint(1, 4))
        d0 = verify(lens, w).det
        w1 = pad(w)
        assert verify(lens, w1).det == d0
        assert verify(lens, pad(w1)).det == d0  # twice


def test_pad_keeps_invalid_invalid():
    lens = LensSpace(5, 2)
    w = Witness.single(1, 0)  # det 2
    assert not verify(lens, w).valid
    padded = verify(lens, pad(w))
    assert padded.det == 2 and not padded.valid


# --- JSON interchange --------------------------------------------------------

def _sample_cert(with_trace_data=False):
    lens = LensSpace(5, 2)
    cert = verify(lens, Witness.pair(1, 0, -1, -7, -2))
    if with_trace_data:
        trace = ConstructionTrace(
            branch="q-branch", k=1, q_prime=7, s_prime=3, eps=-1, z=3,
            z_inv=5, eps_prime=1, D=3, n_form=-7, z0=2, C0=-1, w=1,
        )
        cert = cert._replace(trace=trace)
    return cert


def test_json_integers_are_decimal_strings():
    d = certificate_to_dict(_sample_cert(with_trace_data=True))
    assert d["p"] == "5" and d["q"] == "2" and d["n"] == "2"
    assert d["a"] == ["1", "0"]
    assert d["t"] == ["-1", "-7"]
    assert d["l"] == [["0", "-2"], ["-2", "0"]]
    assert d["det"] == "1"
    assert d["valid"] is True
    assert d["trace"]["q_prime"] == "7" and d["trace"]["branch"] == "q-branch"


def test_json_round_trip_with_trace():
    cert = _sample_cert(with_trace_data=True)
    back = certificate_from_json(certificate_to_json(cert))
    assert back.lens == cert.lens
    assert back.witness == cert.witness
    assert back.det == cert.det and back.valid == cert.valid
    assert back.trace == cert.trace


def test_json_trace_can_be_omitted():
    cert = _sample_cert(with_trace_data=True)
    d = certificate_to_dict(cert, include_trace=False)
    assert "trace" not in d
    back = certificate_from_dict(d)
    assert back.trace is None
    assert back.witness == cert.witness


def test_json_accepts_raw_integers():
    d = certificate_to_dict(_sample_cert())
    d["p"] = 5
    d["a"] = [1, 0]
    back = certificate_from_dict(d)
    assert back.lens == LensSpace(5, 2)
    assert back.witness.a == [1, 0]


def test_json_rejects_malformed_structure():
    good = certificate_to_dict(_sample_cert(with_trace_data=True))
    for breakage in (
        lambda d: d.pop("det"),
        lambda d: d.__setitem__("n", "3"),
        lambda d: d.__setitem__("det", "not-a-number"),
        lambda d: d.__setitem__("det", True),
        lambda d: d.__setitem__("valid", "yes"),
        lambda d: d.__setitem__("a", "10"),
        lambda d: d.__setitem__("p", "0_5"),
        lambda d: d.__setitem__("p", "\u0665"),  # Arabic-Indic digit five
        lambda d: d.__setitem__("trace", {**d["trace"], "branch": 1}),
    ):
        d = {k: (v[:] if isinstance(v, list) else v) for k, v in good.items()}
        breakage(d)
        with pytest.raises((KeyError, TypeError, ValueError)):
            certificate_from_dict(d)


def test_json_rejects_a_doubled_sign_with_its_own_message():
    d = certificate_to_dict(_sample_cert())
    for value in ("+-5", "--5", "-+5"):
        d["p"] = value
        with pytest.raises(ValueError, match=f"^expected a decimal string, got '{re.escape(value)}'$"):
            certificate_from_dict(d)


def test_json_rejects_semantically_invalid_lens():
    d = certificate_to_dict(_sample_cert())
    d["q"] = "5"  # gcd(5,5) != 1
    with pytest.raises(DomainError):
        certificate_from_dict(d)


def test_json_top_level_must_be_object():
    with pytest.raises(ValueError):
        certificate_from_json("[1, 2, 3]")


def test_round_trip_random_witnesses():
    rng = random.Random(47)
    for _ in range(100):
        p = rng.randint(2, 10**6)
        q = rng.randint(1, p - 1)
        if __import__("math").gcd(p, q) != 1:
            continue
        lens = LensSpace(p, q)
        w = _random_witness(rng, rng.randint(1, 4), span=10**9)
        cert = verify(lens, w)
        back = certificate_from_json(certificate_to_json(cert))
        assert back == Certificate(lens, w, cert.det, cert.valid)


# The widest integer certificate_from_json reads: int() and str() refuse more
# than 4300 digits by default.
_WIDEST = 10**4300 - 1
_TRICKY_BRANCH = 'q"b\\r\x00\x1f\n\x7f é\u2028\U0001f600'  # quote, backslash, controls, non-ASCII, astral


def _solver_certificate(p, q, n):
    """The solver's certificate for L(p, q), padded up to n, trace kept."""
    _, cert = minimal_planar_boundaries(LensSpace(p, q))
    w = cert.witness
    while w.n < n:
        w = pad(w)
    return verify(cert.lens, w)._replace(trace=cert.trace)


@st.composite
def _certificates(draw):
    """A solver certificate (count 2 or 3) padded up to n = 5, or one read by
    certificate_from_json: integers of either sign up to 4300 digits, valid
    either way, and a branch of any text."""
    if draw(st.booleans()):
        p = draw(st.integers(2, 10**12))
        q = draw(st.integers(1, p - 1))
        assume(gcd(p, q) == 1)
        return _solver_certificate(p, q, draw(st.integers(1, 5)))
    # 4300-digit integers from a drawn seed: st.integers would take their
    # bits from hypothesis's buffer, which a few of them overrun, and such
    # an example is dropped
    widest = st.integers(0, 2**32).map(lambda s: random.Random(s).randrange(10**4299, _WIDEST + 1))
    ints = st.one_of(st.integers(-10**6, 10**6), widest, widest.map(int.__neg__))
    p = draw(st.one_of(st.integers(2, 10**6), widest))
    q = draw(st.integers(1, p - 1))
    assume(gcd(p, q) == 1)
    n = draw(st.integers(1, 5))
    l = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            l[i][j] = l[j][i] = draw(ints)
    doc = {
        "p": str(p), "q": str(q), "n": str(n),
        "a": [str(draw(ints)) for _ in range(n)],
        "t": [str(draw(ints)) for _ in range(n)],
        "l": [[str(v) for v in row] for row in l],
        "det": str(draw(ints)),
        "valid": draw(st.booleans()),
    }
    if draw(st.booleans()):
        doc["trace"] = {name: str(draw(ints)) for name in TRACE_FIELDS}
        doc["trace"]["branch"] = draw(st.one_of(st.just(_TRICKY_BRANCH), st.text()))
    return certificate_from_json(json.dumps(doc))


@seed(20261022)
@settings(max_examples=100, deadline=None, database=None)
@given(_certificates())
@example(_solver_certificate(197, 45, 5))  # count 3, with its trace
@example(_solver_certificate(11, 2, 5))  # count 2
def test_certificate_to_json_writes_the_bytes_of_json_dumps_indent_2(cert):
    for include_trace in (True, False):
        expected = json.dumps(certificate_to_dict(cert, include_trace), indent=2)
        assert certificate_to_json(cert, include_trace) == expected
