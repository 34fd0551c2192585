"""Witness records, the bordered matrix they generate, exact determinant
evaluation, and certificate (de)serialization.

A witness (a, t, l) for L(p, q) generates the (n+1) x (n+1) integer matrix

    [ p      -q*a_1  ...  -q*a_n ]
    [ a_1    t_1          l_1n   ]
    [ ...          ...           ]
    [ a_n    l_n1         t_n    ]

and certifies a planar fibered surface with n+1 boundary components exactly
when the determinant is ±1.  Determinants are evaluated exactly over the
integers: explicit formulas through size 3, fraction-free Bareiss
elimination above that.  Certificates serialize every integer as a decimal
string so JSON consumers never round through 53-bit floats.
"""

from __future__ import annotations

from collections import namedtuple
from math import log2

from .errors import DomainError, ResourceError
from .lens import LensSpace


class Witness(namedtuple("Witness", "a t l")):
    """Boundary data: length-n lists a and t plus a symmetric n x n linking
    matrix l with zero diagonal; construction and _replace check all of it."""

    __slots__ = ()

    def __new__(cls, a: list[int], t: list[int], l: list[list[int]]):
        n = len(a)
        if n < 1:
            raise DomainError("witness needs n >= 1")
        if len(t) != n:
            raise DomainError(f"len(t) = {len(t)} != len(a) = {n}")
        if len(l) != n or any(len(row) != n for row in l):
            raise DomainError("l must be an n x n matrix")
        for i in range(n):
            if l[i][i] != 0:
                raise DomainError("l must have zero diagonal")
            for j in range(i + 1, n):
                if l[i][j] != l[j][i]:
                    raise DomainError("l must be symmetric")
        return tuple.__new__(cls, (a, t, l))

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    @property
    def n(self) -> int:
        return len(self.a)

    @classmethod
    def single(cls, a: int, t: int) -> "Witness":
        """([a], [t], [[0]]), built without re-checking, like factor()'s records: it passes by shape."""
        return tuple.__new__(cls, ([a], [t], [[0]]))

    @classmethod
    def pair(cls, a1: int, a2: int, t1: int, t2: int, l12: int) -> "Witness":
        """([a1, a2], [t1, t2], [[0, l12], [l12, 0]]), also unchecked: symmetric, zero diagonal."""
        return tuple.__new__(cls, ([a1, a2], [t1, t2], [[0, l12], [l12, 0]]))


class ConstructionTrace(namedtuple(
    "ConstructionTrace", "branch k q_prime s_prime eps z z_inv eps_prime D n_form z0 C0 w"
)):
    """Every intermediate of the n = 2 construction, for audit.

    q_prime is the prime ≡ 3 (mod 4) found at shift k; s_prime is the
    branch-adjusted Bezout coefficient with p*s_prime - q~*q_prime = 1
    (q~ = r on the q-branch, q on the r-branch).  eps is the sign making
    eps*p a residue mod q_prime, z its square root, z_inv = z^{-1}, and
    eps_prime = -eps the sign the witness determinant comes out to.
    D and n_form are the determinant and leading value of the constructed
    form (D = eps_prime*s_prime and n_form = -eps_prime*q_prime on the
    direct path), z0 the chosen congruence root, C0 the trailing form
    coefficient, and w the scale of the representing vector a = (w, 0):
    w = 1 on the direct path, w = r when a q-branch hit is transferred
    across L(p, r) = L(p, q).
    """

    __slots__ = ()


# Field names in declaration order: the order of the JSON trace object and of
# `lenshf analyze --trace`.
TRACE_FIELDS = ConstructionTrace._fields


class Certificate(namedtuple("Certificate", "lens witness det valid trace", defaults=(None,))):
    """A witness together with its exactly evaluated determinant; trace is
    the ConstructionTrace of a pipeline-built witness, otherwise None."""

    __slots__ = ()


def assemble_matrix(lens: LensSpace, w: Witness) -> list[list[int]]:
    """The bordered (n+1) x (n+1) matrix of a witness."""
    p, q = lens
    a, t, l = w
    rows = [[p, *[-q * aj for aj in a]]]
    for i in range(len(a)):
        row = [a[i], *l[i]]
        row[i + 1] = t[i]
        rows.append(row)
    return rows


def _det_bareiss(m: list[list[int]]) -> int:
    """Fraction-free Bareiss elimination; every division is exact."""
    m = [row[:] for row in m]
    size = len(m)
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for i in range(k + 1, size):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        top = m[k]
        pivot = top[k]
        for row in m[k + 1:]:
            head = row[k]
            for j in range(k + 1, size):
                row[j] = (row[j] * pivot - head * top[j]) // prev
        prev = pivot
    return sign * m[size - 1][size - 1]


def det_exact(m: list[list[int]]) -> int:
    """Exact determinant of a non-empty square integer matrix, else
    DomainError: explicit formulas through size 3, whose unpacking checks
    the shape, and Bareiss above, behind a check of every row's length."""
    size = len(m)
    try:
        if size == 1:
            ((a,),) = m
            return a
        if size == 2:
            (a, b), (c, d) = m
            return a * d - b * c
        if size == 3:
            (a, b, c), (d, e, f), (g, h, i) = m
            return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    except ValueError:  # a row of another length than size
        raise DomainError("matrix must be square and non-empty") from None
    if {*map(len, m)} != {size}:  # also catches size 0
        raise DomainError("matrix must be square and non-empty")
    return _det_bareiss(m)


# Estimated seconds of Bareiss elimination above which `lenshf verify` refuses
# a certificate; verify() itself, which the solvers call, has no budget.
VERIFY_BUDGET_S = 0.5


def _check_verify_budget(lens: LensSpace, w: Witness) -> None:
    """ResourceError when verify(lens, w) would take longer than VERIFY_BUDGET_S.

    Costed as Bareiss elimination at every size (det_exact takes formulas
    below size 4); through size 4, entries within the parser's 4300 digits
    estimate under 0.04 s.  Every intermediate is a minor, so it has at most
    H bits (H the Hadamard bound, from bit lengths in O(size^2)) and about
    H/2 on average.  Fitted on a 2-vCPU host for sizes 6 to 241: 0.3 µs per
    update plus 2.2e-12 s per squared operand bit, high past 10^4 bits.
    """
    m = assemble_matrix(lens, w)
    size = len(m)
    h = sum(0.5 * log2(sum(1 << 2 * x.bit_length() for x in row)) for row in m)
    estimate = (size - 1) * size * (2 * size - 1) // 6 * (3e-7 + 2.2e-12 * (h / 2) ** 2)
    if estimate > VERIFY_BUDGET_S:
        raise ResourceError(
            f"determinant of a {size}x{size} matrix with Hadamard bound {h:.0f} bits is "
            f"estimated at {estimate:.2g} s, above the verify budget of {VERIFY_BUDGET_S} s"
        )


def verify(lens: LensSpace, w: Witness) -> Certificate:
    """Evaluate the witness determinant exactly; valid iff it is ±1.

    Never raises for well-formed inputs: a witness that fails to certify
    simply comes back with valid=False.
    """
    det = det_exact(assemble_matrix(lens, w))
    return tuple.__new__(Certificate, (lens, w, det, det in (1, -1), None))  # no checking __new__ to skip


def pad(w: Witness) -> Witness:
    """Append a boundary component with a=0, t=1, zero linking.

    Cofactor expansion along the new last row shows the determinant is
    unchanged, so padding turns an n-witness into an (n+1)-witness for the
    same lens space.
    """
    n = w.n
    new_l = [row[:] + [0] for row in w.l]
    new_l.append([0] * (n + 1))
    return Witness(w.a + [0], w.t + [1], new_l)


# --- JSON interchange -------------------------------------------------------
# {p, q, n, a: [..], t: [..], l: [[..]], det, valid, trace?} with every
# integer a decimal string.  Parsing also tolerates raw JSON integers.

_TRACE_INT_FIELDS = tuple(name for name in TRACE_FIELDS if name != "branch")


def _parse_int(value: object) -> int:
    if isinstance(value, str):  # the common case, tested first
        # int() alone would also take "0_7", " 7" and non-ASCII digits; one
        # sign at most, so "--7" gets this message rather than int()'s
        if not (value.isascii() and (value.isdigit() or value[1:].isdigit() and value[0] in "+-")):
            raise ValueError(f"expected a decimal string, got {value!r}")
        return int(value)
    if isinstance(value, bool):
        raise ValueError("boolean is not an integer field")
    if isinstance(value, int):
        return value
    raise ValueError(f"expected integer or decimal string, got {value!r}")


def _parse_list(value: object) -> list:
    if not isinstance(value, list):
        raise ValueError(f"expected a JSON array, got {value!r}")
    return value


def certificate_to_dict(cert: Certificate, include_trace: bool = True) -> dict:
    d = {
        "p": str(cert.lens.p),
        "q": str(cert.lens.q),
        "n": str(cert.witness.n),
        "a": [str(v) for v in cert.witness.a],
        "t": [str(v) for v in cert.witness.t],
        "l": [[str(v) for v in row] for row in cert.witness.l],
        "det": str(cert.det),
        "valid": cert.valid,
    }
    if include_trace and cert.trace is not None:
        d["trace"] = {name: str(getattr(cert.trace, name)) for name in TRACE_FIELDS}
    return d


def certificate_from_dict(data: dict) -> Certificate:
    """Rebuild a certificate from its JSON dict.

    Raises ValueError/KeyError/TypeError on malformed structure (parse
    failures) and DomainError on semantically invalid lens or witness data.
    """
    lens = LensSpace(_parse_int(data["p"]), _parse_int(data["q"]))
    n = _parse_int(data["n"])
    a = [_parse_int(v) for v in _parse_list(data["a"])]
    t = [_parse_int(v) for v in _parse_list(data["t"])]
    l = [[_parse_int(v) for v in _parse_list(row)] for row in _parse_list(data["l"])]
    if len(a) != n:
        raise ValueError(f"declared n = {n} but len(a) = {len(a)}")
    w = Witness(a, t, l)
    det = _parse_int(data["det"])
    valid = data["valid"]
    if not isinstance(valid, bool):
        raise ValueError("valid must be a JSON boolean")
    trace = None
    if "trace" in data and data["trace"] is not None:
        raw = data["trace"]
        branch = raw["branch"]
        if not isinstance(branch, str):
            raise ValueError("trace.branch must be a string")
        trace = ConstructionTrace(
            branch=branch, **{name: _parse_int(raw[name]) for name in _TRACE_INT_FIELDS}
        )
    return Certificate(lens, w, det, valid, trace)


def certificate_to_json(cert: Certificate, include_trace: bool = True) -> str:
    import json  # imported on use, so that `import lenshf.cli` skips it

    return json.dumps(certificate_to_dict(cert, include_trace), indent=2)


def certificate_from_json(text: str) -> Certificate:
    import json

    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("certificate JSON must be an object")
    return certificate_from_dict(data)
