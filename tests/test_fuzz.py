"""Hypothesis fuzz of certificate parsing and `lenshf verify`.

Solver certificates are damaged field by field: integers past the 4300-digit
str() limit, ragged or deeply nested `l`, wrong JSON types in every field and
a `trace` of the wrong shape.  `certificate_from_dict` must return or raise
one of its documented errors, and `lenshf verify` must exit 0, 1, 2 or 65.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lenshf.cli import main
from lenshf.lens import LensSpace
from lenshf.solver import minimal_planar_boundaries
from lenshf.witness import certificate_from_dict, certificate_to_dict, verify

# count 3 with its trace (n = 2), count 2 (n = 1), and a 64-bit count 3
_BASES = [
    certificate_to_dict(minimal_planar_boundaries(LensSpace(p, q))[1], include_trace=True)
    for p, q in ((5, 2), (7, 3), (18446744073709551557, 2))
]
_FIELDS = ("p", "q", "n", "a", "t", "l", "det", "valid", "trace")

_FUZZ = settings(max_examples=150, deadline=None, database=None)

# Integer fields: small values, decimal strings, and integers at and past the
# 4300-digit limit, both as raw JSON numbers and as strings.
_digits = st.integers(4200, 4400)
_small = st.integers(-10**6, 10**6)
_int_fields = st.one_of(
    _small, _small.map(str), _digits.map(lambda k: 10**k - 1), _digits.map(lambda k: "9" * k)
)
_scalars = st.one_of(_int_fields, st.none(), st.booleans(), st.floats(), st.text(max_size=6))
_junk = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)


def _nest(value, depth):
    for _ in range(depth):
        value = [value]
    return value


_vectors = st.lists(st.one_of(_int_fields, _junk), max_size=4)
_matrices = st.one_of(
    st.lists(st.lists(_int_fields, max_size=4), max_size=4),  # ragged
    st.tuples(_int_fields, st.integers(1, 60)).map(lambda vd: _nest(*vd)),  # deep
    _junk,
)
_traces = st.one_of(
    _junk,
    st.dictionaries(st.sampled_from(("branch", "k", "q_prime", "z", "w")), _junk, max_size=5),
)
_values = {
    "a": st.one_of(_vectors, _junk),
    "t": st.one_of(_vectors, _junk),
    "l": _matrices,
    "trace": _traces,
    "valid": _junk,
}
_values.update((f, st.one_of(_int_fields, _junk)) for f in ("p", "q", "n", "det"))
_bases = st.sampled_from(_BASES)
_edits = st.lists(st.tuples(st.sampled_from(_FIELDS), st.integers(0, 9)), min_size=1, max_size=4)


@st.composite
def _damaged_certificates(draw):
    doc = json.loads(json.dumps(draw(_bases)))
    for field, roll in draw(_edits):
        if roll == 0:
            doc.pop(field, None)
        else:
            doc[field] = draw(_values[field])
    return doc


def _dumps(doc) -> str:
    """JSON text of doc, raw integers past the str() digit limit included."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(doc)
    finally:
        sys.set_int_max_str_digits(limit)


@seed(20261018)
@_FUZZ
@given(_damaged_certificates())
def test_certificate_from_dict_returns_or_raises_a_parse_error(doc):
    try:
        cert = certificate_from_dict(doc)
    except (KeyError, TypeError, ValueError):  # DomainError is a ValueError
        return
    verify(cert.lens, cert.witness)


@seed(20261018)
@_FUZZ
@given(_damaged_certificates())
def test_verify_cli_exits_with_a_documented_code(doc):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(_dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["verify", path])
    finally:
        os.unlink(path)
    assert code in (0, 1, 2, 65)
