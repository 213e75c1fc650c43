"""The NamedTuple records Poly, MrOutcome, CanonicalParams, FindResult and
PgpcReport keep the surface they had as hand-written or frozen dataclass
types: their repr, their constructor with positional and keyword
arguments and defaults, AttributeError on assignment, pickling, equal
hashes for equal values, and every check and reduction on each path that
builds one: the constructor, _make, _replace and unpickling.
"""

import pickle

import pytest

from ppt.canonical import CanonicalParams, FindResult
from ppt.checks import PgpcReport
from ppt.ntcore import MrOutcome
from ppt.polyring import Poly

_FIND = "FindResult: exactly one of divisor/qnr/m must be set"
_POLY = "Poly: modulus must be >= 0"

# name -> (class, args, kwargs, the repr the earlier type gave, and the
# constructions the record refuses, each with its ValueError message).
RECORDS = {
    "Poly": (Poly, ([8, 9, 0],), {"n": 7}, "Poly([1, 2], n=7)", [
        (lambda: Poly([1, 2], -7), _POLY),
        (lambda: Poly._make(((1, 2), -7)), _POLY),
    ]),
    "MrOutcome": (MrOutcome, (False,), {},
                  "MrOutcome(witness=False, witness_kind=None, value=0)", []),
    "CanonicalParams": (
        CanonicalParams, (5, 5, 1, 2), {"upsilon": Poly([-1, 1, 1]), "psi": Poly([5, 0, 5, 0, 1])},
        "CanonicalParams(m=5, p_m=5, k=1, d=2, upsilon=Poly([-1, 1, 1], n=0), "
        "psi=Poly([5, 0, 5, 0, 1], n=0))", []),
    "FindResult": (FindResult, (3,), {"m": 5},
                   "FindResult(iterations=3, divisor=None, qnr=None, m=5)", [
        (lambda: FindResult(1), _FIND),
        (lambda: FindResult(1, divisor=3, qnr=5), _FIND),
        (lambda: FindResult(3, m=5)._replace(m=None), _FIND),
        (lambda: FindResult._make((3, 7, None, 5)), _FIND),
        (lambda: pickle.loads(pickle.dumps(tuple.__new__(FindResult, (3, None, None, None)))),
         _FIND),
    ]),
    "PgpcReport": (PgpcReport, (5, "cond1"), {"witness": Poly([650], 1105), "expected": ()},
                   "PgpcReport(m=5, failed='cond1', witness=Poly([650], n=1105), expected=())",
                   []),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_keeps_its_surface(name):
    cls, args, kwargs, text, refused = RECORDS[name]
    rec = cls(*args, **kwargs)
    assert type(rec) is cls and repr(rec) == text
    for other in (cls(*rec), cls(**rec._asdict()), cls._make(rec), rec._replace(),
                  pickle.loads(pickle.dumps(rec))):
        assert type(other) is cls and other == rec and hash(other) == hash(rec)
    for attr in (cls._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, attr, 1)
    for build, message in refused:
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


def test_poly_reduces_and_strips_on_every_path():
    want = Poly([1, 2], n=7)
    assert Poly([1, 2], 7)._replace(coeffs=(8, 9, 0)) == want
    assert pickle.loads(pickle.dumps(tuple.__new__(Poly, ((8, 9, 0), 7)))) == want
    assert Poly._make(([8, 9, 0], 7)) == want and want.coeffs == (1, 2)

