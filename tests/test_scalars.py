"""Exact scalar domains: Q(sqrt(10)) and Q(i)."""

import operator
import random
from fractions import Fraction

import pytest

from g2forge.scalars import GaussRational, QuadExt, ScalarError, \
    scalar_from_json, scalar_to_json

import reference
from reference import SQRT10


def test_sqrt10_squares_to_ten():
    assert SQRT10 * SQRT10 == QuadExt(10)


def test_quadext_field_axioms_random():
    rng = random.Random(91)
    for _ in range(200):
        a = QuadExt(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        b = QuadExt(rng.randint(-9, 9), rng.randint(-9, 9))
        c = QuadExt(rng.randint(-9, 9), rng.randint(-9, 9))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a - b) + b == a


def test_quadext_unique_representation():
    # a + b sqrt(10) = 0 forces a = b = 0, so equality is coefficientwise
    assert QuadExt(1, 1) != QuadExt(1, 0)
    assert bool(QuadExt(0, 0)) is False
    assert bool(QuadExt(0, 1)) is True


def test_gauss_rational_arithmetic():
    i = GaussRational(0, 1)
    assert i * i == GaussRational(-1, 0)
    z = GaussRational(Fraction(1, 2), Fraction(-3, 2))
    assert z * z.conjugate() == GaussRational(Fraction(10, 4), 0)
    assert (z + z.conjugate()).im == 0


def test_gauss_rational_mixed_ops():
    z = GaussRational(2, 1)
    assert z + 1 == GaussRational(3, 1)
    assert 2 * z == GaussRational(4, 2)
    assert z - z == GaussRational(0, 0)


def test_gauss_rational_keeps_int_parts():
    # as in QuadExt, each part is an int or a Fraction as given, and a
    # Fraction appears only where an operation makes one
    z = GaussRational(2, 1)
    for w in (z, z * z, z + 1, 3 - z, -z, z.conjugate()):
        assert (type(w.re), type(w.im)) == (int, int)
    half = Fraction(1, 2)
    assert z * half == half * z == GaussRational(1, half)
    assert z + half == half + z == GaussRational(Fraction(5, 2), 1)
    assert half - z == GaussRational(Fraction(-3, 2), -1)
    assert GaussRational(2) == 2 and 2 == GaussRational(2)
    assert GaussRational(half) == half and half == GaussRational(half)
    assert GaussRational(Fraction(2), Fraction(1)) == z
    assert hash(GaussRational(Fraction(2))) == hash(GaussRational(2)) == hash(2)
    for bad in ((0.5, 0), (1, 0.5)):
        with pytest.raises(TypeError):
            GaussRational(*bad)


def test_equal_gauss_rationals_print_alike():
    # an int-valued part prints as an int and any other as a Fraction,
    # whether the part was given or made as an int or a Fraction
    half = Fraction(1, 2)
    for z in (GaussRational(-2, 0), GaussRational(Fraction(-2), Fraction(0)),
              GaussRational(-4, 0) * half, GaussRational(0, 0) - 2):
        assert repr(z) == "GaussRational(-2, 0)"
    for z in (GaussRational(0, Fraction(-145, 6)),
              GaussRational(Fraction(0), Fraction(-145, 6)),
              GaussRational(0, 1) * Fraction(-145, 6)):
        assert repr(z) == "GaussRational(0, Fraction(-145, 6))"
    assert repr(GaussRational(half, 3)) == "GaussRational(Fraction(1, 2), 3)"


def test_scalar_json_roundtrip():
    values = [Fraction(-22, 7), Fraction(0), Fraction(5),
              QuadExt(Fraction(1, 3), Fraction(-2, 9)), QuadExt(4)]
    for v in values:
        back = scalar_from_json(scalar_to_json(v))
        assert back == v


def test_scalar_json_rejects_garbage():
    with pytest.raises((ScalarError, ValueError, TypeError, KeyError)):
        scalar_from_json({"nonsense": True})


@pytest.mark.parametrize("data", [
    {"num": 1.5}, {"num": "1", "den": 2.9}, {"num": True}, {"num": 1},
    {"num": "1", "den": False}, {"num": None}, {"num": "1.5"},
    {"num": "1", "irr_num": 2.5}, {"num": "1", "irr_num": "1", "irr_den": 2},
    {"num": "1_000"}, {"num": " 3 "}, {"num": "\u0661\u0662"}, {"num": ""},
])
def test_scalar_json_requires_decimal_strings(data):
    with pytest.raises(ScalarError, match="must be decimal strings"):
        scalar_from_json(data)


# -- int parts -----------------------------------------------------------------

def test_quadext_keeps_int_parts():
    x = QuadExt(3, -2) * QuadExt(1, 4) + 5
    assert type(x.rat) is int and type(x.irr) is int
    assert x == QuadExt(3 - 80 + 5, 12 - 2)


def test_quadext_int_parts_equal_and_hash_as_fraction_parts():
    for r, i in ((0, 0), (3, 0), (-4, 7), (0, -1)):
        x, y = QuadExt(r, i), QuadExt(Fraction(r), Fraction(i))
        assert x == y and hash(x) == hash(y)
        if i == 0:
            assert x == r and hash(x) == hash(Fraction(r))


def test_quadext_int_parts_serialize_as_fraction_parts():
    import json
    for r, i in ((0, 0), (3, 0), (-4, 7), (0, -1)):
        x, y = QuadExt(r, i), QuadExt(Fraction(r), Fraction(i))
        assert json.dumps(scalar_to_json(x)) == json.dumps(scalar_to_json(y))


_QUAD_PARTS = [(2, -3), (0, 1), (Fraction(1, 2), Fraction(-2, 3)),
               (Fraction(7), 0), (4, Fraction(1, 5)), (Fraction(-1, 3), 2),
               (True, False)]
_QUAD_OPERANDS = [
    3, -2, 0, True, False, Fraction(5, 3), Fraction(-4), Fraction(0),
    *(QuadExt(*p) for p in _QUAD_PARTS),
    *(GaussRational(*p) for p in _QUAD_PARTS),
]
_QUAD_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_FIELD_D = {QuadExt: 10, GaussRational: -1}
_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__neg__")


# the Q(sqrt(10)) cases keep their bare operator ids
@pytest.mark.parametrize("field, op", [
    pytest.param(field, op, id=prefix + op)
    for field, prefix in ((QuadExt, ""), (GaussRational, "gauss"))
    for op in sorted(_QUAD_OPS)])
def test_quadext_operations_match_generic_formula(field, op):
    """+, - and * in either field read a same-field operand's parts
    directly, and an int, bool or Fraction operand c as c + 0 sqrt(D)
    without building it; on either side of the operator the parts and
    their types must be the generic formula's (reference.quad_op)."""
    fn = _QUAD_OPS[op]
    for x in _QUAD_OPERANDS:
        for y in _QUAD_OPERANDS:
            if {type(x), type(y)} & set(_FIELD_D) != {field}:
                continue
            got = fn(x, y)
            want = reference.quad_op(op, x, y, _FIELD_D[field])
            assert type(got) is field
            parts = reference.quad_parts(got)
            assert parts == want
            assert tuple(map(type, parts)) == tuple(map(type, want))


@pytest.mark.parametrize("op", sorted(_QUAD_OPS))
def test_quadext_operations_reject_inexact_operands(op):
    """Floats, complex numbers and the other field's elements are no
    operands, on either side."""
    fn = _QUAD_OPS[op]
    for q in (QuadExt(2, -3), QuadExt(Fraction(1, 2), 1)):
        for bad in (0.5, 2.0, 1j, complex(1, 0), GaussRational(2, -3),
                    GaussRational(Fraction(1, 2), 1)):
            with pytest.raises(TypeError):
                fn(q, bad)
            with pytest.raises(TypeError):
                fn(bad, q)


@pytest.mark.parametrize("field", [QuadExt, GaussRational],
                         ids=["quadext", "gauss"])
def test_each_field_binds_its_own_arithmetic(field):
    """The benchmark's leaf spans wrap the arithmetic operators each
    field class holds in its own dict, so a binding inherited from the
    shared base would leave that field's leaf reading no calls."""
    assert all(name in vars(field) for name in _ARITHMETIC)
