"""Exact scalar domains: Q(sqrt(10)) and Q(i)."""

import random
from fractions import Fraction

import pytest

from g2forge.scalars import GaussRational, QuadExt, SQRT10, ScalarError, \
    rat, scalar_from_json, scalar_to_json


def test_sqrt10_squares_to_ten():
    assert SQRT10 * SQRT10 == QuadExt(10)
    assert SQRT10 ** 2 == 10


def test_quadext_field_axioms_random():
    rng = random.Random(91)
    for _ in range(200):
        a = QuadExt(rat(rng.randint(-9, 9), rng.randint(1, 5)),
                    rat(rng.randint(-9, 9), rng.randint(1, 5)))
        b = QuadExt(rng.randint(-9, 9), rng.randint(-9, 9))
        c = QuadExt(rng.randint(-9, 9), rng.randint(-9, 9))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a - b) + b == a
        if b:
            assert (a / b) * b == a


def test_quadext_inverse_and_zero_division():
    x = QuadExt(3, -2)
    assert x * x.inverse() == QuadExt(1)
    with pytest.raises(ZeroDivisionError):
        QuadExt(0).inverse()


def test_quadext_unique_representation():
    # a + b sqrt(10) = 0 forces a = b = 0, so equality is coefficientwise
    assert QuadExt(1, 1) != QuadExt(1, 0)
    assert bool(QuadExt(0, 0)) is False
    assert bool(QuadExt(0, 1)) is True


def test_quadext_float_mirror():
    import math
    x = QuadExt(rat(3, 4), rat(-2, 7))
    assert abs(float(x) - (0.75 - 2 / 7 * math.sqrt(10))) < 1e-12


def test_gauss_rational_arithmetic():
    i = GaussRational(0, 1)
    assert i * i == GaussRational(-1, 0)
    z = GaussRational(rat(1, 2), rat(-3, 2))
    assert z * z.conjugate() == GaussRational(rat(10, 4), 0)
    assert (z + z.conjugate()).im == 0


def test_gauss_rational_mixed_ops():
    z = GaussRational(2, 1)
    assert z + 1 == GaussRational(3, 1)
    assert 2 * z == GaussRational(4, 2)
    assert z - z == GaussRational(0, 0)


def test_scalar_json_roundtrip():
    values = [Fraction(-22, 7), Fraction(0), Fraction(5),
              QuadExt(rat(1, 3), rat(-2, 9)), QuadExt(4)]
    for v in values:
        back = scalar_from_json(scalar_to_json(v))
        assert back == v


def test_scalar_json_rejects_garbage():
    with pytest.raises((ScalarError, ValueError, TypeError, KeyError)):
        scalar_from_json({"nonsense": True})
