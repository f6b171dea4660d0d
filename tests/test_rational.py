"""Exact rational-complex scalar arithmetic."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from padelab.rational import (
    QC,
    as_fraction,
    horner,
    integer_horner,
    integer_poly,
    is_exact_scalar,
    poly_derivative,
    qc,
    to_complex,
)

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=50)
qcs = st.builds(QC, rationals, rationals)
nonzero_qcs = qcs.filter(bool)


def test_as_fraction_literals():
    assert as_fraction("1/4") == Fraction(1, 4)
    assert as_fraction("0.25") == Fraction(1, 4)
    assert as_fraction("3") == 3
    assert as_fraction(7) == 7
    assert as_fraction(Fraction(2, 6)) == Fraction(1, 3)


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.25)


def test_product_oracle():
    assert QC(1, 2) * QC(3, -1) == QC(5, 5)


def test_division_oracle():
    assert QC(1) / QC(1, 1) == QC(Fraction(1, 2), Fraction(-1, 2))


def test_pow_cases():
    z = QC(Fraction(1, 2), Fraction(1, 3))
    assert z ** 0 == QC(1)
    assert z ** 3 == z * z * z
    assert z ** -2 == QC(1) / (z * z)
    with pytest.raises(ZeroDivisionError):
        QC(0) ** -1


def _power_by_products(z, e):
    """z**e as |e| repeated QC products of z, or of 1/z when e < 0."""
    base = QC(1) / z if e < 0 else z
    out = QC(1)
    for _ in range(abs(e)):
        out = out * base
    return out


@given(st.one_of(st.just(QC(0)), qcs), st.integers(min_value=-5, max_value=40))
def test_pow_equals_repeated_multiplication(z, e):
    if e < 0 and not z:
        with pytest.raises(ZeroDivisionError):
            z ** e
        return
    assert z ** e == _power_by_products(z, e)


def test_pow_of_zero():
    assert QC(0) ** 0 == QC(1)
    assert QC(0) ** 7 == QC(0)


def test_conjugate_and_abs2():
    z = QC(3, -4)
    conjugate = QC(z.re, -z.im)
    assert conjugate == QC(3, 4)
    assert z.abs2() == 25
    assert abs(z) == 5.0
    assert (z * conjugate).re == z.abs2()


def test_coercions():
    assert qc("1/4") == QC(Fraction(1, 4))
    assert qc((1, 2)) == QC(1, 2)
    z = QC(1, 1)
    assert qc(z) is z
    assert is_exact_scalar(Fraction(1, 3))
    assert is_exact_scalar(QC(1))
    assert not is_exact_scalar(0.5)
    assert to_complex(QC(1, 2)) == 1 + 2j
    assert to_complex(1.5) == 1.5 + 0j


def test_equality_and_hash():
    assert QC(1, 0) == qc(1)
    assert len({QC(1, 2), QC(1, 2), QC(2, 1)}) == 2
    assert QC(1, 2) != QC(1, 3)


def test_float_conversion_guards():
    assert float(QC(Fraction(1, 2))) == 0.5
    with pytest.raises(TypeError):
        float(QC(0, 1))
    assert complex(QC(1, 2)) == 1 + 2j


@given(qcs, qcs, qcs)
def test_ring_axioms_exact(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(qcs, nonzero_qcs)
def test_field_inverse_exact(a, b):
    assert (a / b) * b == a


@given(qcs, qcs)
def test_matches_complex_arithmetic(a, b):
    za, zb = complex(a), complex(b)
    assert complex(a + b) == pytest.approx(za + zb, abs=1e-9)
    assert complex(a * b) == pytest.approx(za * zb, rel=1e-9, abs=1e-9)


def test_horner_exact_polynomial():
    coeffs = (QC(1), QC(-4), QC(0), QC(2))
    z = QC(Fraction(1, 3))
    expected = QC(1) - QC(4) * z + QC(2) * z ** 3
    assert horner(coeffs, z) == expected


@given(st.lists(qcs, min_size=1, max_size=8), qcs)
def test_integer_horner_triple_equals_the_sum_of_products(coeffs, z):
    # the unreduced (re, im, scale) over a positive scale, against QC
    # products that use no Horner step and no power
    re, im, scale = integer_horner(integer_poly(coeffs), z)
    assert scale > 0
    expected, zj = QC(0), QC(1)
    for c in coeffs:
        expected, zj = expected + c * zj, zj * z
    assert QC(Fraction(re, scale), Fraction(im, scale)) == expected
    assert horner(coeffs, z) == expected


@given(st.lists(st.floats(-10, 10), min_size=1, max_size=8),
       st.floats(-2, 2))
def test_horner_matches_polyval(coeffs, x):
    ours = horner([complex(c) for c in coeffs], complex(x))
    ref = np.polyval(list(reversed(coeffs)), x)
    assert ours == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_poly_derivative():
    assert poly_derivative((5.0, 3.0, 2.0)) == [3.0, 4.0]
    assert poly_derivative((7.0,)) == []
    d = poly_derivative((QC(1), QC(2), QC(3)))
    assert d == [QC(2), QC(6)]
