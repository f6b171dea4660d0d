"""Pole sequences, the two series families, evaluation, file round trips."""

import json
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from padelab import _jsonfmt
from padelab.errors import (
    DomainError,
    InvalidParameterError,
    OutOfRangeError,
    SeriesFormatError,
)
from padelab.rational import qc, to_complex
from padelab.series import (
    GammelParams,
    PoleSequence,
    PowerSeries,
    _literal,
    block_order,
    build_counterexample_series,
    build_gammel_series,
    eval_series,
    gammel_block_of,
    load_series,
    save_series,
    truncation_length,
)


# ---------------------------------------------------------------------------
# pole sequences


def test_harmonic_values():
    p = PoleSequence.harmonic(5)
    assert p.points == tuple(Fraction(1, k + 2) for k in range(2, 6))
    assert p.z(2) == Fraction(1, 4)
    assert p.z(5) == Fraction(1, 7)
    assert p.start_index == 2 and p.max_index == 5
    assert p.exact


def test_harmonic_repeated_prefix():
    p = PoleSequence.harmonic_repeated(7)
    expected = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 5),
                Fraction(1, 4), Fraction(1, 5), Fraction(1, 6))
    assert p.points == expected
    assert p.generator_tag == "harmonic_repeated"


def test_pole_out_of_range():
    p = PoleSequence.harmonic(3)
    with pytest.raises(OutOfRangeError):
        p.z(4)
    with pytest.raises(OutOfRangeError):
        p.z(1)


@pytest.mark.parametrize("bad", [0, 1, Fraction(3, 2), -1, 1.0])
def test_pole_outside_disc_rejected(bad):
    with pytest.raises(InvalidParameterError):
        PoleSequence.explicit([bad])


def test_explicit_float_poles_are_inexact():
    p = PoleSequence.explicit([0.25, 0.2])
    assert not p.exact
    assert p.as_complex() == (0.25 + 0j, 0.2 + 0j)


def test_counterexample_admissibility():
    PoleSequence.harmonic(4).require_counterexample_poles(4)
    # only z_2..z_(k_hi) must lie inside |z| < 1/3
    PoleSequence.explicit([Fraction(1, 4), Fraction(2, 5)]).require_counterexample_poles(2)
    for bad in (Fraction(2, 5), 0.4, 0.34j):
        with pytest.raises(InvalidParameterError):
            PoleSequence.explicit([Fraction(1, 4), bad]).require_counterexample_poles(3)
    with pytest.raises(InvalidParameterError):
        PoleSequence.explicit([Fraction(2, 5)]).require_counterexample_poles(2)
    with pytest.raises(InvalidParameterError):
        PoleSequence.explicit([Fraction(1, 4)], start_index=1).require_counterexample_poles(1)
    with pytest.raises(OutOfRangeError):
        PoleSequence.harmonic(3).require_counterexample_poles(5)


# ---------------------------------------------------------------------------
# block index bookkeeping


def test_block_index_values():
    assert [block_order(k) for k in (2, 3, 4, 5, 6)] == [2, 6, 14, 30, 62]
    assert [truncation_length(k) for k in (2, 3, 4, 5)] == [5, 13, 29, 61]


def test_truncation_ends_on_block_boundary():
    for k in range(2, 8):
        assert truncation_length(k) == block_order(k + 1) - 1      # block k + 1's spike
        assert truncation_length(k) == 2 * block_order(k) + 1


# ---------------------------------------------------------------------------
# counterexample family


def test_k2_coefficients(k2_series):
    assert [c.re for c in k2_series.coeffs] == [1, 256, 16, 64, 256]
    assert k2_series.exact
    assert k2_series.meta.family == "counterexample"
    assert k2_series.meta.k_max == 2


def test_k3_block_values(k3_series):
    c = k3_series.coeffs
    assert len(c) == 13
    assert c[5] == qc(4096)                       # spike of block 3
    assert c[12] == qc(4096)                      # geometric part ends at z^0
    assert c[8] == qc(Fraction(4096, 625))        # 4096 * (1/5)^4
    assert c[:5] == tuple(qc(v) for v in (1, 256, 16, 64, 256))


def test_coeff_growth_bound_holds_exactly():
    s = build_counterexample_series(6, PoleSequence.harmonic(6))
    for j in range(1, len(s.coeffs)):
        c = s.coeffs[j]
        assert c.abs2() > 0
        assert c.abs2() <= Fraction((j + 3) ** 4) ** 2


def test_coeff_index_guards():
    poles = PoleSequence.harmonic(3)
    with pytest.raises(InvalidParameterError):
        build_counterexample_series(1, poles)
    with pytest.raises(OutOfRangeError):
        build_counterexample_series(4, poles)


def test_inexact_poles_build_float_series():
    s = build_counterexample_series(2, PoleSequence.explicit([0.25]))
    assert not s.exact
    assert s.coeffs == (1 + 0j, 256 + 0j, 16 + 0j, 64 + 0j, 256 + 0j)


# ---------------------------------------------------------------------------
# gammel family


def test_gammel_block_one():
    params = GammelParams(alphas=(1,),
                          poles=PoleSequence.explicit([Fraction(1, 2)], start_index=1))
    s = build_gammel_series(params, 2)
    assert [c.re for c in s.coeffs] == [1, 2, 4]
    assert s.meta.family == "gammel"


def test_gammel_two_blocks_weighting():
    params = GammelParams(
        alphas=(1, Fraction(1, 256)),
        poles=PoleSequence.explicit([Fraction(1, 2), Fraction(1, 3)], start_index=1))
    s = build_gammel_series(params, 6)
    assert s.coeffs[3] == qc(Fraction(27, 256))       # alpha_2 * 3^3
    assert s.coeffs[6] == qc(Fraction(729, 256))


def test_gammel_insufficient_alphas():
    params = GammelParams(alphas=(1,),
                          poles=PoleSequence.explicit([Fraction(1, 2)], start_index=1))
    with pytest.raises(InvalidParameterError):
        build_gammel_series(params, 3)


def test_gammel_zero_alpha_skips_pole():
    params = GammelParams(alphas=(0, 1),
                          poles=PoleSequence.explicit(
                              [Fraction(1, 2), Fraction(1, 3)], start_index=1))
    s = build_gammel_series(params, 4)
    assert s.coeffs[1] == qc(0) and s.coeffs[2] == qc(0)
    assert s.coeffs[3] == qc(27)


def _dyadic(x):
    """x as an exact QC: a double or complex as the dyadic rational its parts store."""
    if isinstance(x, (complex, float)):
        return qc(Fraction(x.real), Fraction(x.imag))
    return qc(x)


def test_gammel_mixing_float_and_exact_values_rounds_the_exact_walk_once():
    for alphas, poles in (((Fraction(1, 4), Fraction(1, 16)), (0.5j, Fraction(1, 3))),
                          ((0.25j, Fraction(1, 16)), (Fraction(1, 2), Fraction(1, 3)))):
        params = GammelParams(alphas=alphas,
                              poles=PoleSequence.explicit(poles, start_index=1))
        s = build_gammel_series(params, 6)
        assert not s.exact and len(s.coeffs) == 7
        assert all(isinstance(c, complex) for c in s.coeffs[:3])
        for n in range(1, 7):
            k = gammel_block_of(n)
            expected = _dyadic(alphas[k - 1]) * (1 / _dyadic(poles[k - 1])) ** n
            assert s.coeffs[n] == to_complex(expected)


@pytest.mark.parametrize("points", [
    # block 9 starts its walk at 16^9 z_9^510, below the smallest double, and
    # ends at c_1020 = 16^9
    [Fraction(1, m) for m in range(4, 11)] + [complex(0, 1 / 11)],
    # real doubles 1/(k + 2), whose powers no double holds exactly
    [1 / (k + 2) for k in range(2, 8)],
])
def test_float_poles_round_the_exact_walk_of_their_doubles_once(points):
    k_max = len(points) + 1
    s = build_counterexample_series(k_max, PoleSequence.explicit(points))
    exact = build_counterexample_series(k_max, PoleSequence.explicit(map(_dyadic, points)))
    assert not s.exact and exact.exact
    assert s.coeffs == tuple(map(to_complex, exact.coeffs))
    assert s.coeffs[-1] == 16 ** k_max


def test_float_gammel_weights_round_the_exact_walk_once():
    # alpha_7 (1/z_7)^n = 1e-300 (-100j)^n lies between 1e-46 and 1e208 for
    # n = 127..254, though (-100j)^n alone leaves the double range
    alphas = (1,) * 6 + (1e-300j,)
    poles = PoleSequence.explicit([Fraction(1, m) for m in range(2, 8)] + [0.01j], start_index=1)
    s = build_gammel_series(GammelParams(alphas=alphas, poles=poles), 254)
    assert not s.exact and len(s.coeffs) == 255
    for n in range(1, 255):
        k = gammel_block_of(n)
        expected = _dyadic(alphas[k - 1]) * (1 / _dyadic(poles.z(k))) ** n
        assert s.coeffs[n] == to_complex(expected)


def test_a_float_series_holds_only_complex_values():
    # one float pole or weight makes the whole series a float one; its exact
    # blocks are walked exactly and rounded once, as the file writer rounds them
    poles = PoleSequence.explicit([Fraction(1, 4), 0.2j, Fraction(1, 6)])
    exact_poles = PoleSequence.explicit([Fraction(1, 4), Fraction(1, 5), Fraction(1, 6)])
    mixed = build_counterexample_series(4, poles)
    gammel = build_gammel_series(
        GammelParams(alphas=(Fraction(1, 4), Fraction(1, 16)),
                     poles=PoleSequence.explicit([0.5j, Fraction(1, 3)], start_index=1)), 6)
    # and so does a float series built directly, whatever values it is given
    direct = PowerSeries.from_coefficients([1, 0.5, 2])
    given_exact_values = PowerSeries((1, 2, 3), False)
    for s in (mixed, gammel, direct, given_exact_values):
        assert not s.exact
        assert all(type(c) is complex for c in s.coeffs)
    assert direct.coeffs == (1 + 0j, 0.5 + 0j, 2 + 0j)
    assert given_exact_values.coeffs == (1 + 0j, 2 + 0j, 3 + 0j)
    exact = build_counterexample_series(4, exact_poles)
    for j in (*range(1, 5), *range(13, 29)):       # blocks 2 and 4 (c_0 = 1 and block 3 aside)
        assert mixed.coeffs[j] == to_complex(exact.coeffs[j])
    assert gammel.coeffs[3:] == tuple(complex(Fraction(3 ** n, 16)) for n in range(3, 7))


# ---------------------------------------------------------------------------
# exact builders against per-coefficient products, with no QC power involved


def _power_by_products(z, e: int):
    out = qc(1)
    for _ in range(e):
        out = out * z
    return out


def _counterexample_by_products(k_max: int, poles: PoleSequence) -> list:
    coeffs = [qc(1)]
    for k in range(2, k_max + 1):
        coeffs.append(qc(16 ** k))
        coeffs.extend(16 ** k * _power_by_products(poles.z(k), 2 * block_order(k) - j)
                      for j in range(block_order(k), 2 * block_order(k) + 1))
    return coeffs


def _gammel_by_products(alphas, poles: PoleSequence, j_max: int) -> list:
    coeffs = [qc(1)]
    for n in range(1, j_max + 1):
        k = gammel_block_of(n)
        alpha = qc(alphas[k - 1])
        coeffs.append(alpha * _power_by_products(1 / poles.z(k), n) if alpha else qc(0))
    return coeffs


small = st.fractions(min_value=Fraction(-1, 5), max_value=Fraction(1, 5), max_denominator=40)
real_poles = small.filter(bool).map(qc)
gaussian_poles = st.builds(qc, small, small).filter(bool)
any_poles = st.one_of(real_poles, gaussian_poles)
alpha_values = st.one_of(st.just(Fraction(0)),
                         st.fractions(min_value=-4, max_value=4, max_denominator=30),
                         st.builds(qc, small, small))


@given(st.lists(any_poles, min_size=1, max_size=4))
def test_exact_counterexample_series_equals_per_coefficient_products(points):
    poles = PoleSequence.explicit(points)
    k_max = poles.max_index
    s = build_counterexample_series(k_max, poles)
    assert s.exact and list(s.coeffs) == _counterexample_by_products(k_max, poles)


@given(st.lists(st.tuples(alpha_values, any_poles), min_size=1, max_size=5), st.data())
def test_exact_gammel_series_equals_per_coefficient_products(blocks, data):
    alphas = [a for a, _ in blocks]
    poles = PoleSequence.explicit([z for _, z in blocks], start_index=1)
    j_max = data.draw(st.integers(min_value=0, max_value=2 ** (len(blocks) + 1) - 2))
    s = build_gammel_series(GammelParams(alphas=alphas, poles=poles), j_max)
    assert s.exact and list(s.coeffs) == _gammel_by_products(alphas, poles, j_max)


def test_exact_builders_on_gaussian_poles_zero_alphas_and_a_mid_block_end():
    poles = PoleSequence.explicit([qc(Fraction(1, 5), Fraction(-1, 7)), Fraction(-2, 9),
                                   qc(0, Fraction(1, 4))])
    s = build_counterexample_series(4, poles)
    assert list(s.coeffs) == _counterexample_by_products(4, poles)
    alphas = [Fraction(1, 4), 0, qc(Fraction(2, 3), -1), 0, Fraction(-3, 7)]
    gpoles = PoleSequence.explicit([Fraction(1, 2), qc(Fraction(1, 3), Fraction(1, 5)),
                                    qc(Fraction(-1, 4), Fraction(1, 6)), Fraction(1, 5),
                                    qc(0, Fraction(2, 7))], start_index=1)
    for j_max in (0, 1, 5, 20, 40, 62):       # 5, 20 and 40 end inside blocks 2, 4 and 5
        g = build_gammel_series(GammelParams(alphas=alphas, poles=gpoles), j_max)
        assert list(g.coeffs) == _gammel_by_products(alphas, gpoles, j_max)


def test_gammel_pole_indexing_guard():
    with pytest.raises(InvalidParameterError):
        GammelParams(alphas=(1,), poles=PoleSequence.explicit([Fraction(1, 2)]))


def test_gammel_helpers():
    assert [gammel_block_of(n) for n in (1, 2, 3, 6, 7, 14)] == [1, 1, 2, 2, 3, 3]


# ---------------------------------------------------------------------------
# containers and evaluation


def test_series_construction_guards():
    with pytest.raises(InvalidParameterError):
        PowerSeries(None, False)
    with pytest.raises(InvalidParameterError):
        PowerSeries((1.5,), True)
    with pytest.raises(InvalidParameterError):
        PowerSeries((1,), True, radius_hint=0.0)
    # a float series rounds every value: an exact one past the double range is refused
    with pytest.raises(InvalidParameterError, match="beyond the double range"):
        PowerSeries.from_coefficients([Fraction(10 ** 400), 0.5])
    # and one holding inf or NaN is refused before anything can write it
    for bad in (math.inf, complex("nan"), complex(1, math.inf)):
        with pytest.raises(InvalidParameterError, match="infinite or NaN"):
            PowerSeries.from_coefficients([1, bad, 2])


@pytest.mark.parametrize("radius", [math.inf, math.nan, -1.0])
def test_radius_hint_must_be_finite_and_positive(radius):
    with pytest.raises(InvalidParameterError, match="finite and positive"):
        PowerSeries((1,), True, radius_hint=radius)


def test_from_coefficients_detects_exactness():
    assert PowerSeries.from_coefficients([1, Fraction(1, 2)]).exact
    assert not PowerSeries.from_coefficients([1, 0.5]).exact


def test_coeff_access_guards(k2_series):
    assert len(k2_series.coeffs) == 5
    with pytest.raises(OutOfRangeError):
        k2_series.coeff(5)
    with pytest.raises(OutOfRangeError):
        k2_series.coeff(-1)
    with pytest.raises(OutOfRangeError):
        k2_series.require_terms(6)
    arr = k2_series.as_complex_array(3)
    assert arr.dtype == complex and list(arr) == [1, 256, 16]


def test_eval_exact_value(k2_series):
    assert eval_series(k2_series, Fraction(1, 4)) == qc(68)


def test_eval_float_matches_polyval(k2_series):
    res = eval_series(k2_series, 0.1 + 0.05j)
    ref = np.polyval([256, 64, 16, 256, 1], 0.1 + 0.05j)
    assert res == pytest.approx(ref, rel=1e-13)


def test_eval_outside_radius(k2_series):
    with pytest.raises(DomainError):
        eval_series(k2_series, 1.0)
    with pytest.raises(DomainError):
        eval_series(PowerSeries.from_coefficients([1.0], radius_hint=0.5), 0.6)


# ---------------------------------------------------------------------------
# file round trips


def test_exact_round_trip(tmp_path, k3_series):
    path = tmp_path / "s.json"
    save_series(k3_series, path)
    loaded = load_series(path)
    assert loaded.exact
    assert loaded.coeffs == k3_series.coeffs
    assert loaded.meta.family == "counterexample"
    assert loaded.meta.poles.points == k3_series.meta.poles.points
    assert loaded.meta.poles.start_index == 2


def test_float_round_trip(tmp_path):
    s = PowerSeries.from_coefficients([1.0, 0.5 + 0.25j], radius_hint=2.0)
    path = tmp_path / "f.json"
    save_series(s, path)
    loaded = load_series(path)
    assert not loaded.exact
    assert loaded.coeffs == s.coeffs
    assert loaded.radius_hint == 2.0


def test_save_is_deterministic(tmp_path, k2_series):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_series(k2_series, a)
    save_series(k2_series, b)
    assert a.read_bytes() == b.read_bytes()


def _write(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("c"),
    lambda d: d.pop("exact"),
    lambda d: d.pop("radius_hint"),
    lambda d: d.__setitem__("c", {"0": [1.0, 0.0]}),
    lambda d: d.__setitem__("c", [[1.0]]),
    lambda d: d.__setitem__("c", [[True, 0.0]]),
    lambda d: d.__setitem__("exact", "yes"),
    lambda d: d.__setitem__("radius_hint", -1),
    lambda d: d.__setitem__("meta", 3),
    lambda d: d.__setitem__("meta", {"k_max": True}),
    lambda d: d.__setitem__("meta", {"poles": [["1/4", "0"]], "pole_start_index": True}),
])
def test_malformed_documents_rejected(tmp_path, mutate):
    doc = {"c": [[1.0, 0.0]], "exact": False, "radius_hint": 1.0, "meta": {}}
    mutate(doc)
    with pytest.raises(SeriesFormatError):
        load_series(_write(tmp_path, doc))


def test_empty_coefficient_list_loads_as_empty_series(tmp_path):
    doc = {"c": [], "exact": False, "radius_hint": 1.0}
    s = load_series(_write(tmp_path, doc))
    assert len(s.coeffs) == 0
    with pytest.raises(OutOfRangeError):
        s.coeff(0)
    assert eval_series(s, 0.5) == 0
    out = tmp_path / "round.json"
    save_series(s, out)
    assert load_series(out).coeffs == ()


def test_exact_file_with_float_entries_rejected(tmp_path):
    doc = {"c": [[1.0, 0.0]], "exact": True, "radius_hint": 1.0}
    with pytest.raises(SeriesFormatError):
        load_series(_write(tmp_path, doc))


def test_bad_rational_literal_rejected(tmp_path):
    doc = {"c": [["1/x", "0"]], "exact": True, "radius_hint": 1.0}
    with pytest.raises(SeriesFormatError):
        load_series(_write(tmp_path, doc))


def test_literals_beyond_the_int_str_digit_limit(tmp_path):
    # 5,000 digits, past the 4,300 that int() reads by default: a plain
    # rational string loads, a malformed one keeps its SeriesFormatError
    digits = "7" * 5000
    doc = {"c": [[f"-{digits}/3", digits]], "exact": True, "radius_hint": 1.0}
    value = Fraction(-int(digits[:2500]) * 10 ** 2500 - int(digits[2500:]), 3)
    assert load_series(_write(tmp_path, doc)).coeffs == (qc(value, -3 * value),)
    for bad in (digits + "x", f"--{digits}", f"{digits}/-3", f"{digits}/0"):
        doc = {"c": [[bad, "0"]], "exact": True, "radius_hint": 1.0}
        with pytest.raises(SeriesFormatError, match="bad rational literal"):
            load_series(_write(tmp_path, doc))
    with pytest.raises(ValueError):
        _jsonfmt.read_int(f"--{digits}")
    # a JSON integer component that long loads too
    path = tmp_path / "int.json"
    path.write_text('{"c": [[-%s, 0]], "exact": true, "radius_hint": 1.0}' % digits)
    assert load_series(path).coeffs == (qc(3 * value),)


def test_nonfinite_token_rejected(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"c": [[NaN, 0.0]], "exact": false, "radius_hint": 1.0}')
    with pytest.raises(SeriesFormatError):
        load_series(path)


def test_invalid_json_names_position(tmp_path):
    path = tmp_path / "syntax.json"
    path.write_text('{"c": [[1.0, 0.0]],')
    with pytest.raises(SeriesFormatError) as exc:
        load_series(path)
    assert "line" in str(exc.value)


def test_missing_file_reports_path(tmp_path):
    with pytest.raises(SeriesFormatError) as exc:
        load_series(tmp_path / "absent.json")
    assert "absent.json" in str(exc.value)


@given(st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=12))
def test_float_round_trip_property(tmp_path_factory, values):
    s = PowerSeries.from_coefficients(values)
    path = tmp_path_factory.mktemp("rt") / "s.json"
    save_series(s, path)
    assert load_series(path).coeffs == s.coeffs


@pytest.mark.parametrize("token", ["1e999", "-1e999", str(10 ** 400), "0", "true", '"1"'])
def test_radius_hint_outside_the_finite_positive_doubles_rejected(tmp_path, token):
    path = tmp_path / "r.json"
    path.write_text('{"c": [["1", "0"]], "exact": true, "radius_hint": %s}' % token)
    with pytest.raises(SeriesFormatError, match="radius_hint' must be a finite positive"):
        load_series(path)


def test_integer_components_beyond_the_double_range(tmp_path):
    # JSON ints are exact: kept in an exact file, refused by a float one
    big = 10 ** 400
    exact = load_series(_write(tmp_path, {"c": [[big, 0]], "exact": True, "radius_hint": 1.0}))
    assert exact.coeffs == (qc(big),)
    with pytest.raises(SeriesFormatError, match="beyond the double range"):
        load_series(_write(tmp_path, {"c": [[big, 0]], "exact": False, "radius_hint": 1.0}))


# ---------------------------------------------------------------------------
# rational literals: `_literal` against Fraction(str) with no digit limit

_LITERALS = [
    "0", "-0", "007", "-4/6", "0/5", "+3", " 3/4 ", "3 / 4", "0.25", "1e3", "1_000",
    "٣",  # ARABIC-INDIC DIGIT THREE
    "", "-", "/3", "3/", "1/-3", "--1", "1/0",
    "1" * 4301, "1/" + "3" * 4301,  # beyond int()'s digit limit, read all the same
    "-" + "1" * 4300,  # at the limit: the sign is not a digit
]
# malformed and as long: still refused
_LONG_BAD_LITERALS = ["1" * 4300 + "x", "1/" + "3" * 4300 + "x"]


def _fraction(text):
    """Fraction(text), with Python's int <-> str digit limit lifted for the call."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return Fraction(text)
    finally:
        sys.set_int_max_str_digits(limit)


def _random_literals(count: int) -> list:
    rng = random.Random(20261018)

    def digits():
        return "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 300)))

    return [rng.choice(("", "-")) + digits() + (f"/{digits()}" if rng.random() < 0.8 else "")
            for _ in range(count)]


def _outcome(parse, text):
    """(numerator, denominator) of the parsed value, or the exception class."""
    try:
        value = parse(text)
    except Exception as exc:                  # noqa: BLE001 - the class is compared
        return type(exc)
    assert type(value) is Fraction
    return value.numerator, value.denominator


def _literal_id(text: str) -> str:
    return repr(text) if len(text) < 20 else f"{len(text)}-digits"


@pytest.mark.parametrize("text", _LITERALS, ids=_literal_id)
def test_literal_matches_fraction_parser(text):
    memo: dict = {}
    assert _outcome(lambda t: _literal(t, memo), text) == _outcome(_fraction, text)
    assert _outcome(lambda t: _literal(t, memo), text) == _outcome(_fraction, text)  # memo hit


def test_literal_matches_fraction_parser_on_random_literals():
    memo: dict = {}
    for text in _random_literals(2000):
        assert _outcome(lambda t: _literal(t, memo), text) == _outcome(_fraction, text), text


def _bad_literals() -> list:
    return [t for t in _LITERALS + _LONG_BAD_LITERALS if isinstance(_outcome(_fraction, t), type)]


@pytest.mark.parametrize("text", _bad_literals(), ids=_literal_id)
def test_bad_literal_names_entry_and_literal(tmp_path, text):
    path = _write(tmp_path, {"c": [["1", "0"], ["2", text]], "exact": True, "radius_hint": 1.0})
    with pytest.raises(SeriesFormatError) as exc:
        load_series(path)
    assert str(exc.value) == f"{path}: c[1]: bad rational literal {text!r}"


def _reference_load(path) -> tuple:
    """Coefficients and metadata of an exact series file, read with Fraction(str) only."""
    doc = json.loads(path.read_text(encoding="utf-8"))

    def pairs(entries):
        return [(Fraction(re), Fraction(im)) for re, im in entries]

    meta = doc["meta"]
    return (pairs(doc["c"]), doc["radius_hint"], meta["family"], meta["k_max"],
            pairs(meta["poles"]) if meta["poles"] is not None else None,
            meta.get("pole_scheme"), meta.get("pole_start_index"),
            pairs(meta["alphas"]) if "alphas" in meta else None)


def _loaded(s: PowerSeries) -> tuple:
    def pairs(values):
        return [(v.re, v.im) for v in values]

    poles = s.meta.poles
    return (pairs(s.coeffs), s.radius_hint, s.meta.family, s.meta.k_max,
            pairs(poles.points) if poles is not None else None,
            poles.generator_tag if poles is not None else None,
            poles.start_index if poles is not None else None,
            pairs(s.meta.alphas) if s.meta.alphas is not None else None)


def _geometric_series():
    w = qc(Fraction(27, 50), Fraction(36, 50))        # 1/(1 - z/w), |w| = 9/10
    return PowerSeries.from_coefficients([(1 / w) ** j for j in range(127)], radius_hint=0.9)


@pytest.mark.parametrize("build", [
    lambda: build_counterexample_series(7, PoleSequence.harmonic(7)),
    lambda: build_gammel_series(
        GammelParams(alphas=tuple(Fraction(1, 4 ** (k * k)) for k in range(1, 6)),
                     poles=PoleSequence.explicit(
                         [Fraction((-1) ** k, k + 1) for k in range(1, 6)], start_index=1)),
        2 ** 6 - 2),
    _geometric_series,
], ids=["counterexample-k7", "gammel", "geometric-rank-one"])
def test_round_trip_matches_reference_parse(tmp_path, build):
    s = build()
    path = tmp_path / "s.json"
    save_series(s, path)
    loaded = load_series(path)
    assert _loaded(loaded) == _reference_load(path)
    assert loaded.coeffs == s.coeffs
