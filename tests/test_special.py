"""Gamma-family engine vs frozen arbitrary-precision references and identities."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complexorder import (
    DomainError,
    PoleError,
    beta,
    complex_pow,
    gamma,
    gamma_ratio,
    is_near_pole,
    log_gamma,
)

from oracles import (
    BETA_REFERENCES,
    GAMMA_NEAR_POLE_REFERENCES,
    GAMMA_RATIO_REFERENCES,
    GAMMA_REFERENCES,
    LOG_GAMMA_REFERENCES,
)


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def sample_away_from_poles(rng, lo, hi, n):
    out = []
    while len(out) < n:
        z = complex(rng.uniform(lo, hi), rng.uniform(-2.0, 2.0))
        if abs(z.imag) > 0.05:
            out.append(z)
            continue
        if (
            abs(z.real - round(z.real)) > 0.05
            and abs((1 - z).real - round((1 - z).real)) > 0.05
        ):
            out.append(z)
    return out


@pytest.mark.parametrize("z,expected", GAMMA_REFERENCES)
def test_gamma_reference_values(z, expected):
    assert rel(gamma(z), expected) <= 1e-12


@pytest.mark.parametrize("z,expected", GAMMA_NEAR_POLE_REFERENCES)
def test_gamma_near_its_poles(z, expected):
    # The reflection formula's sin(pi z) is taken at z - n there, not as
    # 1 - e^(2 i pi z), which cancels to about |z - n| relative.
    assert not is_near_pole(z)
    assert rel(gamma(z), expected) <= 1e-13


@pytest.mark.parametrize("z,expected", LOG_GAMMA_REFERENCES)
def test_log_gamma_reference_values(z, expected):
    assert rel(log_gamma(z), expected) <= 1e-12


def test_log_gamma_trivial_values():
    assert abs(log_gamma(1 + 0j)) <= 1e-14
    assert rel(log_gamma(5 + 0j), math.log(24.0)) <= 1e-14


def test_log_gamma_matches_log_of_gamma_at_1_plus_i():
    # log of (0.49801566811835604 - 0.15494982830181069i)
    expected = cmath.log(complex(0.49801566811835604, -0.15494982830181069))
    assert rel(log_gamma(1 + 1j), expected) <= 1e-12


def test_exp_log_gamma_agrees_with_gamma():
    rng = np.random.default_rng(3)
    for z in sample_away_from_poles(rng, -8.0, 15.0, 50):
        assert rel(cmath.exp(log_gamma(z)), gamma(z)) <= 1e-12


@pytest.mark.parametrize(
    "z,expected",
    [
        (0.5 + 0j, 1.7724538509055160 + 0j),
        (1 + 0j, 1 + 0j),
        (2.5 + 0j, 1.3293403881791370 + 0j),
    ],
)
def test_gamma_named_points(z, expected):
    assert rel(gamma(z), expected) <= 1e-13


def test_gamma_recurrence_invariant():
    rng = np.random.default_rng(11)
    for z in sample_away_from_poles(rng, -5.0, 20.0, 200):
        assert rel(gamma(z + 1), z * gamma(z)) <= 1e-11


def test_gamma_reflection_invariant():
    rng = np.random.default_rng(12)
    for z in sample_away_from_poles(rng, -5.0, 5.0, 200):
        lhs = gamma(z) * gamma(1 - z)
        rhs = math.pi / cmath.sin(math.pi * z)
        assert rel(lhs, rhs) <= 1e-10


def test_gamma_conjugate_symmetry():
    rng = np.random.default_rng(13)
    for z in sample_away_from_poles(rng, -6.0, 12.0, 100):
        assert rel(gamma(z.conjugate()), gamma(z).conjugate()) <= 1e-12


def test_gamma_is_real_on_the_real_axis():
    # log_gamma carries the phase k*pi at negative non-integers, and the
    # reflection formula (Re z < 0.5) leaves a rounding residue in it; Gamma
    # itself is real there, and math.gamma is an independent reference.
    rng = np.random.default_rng(62)
    for z in [-12.3, -4.8, -0.5, 2.5, 7.25, *rng.uniform(1e-6, 0.5, 2000)]:
        for arg in (z, complex(z, 0.0)):
            g = gamma(arg)
            assert g.imag == 0.0
            assert rel(g.real, math.gamma(z)) <= 1e-12


@pytest.mark.parametrize("num,den", [(1.5, -4.8), (-4.8, 0.3), (0.2, 0.45), (-2.5, -1.7)])
def test_gamma_ratio_is_real_on_the_real_axis(num, den):
    r = gamma_ratio(num, den)
    assert r.imag == 0.0
    assert rel(r.real, math.gamma(num) / math.gamma(den)) <= 1e-12


@pytest.mark.parametrize("s1,s2", [(-0.3, 2.2), (0.2, 0.1), (-2.5, -1.7), (-4.8, 0.3)])
def test_beta_is_real_on_the_real_axis(s1, s2):
    b = beta(s1, s2)
    assert b.imag == 0.0
    assert rel(b.real, math.gamma(s1) * math.gamma(s2) / math.gamma(s1 + s2)) <= 1e-12


@pytest.mark.parametrize("s1,s2,expected", BETA_REFERENCES)
def test_beta_reference_values(s1, s2, expected):
    assert rel(beta(s1, s2), expected) <= 1e-12


def test_beta_trivial():
    # B(s, 1) = 1/s for Re(s) > 0; B(1, 1) = 1.
    for s in (0.75 + 0j, 2 + 1j, 0.5 - 0.3j):
        assert rel(beta(s, 1 + 0j), 1 / s) <= 1e-13
    assert rel(beta(1 + 0j, 1 + 0j), 1 + 0j) <= 1e-13


def test_beta_symmetry():
    rng = np.random.default_rng(14)
    for _ in range(100):
        s1 = complex(rng.uniform(0.1, 4.0), rng.uniform(-2, 2))
        s2 = complex(rng.uniform(0.1, 4.0), rng.uniform(-2, 2))
        assert rel(beta(s1, s2), beta(s2, s1)) <= 1e-12


def test_beta_modulus_bound():
    # |B(s, p+1)| <= B(Re s, p+1) for Re(s) > 0, real p >= 0.
    res = np.linspace(0.25, 3.0, 5)
    ims = np.linspace(-2.0, 2.0, 4)
    ps = np.linspace(0.0, 4.0, 20)
    for re_s in res:
        for im_s in ims:
            s = complex(re_s, im_s)
            for p in ps:
                lhs = abs(beta(s, p + 1.0))
                rhs = beta(complex(re_s, 0.0), p + 1.0).real
                assert lhs <= rhs * (1 + 1e-12)


@pytest.mark.parametrize("num,den,expected", GAMMA_RATIO_REFERENCES)
def test_gamma_ratio_reference_values(num, den, expected):
    assert rel(gamma_ratio(num, den), expected) <= 1e-12


def test_gamma_ratio_trivial():
    assert rel(gamma_ratio(2 + 0j, 3 + 0j), 0.5) <= 1e-14


def test_gamma_ratio_vanishes_on_denominator_pole():
    assert gamma_ratio(2 + 0j, 0j) == 0
    assert gamma_ratio(1.5 + 0j, -3 + 0j) == 0


def test_gamma_ratio_consistency_with_gamma():
    rng = np.random.default_rng(15)
    for _ in range(100):
        a = complex(rng.uniform(0.2, 8.0), rng.uniform(-2, 2))
        b = complex(rng.uniform(0.2, 8.0), rng.uniform(-2, 2))
        assert rel(gamma_ratio(a, b), gamma(a) / gamma(b)) <= 1e-11


@pytest.mark.parametrize("z", [0j, -1 + 0j, -7 + 0j, complex(-2 + 1e-12, 1e-12)])
def test_gamma_pole_errors(z):
    assert is_near_pole(z)
    with pytest.raises(PoleError):
        gamma(z)
    with pytest.raises(PoleError):
        log_gamma(z)
    with pytest.raises(PoleError):
        gamma_ratio(z, 1 + 0j)
    with pytest.raises(PoleError):
        beta(z, 1 + 0j)


def test_near_pole_is_still_finite_outside_tolerance():
    z = complex(-2 + 1e-6, 0.0)
    assert not is_near_pole(z)
    assert math.isfinite(gamma(z).real)


def test_complex_pow_examples():
    assert complex_pow(1.0, 3.7 - 2.2j) == 1
    assert rel(complex_pow(4.0, 0.5 + 0j), 2.0) <= 1e-15
    expected = complex(math.cos(1.0), math.sin(1.0))
    assert rel(complex_pow(math.e, 1j), expected) <= 1e-15


def test_complex_pow_zero_base():
    assert complex_pow(0.0, 2 + 3j) == 0
    with pytest.raises(DomainError):
        complex_pow(0.0, -0.5 + 0j)
    with pytest.raises(DomainError):
        complex_pow(0.0, 1j)
    with pytest.raises(DomainError):
        complex_pow(-1.0, 0.5 + 0j)


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(min_value=1e-3, max_value=1e3),
    a=st.floats(min_value=-3, max_value=3),
    b=st.floats(min_value=-3, max_value=3),
)
def test_complex_pow_matches_cmath(x, a, b):
    s = complex(a, b)
    expected = cmath.exp(s * math.log(x))
    assert rel(complex_pow(x, s), expected) <= 1e-12


def _polar_pow(x, s):
    # x^Re(s) (cos t + i sin t) with t = Im(s) ln x: the reference for complex_pow.
    t = s.imag * math.log(x)
    mag = x**s.real
    return complex(mag * math.cos(t), mag * math.sin(t))


@settings(max_examples=500, deadline=None)
@given(
    x=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    a=st.floats(min_value=-1e300, max_value=1e300),
    b=st.floats(min_value=-1e300, max_value=1e300).filter(lambda b: b != 0.0),
)
def test_complex_pow_equals_the_polar_formula(x, a, b):
    # |Im(s) ln x| <= 1e300 * 745 keeps the phase finite.  Equal, not
    # identical: at a zero phase (x = 1, Im s < 0 <= Re s) x ** s has a
    # +0.0 imaginary part where the formula has -0.0.
    s = complex(a, b)
    try:
        expected = _polar_pow(x, s)
    except OverflowError:
        with pytest.raises(OverflowError):
            complex_pow(x, s)
        return
    assert complex_pow(x, s) == expected


def test_complex_pow_rejects_an_overflowing_phase():
    # Im(s) ln x = 1e307 * 690.8 overflows; CPython's x ** s raises
    # ZeroDivisionError there.
    for x, s in ((1e300, 1e307j), (1e-300, 0.5 - 1e307j)):
        with pytest.raises(DomainError, match="phase"):
            complex_pow(x, s)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_complex_pow_rejects_a_non_finite_base(x):
    for s in (0.5 + 0j, 1 + 1j):
        with pytest.raises(DomainError):
            complex_pow(x, s)
