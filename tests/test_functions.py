"""Function model: parsing, rendering, evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complexorder import (
    CausalFunction,
    DomainError,
    OpaqueFunction,
    ParseError,
    PowerTerm,
    parse_function,
)


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------- parsing


def test_parse_bare_x():
    f = parse_function("x")
    assert f.terms == (PowerTerm(1, 1),)
    assert f.exp_coef == 0
    assert f.lower_limit == 0.0


def test_parse_two_terms():
    f = parse_function("(2+0i)*x^(0.5) + x^(1+1i)")
    assert len(f.terms) == 2
    assert f.terms[0] == PowerTerm(2, 0.5)
    assert f.terms[1] == PowerTerm(1, 1 + 1j)


def test_parse_exp():
    f = parse_function("exp(x)", lower_limit=-math.inf)
    assert f.terms == ()
    assert f.exp_coef == 1


def test_parse_constant_one():
    f = parse_function("1")
    assert f.terms == (PowerTerm(1, 0),)


def test_parse_merges_equal_exponents():
    f = parse_function("x + x")
    assert f.terms == (PowerTerm(2, 1),)


def test_parse_subtraction_cancels():
    f = parse_function("x - x")
    assert f.terms == ()


def test_parse_whitespace_insignificant():
    assert parse_function(" ( 2 + 0 i ) * x ^ ( 0.5 ) ") == parse_function("(2+0i)*x^(0.5)")


def test_parse_exponent_notation_floats():
    f = parse_function("(1.5e-2+0i)*x^(2e0)")
    assert f.terms == (PowerTerm(0.015, 2),)


@pytest.mark.parametrize(
    "text,offset_of_error",
    [
        ("", 0),
        ("x +", 3),
        ("2", 1),          # a bare coefficient needs '*atom'
        ("(2+0i)x", 6),    # missing '*'
        ("x^", 2),
        ("(1+2j)*x", 4),   # 'j' is not the imaginary marker
        ("exp(y)", 4),
        ("x & x", 2),
        ("x + + ", 6),     # dangling sign: no number follows
    ],
)
def test_parse_errors_carry_offsets(text, offset_of_error):
    with pytest.raises(ParseError) as excinfo:
        parse_function(text)
    assert excinfo.value.offset == offset_of_error


def test_parse_error_message_names_expectation():
    with pytest.raises(ParseError, match="expected '\\*'"):
        parse_function("2")


# ------------------------------------------------------------- evaluation


def test_causality_below_lower_limit():
    f = parse_function("x")
    assert f(-3.0) == 0
    assert f(0.0) == 0


def test_evaluate_complex_exponent():
    f = parse_function("x^(0+1i)")
    expected = complex(math.cos(1.0), math.sin(1.0))
    assert rel(f(math.e), expected) <= 1e-15


def test_evaluate_power_sum():
    f = parse_function("(2+0i)*x + x^(0.5)")
    assert rel(f(4.0), 10.0) <= 1e-15


def test_evaluate_shifted_variable():
    # Power terms are powers of (x - x0) for a finite lower limit.
    f = parse_function("x^(2)", lower_limit=1.0)
    assert f(3.0) == 4.0
    assert f(1.0) == 0
    assert f(0.5) == 0


def test_evaluate_at_limit_with_negative_exponent_raises():
    f = CausalFunction(terms=(PowerTerm(1, -0.5),))
    with pytest.raises(DomainError):
        f(0.0)
    assert f(-1.0) == 0  # strictly below the limit stays causal zero


def test_constant_term_is_zero_at_the_limit_point():
    f = parse_function("1")
    assert f(0.0) == 0
    assert f(0.1) == 1


def test_exp_requires_infinite_lower_limit():
    with pytest.raises(DomainError):
        parse_function("exp(x)", lower_limit=0.0)
    with pytest.raises(DomainError):
        CausalFunction(terms=(PowerTerm(1, 1),), lower_limit=-math.inf)


def test_evaluate_exp():
    f = parse_function("exp(x)", lower_limit=-math.inf)
    assert rel(f(1.0), math.e) <= 1e-15
    assert rel(f(-40.0), math.exp(-40.0)) <= 1e-15


def test_opaque_function_needs_finite_limit():
    with pytest.raises(DomainError):
        OpaqueFunction(fn=lambda x: 0j, lower_limit=-math.inf)
    g = OpaqueFunction(fn=lambda x: complex(x * x, 0.0), lower_limit=0.0)
    assert g(2.0) == 4.0


# ------------------------------------------------------------- round trips


def _random_function(rng, lower_limit=0.0):
    n_terms = int(rng.integers(0, 4))
    terms = tuple(
        PowerTerm(
            complex(rng.normal(), rng.normal()),
            complex(rng.uniform(-0.9, 4.0), rng.uniform(-2.0, 2.0)),
        )
        for _ in range(n_terms)
    )
    return CausalFunction(terms=terms, lower_limit=lower_limit)


def test_parse_render_round_trip_500():
    rng = np.random.default_rng(22)
    for _ in range(500):
        f = _random_function(rng)
        assert parse_function(f.render(), lower_limit=f.lower_limit) == f


def test_round_trip_exp_function():
    f = CausalFunction(exp_coef=2.5 - 1j, lower_limit=-math.inf)
    assert parse_function(f.render(), lower_limit=-math.inf) == f


def test_round_trip_zero_function():
    zero = CausalFunction()
    assert parse_function(zero.render()) == zero


@settings(max_examples=200, deadline=None)
@given(
    coefs=st.lists(
        st.tuples(
            st.floats(-1e6, 1e6, allow_nan=False),
            st.floats(-1e6, 1e6, allow_nan=False),
            st.floats(-0.99, 6.0, allow_nan=False),
            st.floats(-4.0, 4.0, allow_nan=False),
        ),
        max_size=4,
    )
)
def test_parse_render_round_trip_property(coefs):
    terms = tuple(PowerTerm(complex(cr, ci), complex(er, ei)) for cr, ci, er, ei in coefs)
    f = CausalFunction(terms=terms)
    assert parse_function(f.render()) == f


def test_canonical_term_order():
    f = CausalFunction(terms=(PowerTerm(1, 2), PowerTerm(1, 0.5), PowerTerm(1, 2 - 1j)))
    exponents = [t.exponent for t in f.terms]
    assert exponents == sorted(exponents, key=lambda e: (e.real, e.imag))
