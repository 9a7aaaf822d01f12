"""Gamma-ratio closed forms: coefficients, composition laws, chain application."""

import math

import numpy as np
import pytest

from complexorder import (
    CausalFunction,
    DomainError,
    OperatorExpr,
    OperatorStage,
    OpKind,
    PowerTerm,
    apply_closed,
    parse_function,
    parse_operator,
    power_image,
)


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# Frozen 40-digit references for the Gamma-ratio coefficients.
J_COEF_REFERENCES = [
    # (p, s, Gamma(p+1)/Gamma(s+p+1))
    (complex(1, 1), complex(0.5, 0.25), complex(0.7128949911285073, -0.3577908143875228)),
    (complex(2, 0), complex(0.5, 0.5), complex(0.533329790085162, -0.329793382545646)),
    (complex(-0.4, 1.7), complex(2.3, 1.5), complex(-0.3294990732636794, 0.4580423303471731)),
]

D_COEF_REFERENCES = [
    # (p, s, Gamma(p+1)/Gamma(p-s+1))
    (complex(1, 1), complex(0.75, 0.5), complex(0.7895686680486469, 0.5080873424820148)),
    (complex(2.5, -1), complex(0.5, 2), complex(-3.554511791218601, 5.266008133881889)),
]


def test_integrate_power_trivial():
    coef, exponent = power_image(1 + 0j, 1 + 0j)
    assert rel(coef, 0.5) <= 1e-14
    assert exponent == 2


def test_integrate_power_half_order():
    # 1/Gamma(2.5) with Gamma(2.5) = (3/4) sqrt(pi)
    coef, exponent = power_image(1 + 0j, 0.5 + 0j)
    assert rel(coef, 0.7522527780636751) <= 1e-13
    assert exponent == 1.5


@pytest.mark.parametrize("p,s,expected", J_COEF_REFERENCES)
def test_integrate_power_references(p, s, expected):
    # J^s is the signed order sigma = s.
    coef, exponent = power_image(p, s)
    assert rel(coef, expected) <= 1e-12
    assert exponent == p + s


def test_differentiate_power_annihilates_lower_degree():
    coef, exponent = power_image(1 + 0j, -2 + 0j)
    assert coef == 0
    assert exponent == -1


def test_differentiate_power_half_order():
    # Gamma(2)/Gamma(1.5) = 2/sqrt(pi)
    coef, exponent = power_image(1 + 0j, -0.5 + 0j)
    assert rel(coef, 1.1283791670955126) <= 1e-13
    assert exponent == 0.5


@pytest.mark.parametrize("p,s,expected", D_COEF_REFERENCES)
def test_differentiate_power_references(p, s, expected):
    # D^s is the signed order sigma = -s.
    coef, exponent = power_image(p, -s)
    assert rel(coef, expected) <= 1e-12
    assert exponent == p - s


def test_differentiate_power_pure_imaginary_order():
    coef, exponent = power_image(1 + 0j, -0.5j)
    assert exponent == 1 - 0.5j
    assert abs(coef) > 0


def test_power_preconditions():
    # Every complex order is accepted; only a power that is not integrable
    # at the lower limit is refused.
    with pytest.raises(DomainError):
        power_image(-1.5 + 0j, 0.5 + 0j)
    with pytest.raises(DomainError):
        power_image(-1.0 + 0j, -0.5 + 0j)


def _integration_semigroup(rng):
    # J^s1 J^s2 = J^(s1+s2)
    s1 = complex(rng.uniform(0.05, 2.5), rng.uniform(-2, 2))
    s2 = complex(rng.uniform(0.05, 2.5), rng.uniform(-2, 2))
    p = complex(rng.uniform(-0.5, 3.0), rng.uniform(-2, 2))
    return p, s2, s1


def _differentiation_semigroup(rng):
    # D^s1 D^s2 = D^(s1+s2), on powers that stay integrable after D^s2
    s1 = complex(rng.uniform(0.05, 1.2), rng.uniform(-1.5, 1.5))
    s2 = complex(rng.uniform(0.05, 1.2), rng.uniform(-1.5, 1.5))
    p = complex(rng.uniform(1.5, 3.0), rng.uniform(-2, 2))
    return p, -s2, -s1


def _left_inverse(rng):
    # D^s J^s = identity
    s = complex(rng.uniform(0.05, 2.5), rng.uniform(-2, 2))
    p = complex(rng.uniform(-0.5, 3.0), rng.uniform(-2, 2))
    return p, s, -s


def _mixed_first_derivative(rng):
    # D^1 J^s = J^(s-1) for Re(s) > 1
    s = complex(rng.uniform(1.05, 3.0), rng.uniform(-2, 2))
    p = complex(rng.uniform(-0.5, 3.0), rng.uniform(-2, 2))
    return p, s, -1 + 0j


@pytest.mark.parametrize(
    "seed,draw",
    [
        (31, _integration_semigroup),
        (32, _differentiation_semigroup),
        (33, _left_inverse),
        (34, _mixed_first_derivative),
    ],
    ids=["integration-semigroup", "differentiation-semigroup", "left-inverse", "mixed-first-derivative"],
)
def test_signed_order_composition(seed, draw):
    # J^b J^a = J^(a+b) on the coefficients, for signed orders a, b.
    rng = np.random.default_rng(seed)
    for _ in range(100):
        p, a, b = draw(rng)
        ca, ea = power_image(p, a)
        cb, eb = power_image(ea, b)
        cd, ed = power_image(p, a + b)
        if abs(cd) < 1e-10:  # near a pole of Gamma(p+a+b+1): no relative precision
            continue
        assert rel(ca * cb, cd) <= 1e-11
        assert abs(eb - ed) <= 1e-12


@pytest.mark.parametrize(
    "op,sigma", [("J^(0+1i)", 1j), ("J^(-0.5+0.2i)", -0.5 + 0.2j), ("D^(-0.5)", 0.5 + 0j)]
)
def test_power_image_matches_apply_closed_at_any_sign(op, sigma):
    # J at Re(s) <= 0 and D at Re(s) < 0 map through the same signed rule.
    p = 1.5 + 0.5j
    image = apply_closed(parse_operator(op), parse_function("x^(1.5+0.5i)"))
    assert image.terms == (PowerTerm(*power_image(p, sigma)),)


# ----------------------------------------------------------- apply_closed


def test_apply_closed_semigroup_chain():
    expr = parse_operator("J^(0.5).J^(0.5)")
    f = parse_function("x")
    image = apply_closed(expr, f)
    assert len(image.terms) == 1
    assert image.terms[0].exponent == 2
    assert rel(image.terms[0].coef, 0.5) <= 1e-13


def test_apply_closed_inverse_chain_is_identity():
    expr = parse_operator("D^(0.7+0.3i).J^(0.7+0.3i)")
    f = parse_function("x^(1+1i)")
    assert apply_closed(expr, f) == f


def test_apply_closed_exp_integer_order():
    expr = OperatorExpr(
        stages=(OperatorStage(OpKind.INTEGRAL, 1 + 0j),), lower_limit=-math.inf
    )
    f = parse_function("exp(x)", lower_limit=-math.inf)
    assert apply_closed(expr, f) == f


def test_apply_closed_exp_negative_integer_net_order():
    expr = parse_operator("D^(2)", lower_limit=-math.inf)
    f = CausalFunction(exp_coef=3 + 1j, lower_limit=-math.inf)
    assert apply_closed(expr, f) == f


def test_apply_closed_exp_non_integer_order_is_identity():
    # J^s e^x = e^x from -inf for every Re(s) > 0 (Euler's integral for
    # Gamma(s)), so every net order, D^s included, leaves c e^x unchanged.
    f = CausalFunction(exp_coef=3 + 1j, lower_limit=-math.inf)
    for op in ("J^(0.5)", "J^(0+1i)", "D^(0.5)", "D^(0.2+3i)", "D^(0.3).J^(1.1+0.4i)"):
        assert apply_closed(parse_operator(op, lower_limit=-math.inf), f) == f


def test_apply_closed_zero_function_passes_through():
    expr = parse_operator("D^(1.5)")
    zero = CausalFunction()
    assert apply_closed(expr, zero) == zero


def test_apply_closed_pure_imaginary_net_order():
    expr = parse_operator("J^(0+0.5i)")
    f = parse_function("x")
    image = apply_closed(expr, f)
    assert len(image.terms) == 1
    assert abs(image.terms[0].exponent - (1 + 0.5j)) <= 1e-12


def _combine(a, f, b, g):
    terms = [PowerTerm(a * t.coef, t.exponent) for t in f.terms]
    terms += [PowerTerm(b * t.coef, t.exponent) for t in g.terms]
    return CausalFunction(terms=terms, lower_limit=f.lower_limit)


def test_apply_closed_is_linear():
    # Distribution over a*f + b*g is structural: identical term sets, with
    # coefficients equal up to reassociation of complex products.
    rng = np.random.default_rng(35)
    expr = parse_operator("J^(0.6+0.2i)")
    for _ in range(100):
        f = CausalFunction(
            terms=(PowerTerm(complex(rng.normal(), rng.normal()), rng.uniform(-0.5, 3.0)),)
        )
        g = CausalFunction(
            terms=(PowerTerm(complex(rng.normal(), rng.normal()), rng.uniform(-0.5, 3.0)),)
        )
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        lhs = apply_closed(expr, _combine(a, f, b, g))
        rhs = _combine(a, apply_closed(expr, f), b, apply_closed(expr, g))
        assert len(lhs.terms) == len(rhs.terms)
        for tl, tr in zip(lhs.terms, rhs.terms):
            assert tl.exponent == tr.exponent
            assert rel(tl.coef, tr.coef) <= 1e-14


def test_apply_closed_requires_matching_lower_limits():
    from complexorder import MismatchError

    expr = parse_operator("J^(1)", lower_limit=1.0)
    f = parse_function("x")
    with pytest.raises(MismatchError):
        apply_closed(expr, f)


def test_apply_closed_shifted_lower_limit():
    # With terms in (x - x0), the closed form translates exactly.
    expr = parse_operator("J^(1)", lower_limit=2.0)
    f = parse_function("x", lower_limit=2.0)
    image = apply_closed(expr, f)
    assert len(image.terms) == 1
    assert image.terms[0].exponent == 2
    assert image.lower_limit == 2.0
    assert rel(image(4.0), 2.0) <= 1e-13
