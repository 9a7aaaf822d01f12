"""Routing layer: closed vs numeric backends over grids, per-point isolation."""

import math
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from complexorder import (
    EvalStatus,
    Method,
    MismatchError,
    OpaqueFunction,
    QuadConfig,
    UnsupportedError,
    apply,
    complex_pow,
    parse_function,
    parse_operator,
)
from complexorder import quadrature
from complexorder.quadrature import (
    _DERIVATIVE_SIZES,
    _cosine_rows,
    _endpoint_images,
    _shared_rule,
    _weights,
)


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def test_closed_evaluation_of_first_integral():
    results = apply(parse_operator("J^(1)"), parse_function("x"), [2.0], Method.CLOSED)
    (r,) = results
    assert r.status is EvalStatus.OK
    assert rel(r.value, 2.0) <= 1e-13
    assert r.reference is None


def test_both_on_left_inverse_chain():
    expr = parse_operator("D^(0.5).J^(0.5)")
    f = parse_function("x^(1+1i)")
    (r,) = apply(expr, f, [1.5], Method.BOTH)
    assert r.status is EvalStatus.OK
    expected = complex_pow(1.5, 1 + 1j)
    assert rel(r.reference, expected) <= 1e-12
    assert r.rel_err <= 1e-6


def test_both_complex_order_on_square():
    expr = parse_operator("J^(0.5+0.5i)")
    f = parse_function("x^(2)")
    (r,) = apply(expr, f, [1.0], Method.BOTH)
    # closed value Gamma(3)/Gamma(3.5+0.5i) * 1^(2.5+0.5i), Gamma ratio
    # frozen from a 40-digit run
    expected = complex(0.533329790085162, -0.329793382545646)
    assert rel(r.reference, expected) <= 1e-12
    assert r.rel_err <= 1e-8


def test_method_accepts_strings():
    results = apply(parse_operator("J^(1)"), parse_function("x"), [2.0], "closed")
    assert results[0].status is EvalStatus.OK


def test_identity_chain_evaluates_exactly():
    expr = parse_operator("D^(0.3+0.1i).J^(0.3+0.1i)")
    f = parse_function("(2+0i)*x + x^(0.5)")
    for r in apply(expr, f, [0.5, 4.0], Method.CLOSED):
        assert r.status is EvalStatus.OK
        assert r.value == f(r.x)


def test_numeric_identity_matches_function():
    expr = parse_operator("D^(1).J^(1)")
    f = parse_function("x^(1.5)")
    (r,) = apply(expr, f, [2.0], Method.NUMERIC)
    assert r.value == f(2.0)


def test_per_point_isolation_of_domain_errors():
    expr = parse_operator("J^(0.5)")
    f = parse_function("x")
    results = apply(expr, f, [-1.0, 0.0, 1.0], Method.BOTH)
    assert [r.status for r in results] == [
        EvalStatus.DOMAIN_ERROR,
        EvalStatus.DOMAIN_ERROR,
        EvalStatus.OK,
    ]
    assert results[2].rel_err <= 1e-9


def test_convergence_error_rows_carry_no_value():
    # A best estimate is that of one term, not the value at the point.
    expr = parse_operator("J^(0.5)")
    f = parse_function("x^(0.3+1i)")
    (r,) = apply(expr, f, [1.0], Method.BOTH, QuadConfig(rel_tol=1e-30))
    assert r.status is EvalStatus.CONVERGENCE_ERROR
    assert r.value is None
    assert r.abs_err is None and r.rel_err is None
    assert r.reference is not None


@pytest.mark.parametrize("method", list(Method))
def test_overflow_at_a_point_is_a_domain_error(method):
    # e^x overflows a double past x = 709.78, in the closed reference and
    # in the numeric value alike; the rest of the grid is unaffected.
    expr = parse_operator("J^(1)", lower_limit=-math.inf)
    f = parse_function("exp(x)", lower_limit=-math.inf)
    results = apply(expr, f, [700.0, 710.0, 720.0], method)
    assert [r.status for r in results] == [
        EvalStatus.OK,
        EvalStatus.DOMAIN_ERROR,
        EvalStatus.DOMAIN_ERROR,
    ]
    assert [r.value is None for r in results] == [False, True, True]
    (r,) = apply(parse_operator("J^(1)"), parse_function("x^(300)"), [1e3], method)
    assert r.status is EvalStatus.DOMAIN_ERROR
    # 10 e^709 overflows inside a product without an exception: the closed
    # reference is inf and the numeric value inf+nan*j.
    f = parse_function("(10+0i)*exp(x)", lower_limit=-math.inf)
    (r,) = apply(expr, f, [709.0], method)
    assert r.status is EvalStatus.DOMAIN_ERROR
    assert r.value is None and r.reference is None


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("fn", ["exp(x) - exp(x)", "0*exp(x)"])
def test_zero_function_from_minus_inf_is_zero_where_exp_overflows(fn, method):
    # The zero function has no exp(x) to overflow: every point is an ok 0.
    expr = parse_operator("J^(0.5)", lower_limit=-math.inf)
    f = parse_function(fn, lower_limit=-math.inf)
    results = apply(expr, f, [700.0, 750.0, 800.0], method)
    assert [r.status for r in results] == [EvalStatus.OK] * 3
    assert [r.value for r in results] == [0j] * 3


@pytest.mark.parametrize("method", list(Method))
def test_closed_form_domain_error_fails_every_point(method):
    # J^(0.5) of x^(-1.5) has no closed image (Gamma(p + s + 1) at its pole
    # 0) and no numeric one (Re p <= -1): every row is a domain error.
    expr = parse_operator("J^(0.5)")
    results = apply(expr, parse_function("x^(-1.5)"), [0.5, 1.25, 2.0], method)
    assert [r.status for r in results] == [EvalStatus.DOMAIN_ERROR] * 3
    assert [(r.value, r.reference) for r in results] == [(None, None)] * 3


@pytest.mark.parametrize("method", list(Method))
def test_infinite_point_is_a_domain_error(method):
    # (x - x0)^s has no value at x = inf; the finite point keeps its value.
    expr = parse_operator("J^(0.5)")
    f = parse_function("x^(1+1i)")
    results = apply(expr, f, [1.0, math.inf], method)
    assert [r.status for r in results] == [EvalStatus.OK, EvalStatus.DOMAIN_ERROR]
    assert results[0].value is not None and results[1].value is None


@pytest.mark.parametrize("method", [Method.NUMERIC, Method.BOTH])
def test_underflowing_power_cofactor_is_a_domain_error(method):
    # u^80 underflows to 0 at the smallest quadrature node, where the
    # left-panel cofactor divides by it; the grid goes on past the point.
    expr = parse_operator("J^(1)")
    f = parse_function("x^(80)")
    results = apply(expr, f, [1.0, 2.0], method)
    assert [r.status for r in results] == [EvalStatus.DOMAIN_ERROR] * 2
    assert [r.value for r in results] == [None, None]
    (r,) = apply(expr, parse_function("x^(70)"), [1.0], method)
    assert r.status is EvalStatus.OK
    # A derivative's stencil integrals share their rules, from the size 24
    # on, where (v/2)^120 underflows too; the rule that divides by the 0
    # raises while it is built and fails the point.  Finite differences
    # certify no accuracy, so x^80 need only get a value.
    expr = parse_operator("D^(0.5)")
    results = apply(expr, parse_function("x^(120)"), [1.0, 2.0], method)
    assert [r.status for r in results] == [EvalStatus.DOMAIN_ERROR] * 2
    assert [r.value for r in results] == [None, None]
    (r,) = apply(expr, f, [1.0], method)
    assert r.value is not None


def _counting_rules(monkeypatch):
    """Record the (s, n, p) of every rule ``quadrature._rule`` is asked to
    build, from an empty cache of shared rules."""
    _shared_rule.cache_clear()
    built = []
    original = quadrature._rule

    def counting(s, n, p):
        built.append((s, n, p))
        return original(s, n, p)

    monkeypatch.setattr(quadrature, "_rule", counting)
    return built


def test_power_derivative_grid_builds_each_terms_rules_once(monkeypatch):
    # Every stencil integral of a term, at every point of the grid, has the
    # order k - s and the term's exponent: one shared rule per term and
    # ladder size serves the whole apply call.
    built = _counting_rules(monkeypatch)
    f = parse_function("x^(1.5) + (0.5-1i)*x^(0.5+0.5i)")
    xs = [0.5 + 0.3 * i for i in range(6)]
    results = apply(parse_operator("D^(2.25)"), f, xs, Method.NUMERIC)
    assert all(r.value is not None for r in results)
    assert set(Counter(built).values()) == {1}
    assert {p for _, _, p in built} == {1.5, 0.5 + 0.5j}
    assert {s for s, _, _ in built} == {3 - 2.25}
    for p in (1.5, 0.5 + 0.5j):
        assert {24, 32} <= {n for _, n, q in built if q == p} <= set(_DERIVATIVE_SIZES)


def test_nine_term_power_derivative_builds_each_terms_rules_once(monkeypatch):
    # Nine terms at the sizes 24 and 32 need 18 shared rules at every
    # point: the cache holds them all, so no point rebuilds a rule that
    # the point before it evicted.
    built = _counting_rules(monkeypatch)
    f = parse_function(" + ".join(f"x^({0.3 + 0.37 * j:.2f})" for j in range(9)))
    xs = [0.5 + 0.1 * i for i in range(16)]
    results = apply(parse_operator("D^(1.4+0.3i)"), f, xs, Method.NUMERIC)
    assert all(r.value is not None for r in results)
    assert set(Counter(built).values()) == {1}
    assert len({p for _, _, p in built}) == 9


def test_shared_rules_outlive_a_derivative_call_and_integrals_build_their_own(monkeypatch):
    # The rules of a power-sum derivative are a cache of the quadrature
    # module, so a second apply call builds none; an integral builds its
    # rules again at every point.
    built = _counting_rules(monkeypatch)
    f = parse_function("x^(1.5) + (0.5-1i)*x^(0.5+0.5i)")
    xs = [0.5 + 0.3 * i for i in range(6)]
    expr = parse_operator("D^(2.25)")
    first = apply(expr, f, xs, Method.NUMERIC)
    count = len(built)
    assert apply(expr, f, xs, Method.NUMERIC) == first
    assert len(built) == count
    assert set(Counter(built).values()) == {1}
    del built[:]
    expr = parse_operator("J^(0.7+0.4i)")
    first = apply(expr, f, xs, Method.NUMERIC)
    assert apply(expr, f, xs, Method.NUMERIC) == first
    per_point = Counter((n, p) for _, n, p in built)
    assert {n for n, _ in per_point} == {32, 64}
    assert set(per_point.values()) == {2 * len(xs)}


def test_underflowing_power_factor_fails_every_point_of_a_derivative_grid(monkeypatch):
    # The size-24 rule of x^120 divides by a (v/2)^120 that underflows to 0.
    # Building it raises at every point and the cache of shared rules keeps
    # nothing, so no point after the first is spared the failure.
    built = _counting_rules(monkeypatch)
    results = apply(parse_operator("D^(0.5)"), parse_function("x^(120)"), [0.5, 0.75, 1.0], Method.NUMERIC)
    assert [r.status for r in results] == [EvalStatus.DOMAIN_ERROR] * 3
    assert [r.value for r in results] == [None] * 3
    assert Counter(n for _, n, _ in built) == {24: 3}


def test_exp_numeric_integer_order_both():
    expr = parse_operator("J^(1)", lower_limit=-math.inf)
    f = parse_function("exp(x)", lower_limit=-math.inf)
    results = apply(expr, f, [0.0, 1.0], Method.BOTH, QuadConfig(rel_tol=1e-12))
    for r, expected in zip(results, (1.0, math.e)):
        assert r.status is EvalStatus.OK
        assert rel(r.value, expected) <= 1e-10
        assert rel(r.reference, expected) <= 1e-12


def test_exp_non_integer_closed_matches_numeric():
    # The closed image of e^x from -inf is e^x at every order; the numeric
    # value, one quadrature per grid, checks it to the requested tolerance.
    f = parse_function("exp(x)", lower_limit=-math.inf)
    xs = [-3.0, 0.0, 1.7, 5.0]
    for op in (
        "J^(0.5)", "J^(1+1i)", "J^(2.5-2i)", "J^(0.2+3i)", "J^(0+1i)",
        "D^(0.5)", "D^(1.5+1i)", "D^(2.9-2i)", "D^(0.2+3i)", "D^(0.3).J^(1.1+0.4i)",
    ):
        results = apply(parse_operator(op, lower_limit=-math.inf), f, xs, Method.BOTH)
        for r in results:
            assert r.status is EvalStatus.OK, (op, r)
            assert r.reference == math.exp(r.x)
            assert r.rel_err <= 1e-9, (op, r)


def test_exp_numeric_derivative_branch():
    expr = parse_operator("D^(0.5)", lower_limit=-math.inf)
    f = parse_function("exp(x)", lower_limit=-math.inf)
    (r,) = apply(expr, f, [0.0], Method.NUMERIC)
    assert r.status is EvalStatus.OK
    assert rel(r.value, 1.0) <= 1e-6


def test_opaque_numeric_only():
    g = OpaqueFunction(fn=lambda y: complex(y, 0.0) if y > 0 else 0j)
    expr = parse_operator("J^(0.5)")
    (r,) = apply(expr, g, [1.0], Method.NUMERIC)
    assert rel(r.value, 0.7522527780636751) <= 1e-9
    with pytest.raises(UnsupportedError):
        apply(expr, g, [1.0], Method.BOTH)


def test_lower_limit_mismatch_rejected():
    # The mismatch is reported before an opaque function's lack of a closed form.
    expr = parse_operator("J^(1)", lower_limit=1.0)
    opaque = OpaqueFunction(fn=math.sin)
    for f, method in (
        (parse_function("x"), Method.BOTH),
        (opaque, Method.BOTH),
        (opaque, Method.NUMERIC),
    ):
        with pytest.raises(MismatchError):
            apply(expr, f, [2.0], method)


def test_rel_err_definition():
    expr = parse_operator("J^(1)")
    f = parse_function("x")
    (r,) = apply(expr, f, [2.0], Method.BOTH)
    assert r.abs_err == abs(r.value - r.reference)
    assert r.rel_err == r.abs_err / max(abs(r.reference), 1e-300)


def test_zero_reference_has_no_rel_err():
    # Gamma(1.5)/Gamma(0) = 0: D^1.5 annihilates x^0.5, so the closed
    # reference is exactly zero and only the absolute error is meaningful.
    (r,) = apply(parse_operator("D^(1.5)"), parse_function("x^(0.5)"), [1.0], Method.BOTH)
    assert r.reference == 0
    assert r.rel_err is None
    assert r.abs_err == abs(r.value)
    assert r.abs_err <= 1e-9
    assert r.status is EvalStatus.OK


def test_multi_term_numeric_sums_terms():
    expr = parse_operator("J^(0.75)")
    f = parse_function("(2+0i)*x^(0.5) + x^(1+1i)")
    (r,) = apply(expr, f, [1.25], Method.BOTH)
    assert r.status is EvalStatus.OK
    assert r.rel_err <= 1e-9


def test_net_derivative_route_numeric_vs_closed():
    # D^(0.3).J^(0.1) has net order -0.2: a derivative of order 0.2, k = 1.
    expr = parse_operator("D^(0.3).J^(0.1)")
    f = parse_function("x^(1.5)")
    (r,) = apply(expr, f, [1.5], Method.BOTH)
    assert r.status is EvalStatus.OK
    assert r.rel_err <= 1e-6


def test_pure_imaginary_net_order_route():
    expr = parse_operator("J^(0+0.4i)")
    f = parse_function("x^(2)")
    (r,) = apply(expr, f, [1.2], Method.BOTH)
    assert r.status is EvalStatus.OK
    assert r.rel_err <= 1e-6


def test_exp_lower_inf_derivatives_meet_rel_tol():
    # D^k J^(k-s) of c e^x from -inf is c e^x times one quadrature at 0,
    # so status ok must carry rel_tol even at k = 3.
    f = parse_function("(1.5-0.5i)*exp(x)", lower_limit=-math.inf)
    xs = [0.01, 0.5, 1.0, 2.0]
    for op in ("D^(2)", "D^(2.5-1i)"):
        expr = parse_operator(op, lower_limit=-math.inf)
        for r in apply(expr, f, xs, Method.NUMERIC):
            assert r.status is EvalStatus.OK
            assert rel(r.value, (1.5 - 0.5j) * math.exp(r.x)) <= 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: every rung shares the kernel panel's error at high order, "
    "so ok rows of J^8, J^(8+0.5i) and J^10 of exp(x) from -inf are outside rel_tol",
)
def test_exp_lower_inf_high_order_integrals_meet_rel_tol():
    # J^s e^x from -inf is e^x, which is exactly the closed reference.  The
    # truncated tail is only 1.7e-10 relative at Re s = 8, yet these rows
    # read ok at 2.7e-8, 6.0e-8 and 2.5e-7 (J^7 is 8.8e-10 off, J^12 a
    # convergence_error).
    f = parse_function("exp(x)", lower_limit=-math.inf)
    for op in ("J^(8)", "J^(8+0.5i)", "J^(10)"):
        expr = parse_operator(op, lower_limit=-math.inf)
        for r in apply(expr, f, [0.0, 1.0], Method.BOTH):
            if r.status is EvalStatus.OK:
                assert r.rel_err <= 1e-9, (op, r)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: e^y over T = 40 + 10|Im s| meets the kernel's fastest "
    "oscillation at u = 1, so ok rows of J^(2+10i), J^(1+10i), J^(2+8i) miss rel_tol",
)
def test_exp_lower_inf_high_imaginary_order_integrals_meet_rel_tol():
    # Not the high real part of the test above: these rows read ok at
    # 1.4e-7, 4.7e-9 and 1.7e-9 at x = 0 and 1.
    f = parse_function("exp(x)", lower_limit=-math.inf)
    for op in ("J^(2+10i)", "J^(1+10i)", "J^(2+8i)"):
        expr = parse_operator(op, lower_limit=-math.inf)
        for r in apply(expr, f, [0.0, 1.0], Method.BOTH):
            if r.status is EvalStatus.OK:
                assert r.rel_err <= 1e-9, (op, r)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: the kernel panel's error at high power and order, "
    "so ok rows of J^20 of x^30 are outside rel_tol",
)
def test_high_order_power_integral_meets_rel_tol():
    # J^20 x^30 = Gamma(31) / Gamma(51) x^50 is the closed reference; every
    # row reads ok at 2.35e-9.
    results = apply(parse_operator("J^(20)"), parse_function("x^(30)"), [0.5, 1.0, 3.0], Method.BOTH)
    for r in results:
        if r.status is EvalStatus.OK:
            assert r.rel_err <= 1e-9, r


def test_real_orders_on_real_powers_give_real_values():
    # Gamma of real arguments is real: the closed D^6.3 x^0.5 divides by
    # Gamma(-4.8), and the numeric D^0.7 x^1.5 by Gamma(0.3) (reflection).
    (r,) = apply(parse_operator("D^(6.3)"), parse_function("x^(0.5)"), [1.0], Method.CLOSED)
    assert r.value.imag == 0.0
    expr, f = parse_operator("D^(0.7)"), parse_function("x^(1.5)")
    for r in apply(expr, f, [0.5, 1.25, 2.0], Method.BOTH):
        assert r.status is EvalStatus.OK
        assert r.value.imag == 0.0
        assert r.reference.imag == 0.0


@pytest.mark.xfail(
    strict=True,
    reason="every point is domain_error: the k = 7 difference stencil leaves (0, inf)",
)
def test_high_order_power_derivative_meets_rel_tol():
    # D^6.3 x^0.5 = Gamma(1.5)/Gamma(-4.8) x^-5.8 has a closed form, so no
    # point should fail numerically.
    results = apply(parse_operator("D^(6.3)"), parse_function("x^(0.5)"), [1.0, 5.0, 10.0])
    for r in results:
        assert r.status is EvalStatus.OK, r
        assert r.rel_err <= 1e-9, r


@pytest.mark.xfail(
    strict=True,
    reason="finite differences of the stencil integrals are ok at 1.0e-8 to 6.5e-7 off",
)
def test_high_power_derivative_meets_rel_tol():
    # D^0.5 x^80 = Gamma(81)/Gamma(80.5) x^79.5; its stencil integrals stop
    # below the size whose (v/2)^80 underflows, so every point gets a value.
    results = apply(parse_operator("D^(0.5)"), parse_function("x^(80)"), [0.5, 1.0, 2.0, 3.0])
    for r in results:
        if r.status is EvalStatus.OK:
            assert r.rel_err <= 1e-9, r


def test_exp_lower_inf_grid_makes_one_quadrature(monkeypatch):
    # The integral of e^x from -inf is e^x times its value at 0, so one
    # quadrature serves the grid; a failure of it is every point's, while
    # an overflow of e^x stays the point's own.
    calls = []
    original = quadrature.integrate_exp_lower_inf

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(quadrature, "integrate_exp_lower_inf", counted)
    expr = parse_operator("D^(0.5)", lower_limit=-math.inf)
    f = parse_function("(2-1i)*exp(x)", lower_limit=-math.inf)
    xs = [0.25 * i for i in range(8)]
    results = apply(expr, f, xs, Method.NUMERIC)
    assert len(calls) == 1
    at_zero = original(0.5 + 0j, 0.0, QuadConfig())
    assert [r.value for r in results] == [(2 - 1j) * math.exp(x) * at_zero for x in xs]
    assert {r.status for r in results} == {EvalStatus.OK}

    calls.clear()
    results = apply(expr, f, [0.0, 710.0, 1.0], Method.NUMERIC, QuadConfig(rel_tol=1e-30))
    assert len(calls) == 1
    assert [r.status for r in results] == [
        EvalStatus.CONVERGENCE_ERROR,
        EvalStatus.DOMAIN_ERROR,
        EvalStatus.CONVERGENCE_ERROR,
    ]


def test_numeric_rows_are_both_rows_without_reference():
    expr = parse_operator("D^(0.5+0.3i)")
    f = parse_function("x^(1.5) + (2-1i)*x^(0.25)")
    xs = [0.001, 0.3, 1.7]
    both = apply(expr, f, xs, Method.BOTH)
    numeric = apply(expr, f, xs, Method.NUMERIC)
    assert [r.status for r in numeric] == [r.status for r in both]
    assert [r.value for r in numeric] == [r.value for r in both]
    assert all(r.reference is r.abs_err is r.rel_err is None for r in numeric)
    assert both[0].status is EvalStatus.DOMAIN_ERROR


def _opaque_cubic():
    return OpaqueFunction(fn=lambda y: y**3 + 2.0 * y if y > 0 else 0.0)


@pytest.mark.parametrize("op", ["D^(0.5+0.5i)", "D^(1.5)", "D^(2.9-1.5i)", "D^(0.05+1.9i)"])
def test_opaque_polynomial_derivative_is_its_closed_form(op):
    # The Chebyshev expansion of a cubic is exact, and so is the image of
    # each term: the opaque y^3 + 2y gets the power sum's image.
    expr = parse_operator(op)
    xs = [0.05, 1.0, 3.0]
    closed = apply(expr, parse_function("x^3 + 2*x"), xs, Method.CLOSED)
    for c, r in zip(closed, apply(expr, _opaque_cubic(), xs, Method.NUMERIC)):
        assert r.status is EvalStatus.OK
        assert rel(r.value, c.value) <= 1e-12


def test_integer_order_annihilates_an_opaque_polynomial():
    # 1/Gamma(m+1-4) vanishes for m < 4, and the cubic's higher Chebyshev
    # coefficients are rounding noise that the chop drops.
    xs = [0.01, 0.5, 2.5, 10.0]
    results = apply(parse_operator("D^(4)"), _opaque_cubic(), xs, Method.NUMERIC)
    assert [(r.status, r.value) for r in results] == [(EvalStatus.OK, 0j)] * 4


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 6: on [0, x] with x <= 3e-4 the cubic's coefficients drop by "
    "less than eps^(-1/2) after its last one, so the chop keeps rounding noise",
)
@pytest.mark.parametrize("x", [1e-4, 3e-4])
def test_integer_order_annihilates_an_opaque_polynomial_on_a_short_interval(x):
    # The cubic drops by 8e7 at x = 1e-3, where D^4 is an ok 0, and by
    # less closer to the lower limit, where it is a convergence_error.
    (r,) = apply(parse_operator("D^(4)"), _opaque_cubic(), [x], Method.NUMERIC)
    assert (r.status, r.value) == (EvalStatus.OK, 0j)


def _ycos2(y):
    return y * math.cos(2.0 * y) if y > 0 else 0.0


@pytest.mark.parametrize(
    "op, fn, x",
    [
        ("D^(2.5)", _ycos2, 1.3),
        ("D^(3)", _ycos2, 1.3),
        ("J^(0.5+1i)", _ycos2, 1.3),
        ("J^(1.5)", lambda y: math.sin(120.0 * y) if y > 0 else 0.0, 1.0),
    ],
    ids=["fractional-derivative", "integer-derivative", "integral", "integral-size-256"],
)
def test_opaque_numeric_rows_are_ok(op, fn, x):
    # A derivative builds its Chebyshev rows and images at a fractional and
    # at an integer order, an integral takes the unsplit kernel panel, and
    # sin(120 y) takes the ladder to size 256, whose Chebyshev rows are the
    # largest.
    (r,) = apply(parse_operator(op), OpaqueFunction(fn), [x], Method.NUMERIC)
    assert r.status is EvalStatus.OK, r


def test_opaque_derivative_of_too_high_order_is_not_ok():
    # D^6.3 weighs the m-th Chebyshev coefficient by about m^12.6, so their
    # rounding outweighs the value and successive sizes disagree.
    f = OpaqueFunction(fn=lambda y: y * math.cos(2.0 * y) if y > 0 else 0.0)
    results = apply(parse_operator("D^(6.3)"), f, [1.0, 5.0], Method.NUMERIC)
    assert [r.status for r in results] == [EvalStatus.CONVERGENCE_ERROR] * 2


@pytest.mark.parametrize("op", ["D^(16)", "D^(20)"])
def test_integer_order_past_the_chop_of_a_smooth_integrand_is_not_ok(op):
    # y cos 2y on [0, 1] chops near 16 terms, and D^16, D^20 map every kept
    # term to 0; its coefficients decay into the plateau, so 0 is no answer
    # (the true values are of order 1e5 and 1e7).
    f = OpaqueFunction(fn=lambda y: y * math.cos(2.0 * y) if y > 0 else 0.0)
    results = apply(parse_operator(op), f, [1.0], Method.NUMERIC)
    assert [r.status for r in results] == [EvalStatus.CONVERGENCE_ERROR]


@pytest.mark.parametrize(
    "op, fn",
    [
        ("D^(0.5)", lambda y: math.inf if y > 0.5 else y),
        ("D^(0.5+1000i)", lambda y: y * math.cos(2.0 * y) if y > 0 else 0.0),
    ],
    ids=["infinite-integrand", "overflowing-reciprocal-gamma"],
)
def test_opaque_derivative_failures_stay_in_their_rows(op, fn):
    # An integrand that is not finite, and an m! / Gamma(m+1-s) that
    # overflows (Gamma(0.5-1000i) underflows), are domain errors of the point.
    results = apply(parse_operator(op), OpaqueFunction(fn=fn), [1.0, 2.0], Method.NUMERIC)
    assert [r.status for r in results] == [EvalStatus.DOMAIN_ERROR] * 2


@pytest.mark.parametrize(
    "op, f",
    [
        ("J^(0.5+1000i)", parse_function("x^2")),
        ("D^(0.5+1000i)", parse_function("x^2")),
        ("J^(0.5+1000i)", OpaqueFunction(fn=lambda y: y * math.cos(2.0 * y) if y > 0 else 0.0)),
        ("J^(1e-12)", parse_function("x^2")),
        ("D^(2.999999999999)", parse_function("x^3")),
    ],
    ids=[
        "power-integral",
        "power-derivative",
        "opaque-integral",
        "integral-next-to-pole",
        "derivative-next-to-pole",
    ],
)
def test_reciprocal_gamma_failures_are_domain_errors_of_the_point(op, f):
    # Gamma(0.5+1000i) underflows to 0; 1/Gamma, taken in log space,
    # overflows instead of dividing by zero, and fails the point only.  An
    # integral order within POLE_TOLERANCE of 0 (here also the inner order
    # 3 - s of the derivative) raises PoleError instead of reading 0.
    results = apply(parse_operator(op), f, [1.0, 2.0], Method.NUMERIC)
    assert [r.status for r in results] == [EvalStatus.DOMAIN_ERROR] * 2


@pytest.mark.parametrize(
    "op, f, method",
    [
        ("J^(0.7+0.4i)", parse_function("2*x^(0.5) + x^(1+1i) + (1-2i)*x^(-0.25)"), Method.BOTH),
        ("D^(2.5+0.5i)", parse_function("2*x^(0.5) + x^(1+1i) + (1-2i)*x^(2.25)"), Method.BOTH),
        (
            "D^(0.8)",
            OpaqueFunction(fn=lambda y: y * math.cos(3.0 * y) if y > 0 else 0.0),
            Method.NUMERIC,
        ),
    ],
    ids=["power-integral", "power-derivative-k3", "opaque-derivative"],
)
def test_grid_rows_are_single_point_rows(op, f, method):
    # The route is chosen once per call; no point depends on its neighbours.
    expr = parse_operator(op)
    xs = [0.02 + 0.35 * i for i in range(8)]
    grid = apply(expr, f, xs, method)
    assert grid == [row for x in xs for row in apply(expr, f, [x], method)]


def test_result_order_matches_xs_order():
    expr = parse_operator("J^(1)")
    f = parse_function("x")
    xs = [2.0, 0.5, 1.0]
    results = apply(expr, f, xs, Method.CLOSED)
    assert [r.x for r in results] == xs


def test_concurrent_grids_match_serial_run():
    # Threads share the quadrature caches (product-integration weights,
    # Chebyshev rows, endpoint images, a derivative's shared rules),
    # starting empty so that they race on their misses; every result must
    # equal the serial run's exactly.
    grids = [
        (parse_operator("J^(0.7+0.4i)"), parse_function("2*x^(0.5) + x^(1+1i)"), Method.BOTH),
        (
            parse_operator("D^(0.8)"),
            OpaqueFunction(fn=lambda y: y * math.cos(3.0 * y) if y > 0 else 0.0),
            Method.NUMERIC,
        ),
        (
            parse_operator("J^(0.5+0.3i)", lower_limit=-math.inf),
            parse_function("exp(x)", lower_limit=-math.inf),
            Method.NUMERIC,
        ),
        (
            parse_operator("D^(1.3+0.2i)"),
            parse_function("x^(1.5) + (0.5-1i)*x^(0.5+0.5i)"),
            Method.BOTH,
        ),
    ]
    xs = [0.3, 0.9, 1.5, 2.1]

    def run(job):
        expr, f, method = grids[job % len(grids)]
        return [(r.status, r.value) for r in apply(expr, f, xs, method)]

    jobs = range(8 * len(grids))
    caches = (_weights, _cosine_rows, _endpoint_images, _shared_rule)
    for cache in caches:
        cache.cache_clear()
    serial = [run(job) for job in jobs]
    for cache in caches:
        cache.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run, job) for job in jobs]
            concurrent = [fut.result(timeout=120) for fut in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(status is EvalStatus.OK for row in serial for status, _ in row)
    assert concurrent == serial
