"""Singular-kernel quadrature vs the Gamma-ratio closed forms."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from complexorder import (
    ConvergenceError,
    DomainError,
    EvalStatus,
    Method,
    OpaqueFunction,
    QuadConfig,
    apply,
    beta,
    complex_pow,
    differentiate_numeric,
    gamma,
    integrate_exp_lower_inf,
    integrate_numeric,
    parse_operator,
    power_image,
)
from complexorder import quadrature
from complexorder.quadrature import (
    _dot,
    _endpoint_images,
    _plateau_cutoff,
    _rule,
    _weights,
    central_derivative,
    cheb_nodes01,
    chebyshev_derivative,
    chebyshev_power_moments,
)

from oracles import CHEBYSHEV_MOMENT_REFERENCES


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def closed_J(p, s, x):
    coef, exponent = power_image(p, s)
    return coef * complex_pow(x, exponent)


def monomial(p):
    return lambda y: complex_pow(y, p)


# ---------------------------------------------------------------- moments


def test_quad_config_validation():
    QuadConfig()
    # The degree ladder is fixed; the tolerance is the only control.
    assert QuadConfig._fields == ("rel_tol",)
    with pytest.raises(ValueError):
        QuadConfig(rel_tol=0.0)
    # An infinite tolerance would accept any pair of estimates, and 0/0 on
    # a zero integrand.
    with pytest.raises(ValueError):
        QuadConfig(rel_tol=math.inf)


def test_chebyshev_moments_low_orders():
    # int_0^1 w^(s-1) T*_j(w) dw for j = 0, 1, 2 against the rational forms.
    for s in (0.5 + 0j, 1 + 1j, 0.05 + 0.5j, 3 - 2j):
        q = chebyshev_power_moments(s, 3)
        assert rel(q[0], 1 / s) <= 1e-13
        assert rel(q[1], (s - 1) / (s * (s + 1))) <= 1e-13
        assert rel(q[2], (s * s - 5 * s + 2) / (s * (s + 1) * (s + 2))) <= 1e-13


def test_chebyshev_moments_agree_with_monomial_route_at_low_degree():
    # The same interpolant integrated in the monomial basis against the
    # integer moments B(s, k+1).  The monomial conversion amplifies
    # rounding like 4^degree, so the cross-check runs at low degree with a
    # tolerance matching that conditioning, and the moments come from
    # 30-digit mpmath: independent 1e-14 errors in double-precision moments
    # would be amplified past that tolerance too.
    rng = np.random.default_rng(51)
    n = 12
    for s in (0.7 + 0j, 0.5 + 0.25j, 2 - 1j):
        coeffs_cheb = rng.normal(size=n) + 1j * rng.normal(size=n)
        # Chebyshev-basis integral
        q = chebyshev_power_moments(s, n)
        signs = (-1.0) ** np.arange(n)
        value_cheb = np.sum(coeffs_cheb * signs * q)
        # monomial route: T*-series -> monomials in u -> integer beta moments
        series = np.polynomial.chebyshev.Chebyshev(coeffs_cheb, domain=[0, 1])
        poly = series.convert(kind=np.polynomial.Polynomial, domain=[0, 1], window=[0, 1])
        with mpmath.workdps(30):
            mu = np.array([complex(mpmath.beta(s, k + 1)) for k in range(len(poly.coef))])
        value_mono = np.sum(np.asarray(poly.coef) * mu)
        assert rel(value_cheb, value_mono) <= 1e-8


def test_chebyshev_moments_match_frozen_references():
    for sigma, expected in CHEBYSHEV_MOMENT_REFERENCES.items():
        q = chebyshev_power_moments(sigma, len(expected))
        assert np.max(np.abs(q - np.array(expected))) <= 2e-13 * abs(expected[0])


def test_weights_integrate_low_powers_exactly():
    # The rule is exact for polynomials of degree < n: u^k against u^(s-1)
    # gives 1/(s+k), and the reversed weights against the kernel
    # (1-u)^(s-1) give B(s, k+1).
    for n in (32, 64, 128, 256):
        u = np.asarray(cheb_nodes01(n))
        for s in (0.5 + 0j, 0.3 + 2j, 0.05 + 5j, 2.7 - 0.4j, 10 + 0j):
            w = np.asarray(_weights(s, n))
            for k in range(8):
                assert rel(np.sum(w * u**k), 1 / (s + k)) <= 1e-14
                assert rel(np.sum(w[::-1] * u**k), beta(s, k + 1.0)) <= 1e-12


def test_split_rule_integrates_powers_against_the_kernel():
    # The split rule's 2n weights dotted with u^(p+m) at its 2n nodes give
    # int_0^1 (1-u)^(s-1) u^(p+m) du = B(s, p+m+1): the left panel's power
    # weights absorb u^p, and both panels' cofactors are analytic.
    for n in (32, 64):
        for s in (0.5 + 0j, 1.25 + 0.75j, 2.5 - 1j, 0.3 + 3j):
            for p in (0j, 0.5 + 0j, -0.4 + 1j, 2.7 + 2j):
                nodes, weights = _rule(s, n, p)
                assert len(nodes) == len(weights) == 2 * n
                for m in range(21):
                    got = sum(w * complex_pow(u, p + m) for w, u in zip(weights, nodes))
                    assert rel(got, beta(s, p + m + 1.0)) <= 1e-13
    # Without a singular exponent the rule is the reversed kernel weights.
    assert _rule(0.5 + 1j, 32, None) == (cheb_nodes01(32), _weights(0.5 + 1j, 32)[::-1])


# ------------------------------------------------------------- integration


def test_integrate_monomial_half_order():
    got = integrate_numeric(monomial(1), 0.5, 1.0, 0.0)
    assert rel(got, 0.7522527780636751) <= 1e-12


def test_integrate_causal_constant():
    got = integrate_numeric(lambda y: 1 + 0j, 1.0, 2.0, 0.0)
    assert rel(got, 2.0) <= 1e-12


def test_integrate_complex_monomial_complex_order():
    p, s = 1 + 1j, 0.5 + 0.25j
    got = integrate_numeric(monomial(p), s, 1.5, 0.0, singular_exponent=p)
    assert rel(got, closed_J(p, s, 1.5)) <= 1e-8


def test_integrate_complex_monomial_without_hint_converges_when_asked_loosely():
    # Hint-free, the endpoint oscillation limits successive agreement to
    # ~1e-8 by the degree cap; with that tolerance the value is still good.
    p, s = 1 + 1j, 0.5 + 0.25j
    got = integrate_numeric(monomial(p), s, 1.5, 0.0, QuadConfig(rel_tol=1e-7))
    assert rel(got, closed_J(p, s, 1.5)) <= 1e-7


def test_integrate_oracle_agreement_100():
    rng = np.random.default_rng(52)
    worst = 0.0
    for _ in range(100):
        s = complex(rng.uniform(0.05, 3.0), rng.uniform(-2.0, 2.0))
        p = complex(rng.uniform(-0.5, 3.0), rng.uniform(-2.0, 2.0))
        x = rng.uniform(0.05, 5.0)
        got = integrate_numeric(monomial(p), s, x, 0.0, singular_exponent=p)
        worst = max(worst, rel(got, closed_J(p, s, x)))
    assert worst <= 1e-8


def qaws(f, s, x, p=0.0):
    """int_0^x y^p (x-y)^(s-1) f(y) dy / Gamma(s) by QUADPACK's QAWS
    (algebraic end-point weights), for real s and p."""
    value, _ = quad(f, 0.0, x, weight="alg", wvar=(p, s - 1.0), epsabs=0.0, epsrel=1e-12, limit=200)
    return value / math.gamma(s)


@pytest.mark.parametrize("s", [0.3, 0.8, 1.0, 1.7, 2.5])
def test_integrate_numeric_matches_qaws(s):
    # An independent outside reference for real orders: opaque integrands
    # against the kernel alone, power terms with y^p as the second weight.
    cfg = QuadConfig(rel_tol=1e-12)
    worst = 0.0
    for x in (0.5, 1.3, 3.0):
        for f in (lambda y: y * math.cos(2.0 * y), lambda y: math.sin(3.0 * y) + 0.5):
            worst = max(worst, rel(integrate_numeric(f, s, x, 0.0, cfg), qaws(f, s, x)))
        for p in (-0.5, 0.5, 2.3):
            got = integrate_numeric(monomial(p), s, x, 0.0, cfg, singular_exponent=p)
            worst = max(worst, rel(got, qaws(lambda y: 1.0, s, x, p)))
    assert worst <= 1e-11


# y^3 cos 2y and its first three derivatives.  f, f' and f'' vanish at 0, so
# D^s f = D^k J^(k-s) f = J^(k-s) f^(k) for k = floor(s) + 1 <= 3.
YCOS3 = (
    lambda y: y**3 * math.cos(2 * y),
    lambda y: 3 * y**2 * math.cos(2 * y) - 2 * y**3 * math.sin(2 * y),
    lambda y: (6 * y - 4 * y**3) * math.cos(2 * y) - 12 * y**2 * math.sin(2 * y),
    lambda y: (6 - 36 * y**2) * math.cos(2 * y) + (8 * y**3 - 36 * y) * math.sin(2 * y),
)


@pytest.mark.parametrize("s, x", [(s, x) for s in (0.3, 0.8, 1.5, 2.5) for x in (0.5, 1.3, 2.0)])
def test_opaque_derivative_matches_qaws(s, x):
    # An outside reference for derivatives: QAWS of the k-th derivative.
    k = math.floor(s) + 1
    f = OpaqueFunction(fn=lambda y: YCOS3[0](y) if y > 0 else 0.0)
    (r,) = apply(parse_operator(f"D^({s})"), f, [x], Method.NUMERIC)
    if r.status is EvalStatus.OK:
        assert rel(r.value, qaws(YCOS3[k], k - s, x)) <= 1e-9


def ycos_derivative(s, x, omega=1.5):
    """D^s of y cos(omega y) from 0, at x: its Taylor series mapped term by
    term by the Gamma ratio, in 30-digit mpmath."""
    with mpmath.workdps(30):
        s, x, w = mpmath.mpc(s), mpmath.mpf(x), mpmath.mpf(omega)
        return complex(
            mpmath.fsum(
                (-1) ** j * w ** (2 * j) * (2 * j + 1) * mpmath.power(x, 2 * j + 1 - s)
                * mpmath.rgamma(2 * j + 2 - s)
                for j in range(60)
            )
        )


@pytest.mark.parametrize(
    "op, s",
    [
        ("D^(3.000000000001)", 3.000000000001),
        ("D^(2.999999999999)", 2.999999999999),
        ("D^(2.99999999)", 2.99999999),
        ("D^(3+1e-12i)", 3 + 1e-12j),
        ("D^(3.99999999999)", 3.99999999999),
    ],
)
def test_opaque_derivative_at_near_integer_orders(op, s):
    # m! / Gamma(m+1-s) passes close to a pole for m < s.  The images are
    # entire there; a moment recurrence that divides by m+1-s is not.
    f = OpaqueFunction(fn=lambda y: y * math.cos(1.5 * y) if y > 0 else 0.0)
    for r in apply(parse_operator(op), f, [1.0, 2.0], Method.NUMERIC):
        assert r.status is EvalStatus.OK
        assert rel(r.value, ycos_derivative(s, r.x)) <= QuadConfig().rel_tol


@pytest.mark.parametrize("sigma", [0.5, 1.0, 0.01 + 3j, 2.5 - 1j, 0.3 + 10j, 6 + 2j])
def test_endpoint_images_continue_the_moments(sigma):
    # For Re(sigma) > 0, J^sigma T_m(2u - 1) at u = 1 is (-1)^m q_m / Gamma.
    images = _endpoint_images(complex(sigma))
    q = chebyshev_power_moments(sigma, len(images))
    expected = [(-1) ** m * q_m / gamma(sigma) for m, q_m in enumerate(q)]
    scale = max(map(abs, expected))
    assert max(abs(a - b) for a, b in zip(images, expected)) <= 1e-12 * scale


@pytest.mark.parametrize("k", range(7))
def test_endpoint_images_at_integer_derivative_orders(k):
    # D^k T_m(2u - 1) at u = 1 is 2^k T_m^(k)(1) = 2^k prod_(i<k) (m^2 - i^2) / (2i + 1).
    for m, image in enumerate(_endpoint_images(complex(-k))):
        expected = 2.0**k * math.prod((m * m - i * i) / (2 * i + 1) for i in range(k))
        if expected == 0:
            assert image == 0
        else:
            assert rel(image, expected) <= 1e-12


def test_plateau_cutoff_drops_only_rounding_noise():
    # Geometric decay to 2^-39, then noise at 1e-17: all 40 signal terms stay.
    noise = [1e-17 * (-1) ** m for m in range(24)]
    assert _plateau_cutoff([2.0**-m for m in range(40)] + noise) == 40
    # Algebraic decay reaches no plateau, so the expansion resolves nothing.
    assert _plateau_cutoff([1.0 / (m + 1) ** 2 for m in range(64)]) is None
    assert _plateau_cutoff([0.0] * 24) == 1


def test_integrate_linearity_at_fixed_degree():
    # One fixed-degree rule is a linear functional of the samples.
    s = 0.6 + 0.4j
    f = monomial(1.2 + 0.3j)
    g = monomial(0.4 - 1.0j)
    a, b = 2.0 - 1.0j, -0.7 + 0.2j

    def combo(u):
        return a * f(u) + b * g(u)

    nodes, weights = _rule(s, 48, None)

    def estimate(h):
        return _dot(weights, [h(u) for u in nodes])

    lhs = estimate(combo)
    rhs = a * estimate(f) + b * estimate(g)
    assert rel(lhs, rhs) <= 1e-12


def test_integrate_shifted_lower_limit():
    p, s, x0 = 0.5 + 1j, 0.75 + 0j, 2.0
    got = integrate_numeric(
        lambda y: complex_pow(y - x0, p), s, 3.5, x0, singular_exponent=p
    )
    assert rel(got, closed_J(p, s, 3.5 - x0)) <= 1e-10


def test_integrate_numeric_domain_errors():
    with pytest.raises(DomainError):
        integrate_numeric(monomial(1), -0.5, 1.0, 0.0)
    with pytest.raises(DomainError):
        integrate_numeric(monomial(1), 0.5, 0.0, 0.0)
    with pytest.raises(DomainError):
        integrate_numeric(monomial(1), 0.5, -1.0, 0.0)
    with pytest.raises(DomainError):
        integrate_numeric(monomial(1), 0.5, 1.0, 0.0, singular_exponent=-1.5)
    for x in (math.inf, math.nan):
        with pytest.raises(DomainError, match="integrate_numeric needs finite x"):
            integrate_numeric(monomial(1), 0.5, x, 0.0)


def test_chebyshev_derivative_domain_errors():
    f = lambda y: y * math.cos(2 * y)
    for s, x, x0 in ((-0.5, 1.0, 0.0), (0.5, 0.0, 0.0), (0.5, -1.0, 0.0)):
        with pytest.raises(DomainError, match="chebyshev_derivative needs"):
            chebyshev_derivative(f, s, x, x0)
    for x, x0 in ((math.inf, 0.0), (math.nan, 0.0), (1.0, -math.inf), (1.0, math.nan)):
        with pytest.raises(DomainError, match="chebyshev_derivative needs finite x and x0"):
            chebyshev_derivative(f, 0.5, x, x0)
    with pytest.raises(DomainError, match="not finite"):
        chebyshev_derivative(lambda y: math.inf, 0.5, 1.0, 0.0)


def test_convergence_error_carries_best_estimate():
    # A jump cannot be resolved by a global interpolant: the failure must
    # surface as ConvergenceError with diagnostics, never a silent value.
    step = lambda y: 1.0 + 0j if y > 0.6 else 0j
    with pytest.raises(ConvergenceError) as excinfo:
        integrate_numeric(step, 0.5, 1.0, 0.0, QuadConfig(rel_tol=1e-12))
    err = excinfo.value
    assert err.best_estimate is not None
    assert math.isfinite(err.achieved_rel_err)
    assert err.achieved_rel_err > 1e-12


def test_convergence_error_best_estimate_is_the_integral():
    # The best estimate carries the normalization (x-x0)^s/Gamma(s) of a
    # returned value, so it is within its own agreement of the exact
    # J^0.5 of the step, 3.5^0.5/Gamma(1.5).
    step = lambda y: 1.0 if y > 0.5 else 0.0
    with pytest.raises(ConvergenceError) as excinfo:
        integrate_numeric(step, 0.5, 4.0, 0.0)
    err = excinfo.value
    exact = 3.5**0.5 / math.gamma(1.5)
    assert rel(err.best_estimate, exact) <= err.achieved_rel_err


def test_convergence_bound_inequality():
    # |J^s(y^p)(x)| <= x^(Re s + p) / (Re s |Gamma(s)|) for real p >= 0.
    res = np.linspace(0.3, 2.7, 5)
    ims = (-1.4, 0.9)
    for re_s in res:
        for im_s in ims:
            s = complex(re_s, im_s)
            for p in np.linspace(0.0, 3.0, 4):
                for x in (0.5, 1.0, 2.0):
                    got = integrate_numeric(
                        monomial(p), s, x, 0.0, singular_exponent=complex(p)
                    )
                    bound = x ** (re_s + p) / (re_s * abs(gamma(s)))
                    assert abs(got) <= bound * (1 + 1e-9)


# ---------------------------------------------------------- differentiation


def test_differentiate_monomial_half_order():
    got = differentiate_numeric(monomial(1), 0.5, 1.0, 0.0, 1)
    assert rel(got, 1.1283791670955126) <= 1e-8


def test_differentiate_square_integer_order():
    got = differentiate_numeric(monomial(2), 1.0, 3.0, 0.0, 2)
    assert rel(got, 6.0) <= 1e-9


def test_differentiate_complex_order_vs_closed_form():
    p, s = 1 + 1j, 0.75 + 0.5j
    coef, exponent = power_image(p, -s)
    expected = coef * complex_pow(2.0, exponent)
    got = differentiate_numeric(monomial(p), s, 2.0, 0.0, 1, singular_exponent=p)
    assert rel(got, expected) <= 1e-6


def test_differentiate_k_independence():
    rng = np.random.default_rng(53)
    for _ in range(5):
        s = complex(rng.uniform(0.1, 1.8), rng.uniform(-1.0, 1.0))
        p = complex(rng.uniform(0.0, 2.5), rng.uniform(-1.0, 1.0))
        x = rng.uniform(1.0, 2.0)
        k = math.floor(s.real) + 1
        a = differentiate_numeric(monomial(p), s, x, 0.0, k, singular_exponent=p)
        b = differentiate_numeric(monomial(p), s, x, 0.0, k + 1, singular_exponent=p)
        assert rel(a, b) <= 1e-5


def test_central_derivative_evaluates_the_centre_node_once():
    # Three Richardson levels: k + 1 nodes per level, but an even k's centre
    # node x + 0*h is the same at every level.
    for k, expected_calls in ((1, 6), (2, 7), (3, 12)):
        calls = []

        def cubic(y):
            calls.append(y)
            return y**3

        got = central_derivative(cubic, 1.5, k)
        assert len(calls) == expected_calls
        assert rel(got, (3 * 1.5**2, 6 * 1.5, 6.0)[k - 1]) <= 1e-8


@pytest.mark.parametrize(
    "s, p, x, k",
    [
        (0.5, 1.5, 1.3, 1),
        (1.25 + 0.5j, 0.5, 2.0, 2),
        (2.5 - 0.3j, 1 + 1j, 1.7, 3),
        # The widest stencil node, x - h0/2 = 0.001, lies next to x0.
        (0.3 + 0.2j, 0.7 - 0.4j, 0.006, 1),
    ],
)
def test_differentiate_numeric_equals_separate_stencil_integrals(monkeypatch, s, p, x, k):
    # The stencil integrals walk the derivative ladder and take their rules
    # from the shared cache; each must equal a standalone integral on the
    # same ladder, which builds its own rules, to the last bit.
    cfg = QuadConfig(rel_tol=1e-9)
    inner_cfg = QuadConfig(rel_tol=max(1e-3 * cfg.rel_tol, 1e-13))
    got = differentiate_numeric(monomial(p), s, x, 0.0, k, cfg, singular_exponent=p)
    monkeypatch.setattr(quadrature, "_DEGREES", quadrature._DERIVATIVE_SIZES)

    def inner(u):
        return integrate_numeric(monomial(p), k - s, u, 0.0, inner_cfg, singular_exponent=p)

    assert got == central_derivative(inner, x, k, lower_limit=0.0)


@pytest.mark.parametrize("s", [0.5, 1.25 + 0.5j, 2.5 - 0.3j, 0.05 + 1.9j, 2.95])
def test_stencil_integrals_meet_a_tight_tolerance_on_the_first_rungs(s):
    # The cofactors of both split panels are analytic in the Bernstein
    # ellipse rho = 3 + 2*sqrt(2), so the sizes 24 and 32 of the derivative
    # ladder agree to 1e-12 already: 2 * (24 + 32) samples per integral.
    k = math.floor(s.real) + 1
    sigma = k - s
    for p in (-0.45, 0.5, 1 + 1j, 3, -0.3 - 1j, 2.9 + 0.9j):
        for u in (1e-3, 0.006, 0.5, 1.3, 3.4):
            samples = []

            def f(y):
                samples.append(y)
                return complex_pow(y, p)

            got = integrate_numeric(
                f, sigma, u, 0.0, QuadConfig(1e-12), singular_exponent=p, _shared=True
            )
            with mpmath.workdps(30):
                exact = complex(
                    mpmath.gamma(p + 1) * mpmath.rgamma(p + 1 + sigma) * mpmath.power(u, p + sigma)
                )
            assert rel(got, exact) <= 1e-12, (p, u)
            assert len(samples) == 2 * (24 + 32)


def test_differentiate_numeric_builds_left_panel_factors_once_per_size(monkeypatch):
    # A k = 3 derivative runs 12 stencil integrals, each on the derivative
    # ladder's sizes 24 and 32.  Each integral makes 1 power of its own,
    # (x - x0)^(k-s).  The rule of each size makes 2n + 2: the 2n left-panel
    # factors and the scales (1/2)^(p+1) and (1/2)^(k-s), built once for all
    # 12.  The shared rules start empty, so no earlier call has built them.
    quadrature._shared_rule.cache_clear()
    calls = [0]
    original = quadrature.complex_pow

    def counting(z, w):
        calls[0] += 1
        return original(z, w)

    monkeypatch.setattr(quadrature, "complex_pow", counting)
    p = 1.5
    got = differentiate_numeric(lambda y: y**p, 2.25, 1.5, 0.0, 3, singular_exponent=p)
    assert calls[0] == (2 * 24 + 2) + (2 * 32 + 2) + 12 * 1
    coef, exponent = power_image(p, -2.25)
    assert rel(got, coef * complex_pow(1.5, exponent)) <= 1e-6


def test_relaxed_inner_tightens_and_accepts_only_the_callers_tolerance(monkeypatch):
    # Every inner integral fails with best estimate u^2; the derivative
    # uses it only while its agreement meets the caller's rel_tol.
    seen = []
    achieved = [1e-10]

    def integral(f, s, u, x0, inner_cfg, *, singular_exponent=None, _shared=False):
        seen.append(inner_cfg.rel_tol)
        raise ConvergenceError("no", best_estimate=u * u + 0j, achieved_rel_err=achieved[0])

    monkeypatch.setattr(quadrature, "integrate_numeric", integral)
    cfg = QuadConfig(rel_tol=1e-9)
    got = differentiate_numeric(monomial(1), 0.5, 1.5, 0.0, 1, cfg)
    assert rel(got, 3.0) <= 1e-12
    achieved[0] = 1e-8
    with pytest.raises(ConvergenceError):
        differentiate_numeric(monomial(1), 0.5, 1.5, 0.0, 1, cfg)
    assert seen == pytest.approx([1e-12] * len(seen), rel=1e-15)
    achieved[0] = 0.0
    differentiate_numeric(monomial(1), 0.5, 1.5, 0.0, 1, QuadConfig(rel_tol=1e-12))
    assert seen[-1] == 1e-13


def test_differentiate_numeric_preconditions():
    with pytest.raises(DomainError):
        differentiate_numeric(monomial(1), 1.5, 1.0, 0.0, 1)  # k <= Re(s)
    with pytest.raises(DomainError):
        differentiate_numeric(monomial(1), -0.5, 1.0, 0.0, 1)
    with pytest.raises(DomainError):
        # stencil would cross the lower limit
        differentiate_numeric(monomial(1), 0.5, 0.001, 0.0, 1)


# ------------------------------------------------------- exponential tail


def test_exp_lower_inf_half_order_recorded_value():
    # Truncated-domain oracle (40-digit quadrature of the truncated
    # integral): erf(sqrt(40)) = 1.0 to double precision.
    got = integrate_exp_lower_inf(0.5, 0.0, QuadConfig(rel_tol=1e-12))
    assert rel(got, 1.0) <= 1e-10


def test_exp_lower_inf_complex_order_truncation_widens():
    got = integrate_exp_lower_inf(1 + 1j, 0.5, QuadConfig(rel_tol=1e-12))
    assert math.isfinite(got.real) and math.isfinite(got.imag)


def test_exp_lower_inf_commutes_with_translation():
    # The truncation T depends on the order only, so the rule translates.
    cfg = QuadConfig(rel_tol=1e-12)
    for s in (0.5, 1 + 1j, 2.5 - 2j, 0.2 + 3j):
        at_zero = integrate_exp_lower_inf(s, 0.0, cfg)
        for x in (-3.0, 0.7, 2.0, 10.0):
            got = integrate_exp_lower_inf(s, x, cfg)
            assert rel(got, math.exp(x) * at_zero) <= 1e-13


def test_exp_lower_inf_domain():
    with pytest.raises(DomainError):
        integrate_exp_lower_inf(-1.0, 0.0)
    with pytest.raises(DomainError):
        integrate_exp_lower_inf(0.5, math.inf)
