"""Built-in property checks, runnable from the command line.

Each check exercises one of the structural identities the library is built
on, with seeded random sampling, and reports its worst observed metric
against a fixed threshold.  The acceptance suite runs ``check_semigroup``,
``check_left_inverse``, ``check_exp_lower_limit`` and ``check_moments`` as
its criteria 3, 4, 6 and 9 and pins their thresholds.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import namedtuple
from typing import Callable

from .closed_form import power_image
from .functions import CausalFunction, PowerTerm
from .quadrature import (
    QuadConfig,
    _dot,
    _nodes,
    _weights,
    differentiate_numeric,
    integrate_exp_lower_inf,
    integrate_numeric,
)
from .special import beta, complex_pow, gamma

__all__ = ["CHECKS", "CheckResult", "run_selftests"]


class CheckResult(namedtuple("CheckResult", "name passed metric threshold")):
    """One check: its name, verdict, worst observed metric and threshold."""

    __slots__ = ()


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _sample_regular(rng, lo: float, hi: float) -> complex:
    # A point with Re in [lo, hi], |Im| <= 2, away from the real poles of
    # Gamma on both sides of a reflection.
    while True:
        z = complex(rng.uniform(lo, hi), rng.uniform(-2.0, 2.0))
        if abs(z.imag) > 0.05:
            return z
        near = min(abs(z.real - round(z.real)), abs((1 - z).real - round((1 - z).real)))
        if near > 0.05:
            return z


def check_gamma_recurrence(rng) -> CheckResult:
    worst = 0.0
    for _ in range(200):
        z = _sample_regular(rng, -5.0, 20.0)
        worst = max(worst, _rel(gamma(z + 1), z * gamma(z)))
    return CheckResult("gamma_recurrence", worst <= 1e-10, worst, 1e-10)


def check_gamma_reflection(rng) -> CheckResult:
    worst = 0.0
    for _ in range(200):
        z = _sample_regular(rng, -5.0, 5.0)
        lhs = gamma(z) * gamma(1.0 - z)
        rhs = math.pi / cmath.sin(math.pi * z)
        worst = max(worst, _rel(lhs, rhs))
    return CheckResult("gamma_reflection", worst <= 1e-10, worst, 1e-10)


def _poly_handle(x0: float = 0.0):
    f = CausalFunction(terms=(PowerTerm(1, 2), PowerTerm(1, 1)), lower_limit=x0)
    return f


def check_semigroup(rng) -> CheckResult:
    f = _poly_handle()
    cfg = QuadConfig()
    worst = 0.0
    for s1, s2 in ((0.7 + 0j, 0.6 + 0j), (0.5 + 0.25j, 0.5 - 0.25j)):
        for x in (0.5, 1.0, 2.0):
            def inner(u: float) -> complex:
                return integrate_numeric(f, s2, u, 0.0, cfg) if u > 0 else 0j

            nested = integrate_numeric(inner, s1, x, 0.0, cfg)
            direct = integrate_numeric(f, s1 + s2, x, 0.0, cfg)
            worst = max(worst, _rel(nested, direct))
    return CheckResult("semigroup", worst <= 1e-6, worst, 1e-6)


def check_left_inverse(rng) -> CheckResult:
    s = 0.5 + 0.25j
    p = 1 + 1j
    cfg = QuadConfig()
    worst = 0.0
    for x in (0.5, 1.5):
        def inner(u: float) -> complex:
            if u <= 0:
                return 0j
            return integrate_numeric(
                lambda y: complex_pow(y, p), s, u, 0.0, cfg, singular_exponent=p
            )

        # The inner image behaves like y^(p+s) at 0; pass that on.
        got = differentiate_numeric(inner, s, x, 0.0, 1, cfg, singular_exponent=p + s)
        worst = max(worst, _rel(got, complex_pow(x, p)))
    return CheckResult("left_inverse", worst <= 1e-5, worst, 1e-5)


def check_k_independence(rng) -> CheckResult:
    cfg = QuadConfig()
    worst = 0.0
    for _ in range(5):
        s = complex(rng.uniform(0.1, 1.9), rng.uniform(-1.0, 1.0))
        p = complex(rng.uniform(0.0, 2.0), rng.uniform(-1.0, 1.0))
        x = rng.uniform(1.0, 2.0)
        k = math.floor(s.real) + 1

        def fn(y: float) -> complex:
            return complex_pow(y, p)

        a = differentiate_numeric(fn, s, x, 0.0, k, cfg, singular_exponent=p)
        b = differentiate_numeric(fn, s, x, 0.0, k + 1, cfg, singular_exponent=p)
        worst = max(worst, _rel(a, b))
    return CheckResult("k_independence", worst <= 1e-5, worst, 1e-5)


def check_convergence_bound(rng) -> CheckResult:
    # |J^s(x^p)(x)| <= x^(Re s + p) / (Re s |Gamma(s)|), real p >= 0.
    cfg = QuadConfig()
    worst = 0.0
    for _ in range(12):
        s = complex(rng.uniform(0.3, 2.5), rng.uniform(-1.5, 1.5))
        p = rng.uniform(0.0, 3.0)
        x = rng.uniform(0.25, 2.0)
        val = integrate_numeric(
            lambda y: complex_pow(y, p), s, x, 0.0, cfg, singular_exponent=p
        )
        bound = x ** (s.real + p) / (s.real * abs(gamma(s)))
        ratio = abs(val) / bound
        worst = max(worst, ratio)
    return CheckResult("convergence_bound", worst <= 1.0 + 1e-9, worst, 1.0 + 1e-9)


def check_exp_lower_limit(rng) -> CheckResult:
    cfg = QuadConfig(rel_tol=1e-12)
    worst = 0.0
    for s in (1.0 + 0j, 2.0 + 0j):
        for x in (0.0, 1.0):
            got = integrate_exp_lower_inf(s, x, cfg)
            worst = max(worst, _rel(got, math.exp(x)))
    return CheckResult("exp_lower_limit", worst <= 1e-10, worst, 1e-10)


def check_moments(rng) -> CheckResult:
    # The kernel weights (the power weights reversed) integrate u^k, k < 64,
    # against (1-u)^(s-1) exactly: B(s, k+1).
    worst = 0.0
    nodes = _nodes(64)
    for s in (0.5 + 0j, 1 + 1j, 0.25 + 2j):
        kernel = _weights(s, 64)[::-1]
        for k in range(64):
            mu = _dot(kernel, [u**k for u in nodes])
            worst = max(worst, _rel(mu, beta(s, k + 1.0)))
    return CheckResult("moment_recurrence", worst <= 1e-12, worst, 1e-12)


def check_closed_semigroup(rng) -> CheckResult:
    worst = 0.0
    for _ in range(50):
        s1 = complex(rng.uniform(0.1, 1.2), rng.uniform(-2.0, 2.0))
        s2 = complex(rng.uniform(0.1, 1.2), rng.uniform(-2.0, 2.0))
        p = complex(rng.uniform(-0.5, 3.0), rng.uniform(-2.0, 2.0))
        c1, e1 = power_image(p, s2)
        c2, _ = power_image(e1, s1)
        c_direct, _ = power_image(p, s1 + s2)
        worst = max(worst, _rel(c1 * c2, c_direct))
        # Nested differentiation needs the intermediate exponent to stay
        # above -1, so draw p clear of the boundary on this branch.
        pd = p + 1.7
        d1, f1 = power_image(pd, -s2)
        d2, _ = power_image(f1, -s1)
        d_direct, _ = power_image(pd, -(s1 + s2))
        if abs(d_direct) > 1e-8:
            worst = max(worst, _rel(d1 * d2, d_direct))
    return CheckResult("closed_semigroup", worst <= 1e-11, worst, 1e-11)


CHECKS: list[tuple[str, Callable]] = [
    ("gamma_recurrence", check_gamma_recurrence),
    ("gamma_reflection", check_gamma_reflection),
    ("closed_semigroup", check_closed_semigroup),
    ("moment_recurrence", check_moments),
    ("semigroup", check_semigroup),
    ("left_inverse", check_left_inverse),
    ("k_independence", check_k_independence),
    ("convergence_bound", check_convergence_bound),
    ("exp_lower_limit", check_exp_lower_limit),
]


def run_selftests(seed: int = 0, name_filter: str | None = None) -> list[CheckResult]:
    """Run the checks (optionally filtered by substring), deterministically."""
    results = []
    for name, check in CHECKS:
        if name_filter and name_filter not in name:
            continue
        rng = random.Random(seed)
        results.append(check(rng))
    return results
