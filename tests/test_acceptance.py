"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a single PASS line with its worst observed metric; every
tolerance is pinned here, not configurable.  Criteria 3, 4, 6 and 9 run the
``complexorder selftest`` checks of the same identities and pin their
thresholds.
"""

import cmath
import math
import random
import subprocess
import sys
import time

import numpy as np

from complexorder import (
    CausalFunction,
    EvalStatus,
    Method,
    OperatorExpr,
    OperatorStage,
    OpKind,
    PowerTerm,
    QuadConfig,
    apply,
    complex_pow,
    differentiate_numeric,
    gamma,
    integrate_numeric,
    power_image,
)
from complexorder.selftest import (
    check_exp_lower_limit,
    check_left_inverse,
    check_moments,
    check_semigroup,
)

from oracles import GAMMA_REFERENCES


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def monomial(p):
    return lambda y: complex_pow(y, p)


def _report(n, label, metric):
    print(f"ACCEPTANCE {n} PASS: {label} (worst {metric:.3e})")


def _pin_selftest_check(n, check, threshold, label):
    result = check(random.Random(0))
    assert result.threshold == threshold
    assert result.passed
    _report(n, label, result.metric)


def test_criterion_1_integral_closed_form_reproduction():
    rng = np.random.default_rng(1001)
    cfg = QuadConfig()
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(100):
        s = complex(rng.uniform(0.005, 3.0), rng.uniform(-2.0, 2.0))
        p = complex(rng.uniform(-0.5, 3.0), rng.uniform(-2.0, 2.0))
        expr = OperatorExpr(stages=(OperatorStage(OpKind.INTEGRAL, s),))
        f = CausalFunction(terms=(PowerTerm(1, p),))
        for r in apply(expr, f, [0.5, 1.0, 2.0], Method.BOTH, cfg):
            assert r.status is EvalStatus.OK
            worst = max(worst, r.rel_err)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed <= 5.0
    _report(1, f"numeric J^s on powers matches Gamma-ratio form in {elapsed:.2f}s", worst)


def test_criterion_2_derivative_reproduction_with_k_independence():
    rng = np.random.default_rng(1002)
    cfg = QuadConfig()
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(25):
        s = complex(rng.uniform(0.05, 3.0), rng.uniform(-1.5, 1.5))
        p = complex(rng.uniform(-0.4, 3.0), rng.uniform(-2.0, 2.0))
        x = rng.uniform(1.0, 2.0)
        coef, exponent = power_image(p, -s)
        expected = coef * complex_pow(x, exponent)
        k = math.floor(s.real) + 1
        for kk in (k, k + 1):
            got = differentiate_numeric(
                monomial(p), s, x, 0.0, kk, cfg, singular_exponent=p
            )
            worst = max(worst, rel(got, expected))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-5
    assert elapsed <= 10.0
    _report(2, f"numeric D^s with k and k+1 matches closed form in {elapsed:.2f}s", worst)


def test_criterion_3_semigroup():
    _pin_selftest_check(3, check_semigroup, 1e-6, "nested J^s1 J^s2 equals J^(s1+s2)")


def test_criterion_4_left_inverse_full_numeric():
    _pin_selftest_check(
        4, check_left_inverse, 1e-5, "numeric D^s undoes numeric J^s on a complex power"
    )


def test_criterion_5_first_derivative_lowers_order():
    f = lambda y: complex(y * y + y, 0.0)
    s = 1.5 + 0.5j
    x, h = 1.0, 1e-4
    fd = (
        integrate_numeric(f, s, x + h, 0.0) - integrate_numeric(f, s, x - h, 0.0)
    ) / (2.0 * h)
    direct = integrate_numeric(f, s - 1.0, x, 0.0)
    worst = rel(fd, direct)
    assert worst <= 1e-5
    _report(5, "central-difference D^1 of J^s samples equals J^(s-1)", worst)


def test_criterion_6_exponential_eigenfunction():
    _pin_selftest_check(
        6, check_exp_lower_limit, 1e-10, "integer-order integrals from -inf reproduce exp"
    )


def test_criterion_7_gamma_engine():
    worst_ref = 0.0
    for z, expected in GAMMA_REFERENCES:
        worst_ref = max(worst_ref, rel(gamma(z), expected))
    assert worst_ref <= 1e-12

    rng = np.random.default_rng(1007)
    worst_inv = 0.0
    count = 0
    while count < 200:
        z = complex(rng.uniform(-5.0, 20.0), rng.uniform(-2.0, 2.0))
        if abs(z.imag) < 0.05 and (
            abs(z.real - round(z.real)) < 0.05
            or abs((1 - z).real - round((1 - z).real)) < 0.05
        ):
            continue
        count += 1
        worst_inv = max(worst_inv, rel(gamma(z + 1), z * gamma(z)))
        if abs(z.real) < 6:
            refl = gamma(z) * gamma(1 - z)
            worst_inv = max(worst_inv, rel(refl, math.pi / cmath.sin(math.pi * z)))
    assert worst_inv <= 1e-10
    _report(7, "gamma references to 1e-12, identities to 1e-10", max(worst_ref, worst_inv))


def test_criterion_8_convergence_bound():
    worst = 0.0
    s_grid = [
        complex(re, im)
        for re, im in zip(
            np.linspace(0.3, 2.85, 10),
            np.tile([-1.6, 0.7], 5),
        )
    ]
    for s in s_grid:
        for p in np.linspace(0.0, 4.5, 10):
            for x in (0.5, 1.0, 2.0):
                got = integrate_numeric(
                    monomial(p), s, x, 0.0, singular_exponent=complex(p)
                )
                bound = x ** (s.real + p) / (s.real * abs(gamma(s)))
                ratio = abs(got) / (bound * (1.0 + 1e-9))
                worst = max(worst, ratio)
                assert ratio <= 1.0
    _report(8, "|J^s(x^p)| within the absolute-convergence bound", worst)


def test_criterion_9_moment_recurrence_vs_beta():
    _pin_selftest_check(
        9, check_moments, 1e-12, "kernel weights reproduce the beta moments for N=64"
    )


def test_criterion_10_cli_determinism():
    eval_cmd = [
        sys.executable, "-m", "complexorder", "eval",
        "--op", "D^(0.5).J^(1+1i)",
        "--fn", "(2+0i)*x^(0.5) + x^(1+1i)",
        "--grid", "0.5:2:5",
        "--method", "both",
        "--seed", "42",
    ]
    selftest_cmd = [sys.executable, "-m", "complexorder", "selftest", "--seed", "42"]
    for cmd in (eval_cmd, selftest_cmd):
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout  # non-empty output
    _report(10, "eval and selftest output byte-identical across runs", 0.0)
