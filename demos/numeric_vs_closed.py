"""Quadrature backend against the exact Gamma-ratio forms.

The kernel (1-u)^(s-1) is weakly singular and oscillates infinitely fast at
u = 1 when Im(s) != 0, so sample-based rules cannot touch it; the engine
integrates a Chebyshev interpolant against exact kernel moments instead.

Run:  python3 demos/numeric_vs_closed.py
"""

import math

from complexorder import (
    Method,
    OpaqueFunction,
    QuadConfig,
    apply,
    complex_pow,
    integrate_numeric,
    parse_operator,
    power_image,
)


def closed(p, s, x):
    coef, exponent = power_image(p, s)
    return coef * complex_pow(x, exponent)


print("order s = 0.5+0.25i on f(y) = y^(1+1i), lower limit 0")
p, s = 1 + 1j, 0.5 + 0.25j
for x in (0.5, 1.0, 2.0, 4.0):
    numeric = integrate_numeric(lambda y: complex_pow(y, p), s, x, 0.0, singular_exponent=p)
    exact = closed(p, s, x)
    print(f"  x={x:<4}: numeric={numeric:.12f}  rel err={abs(numeric-exact)/abs(exact):.2e}")

# Even unbounded integrands are fine once their endpoint power is declared:
# f(y) = y^(-0.4+1.7i) blows up at 0, but the p-factor is handled exactly.
print("\nsingular integrand y^(-0.4+1.7i), order 2.3+1.5i")
p, s = -0.4 + 1.7j, 2.3 + 1.5j
numeric = integrate_numeric(lambda y: complex_pow(y, p), s, 1.0, 0.0, singular_exponent=p)
exact = closed(p, s, 1.0)
print(f"  rel err = {abs(numeric-exact)/abs(exact):.2e}")

# The same machinery on an opaque smooth function: J^0.8 of y*cos(y).
print("\nopaque integrand y*cos(y), order 0.8 (no structure declared)")
value = integrate_numeric(lambda y: complex(y * math.cos(y), 0.0), 0.8, 2.0, 0.0)
print("  J^0.8(y cos y)(2) =", value)

# A derivative of an opaque integrand: its Chebyshev expansion on [0, x],
# each term mapped exactly by its moment image continued to order -1.5,
# with no finite differences.
# Reference: f(0) = 0 and f'(0) = 1, so D^1.5 f = J^0.5 f'' + x^-0.5/Gamma(0.5),
# with f'' = -2 sin y - y cos y.
print("\nopaque integrand y*cos(y), order D^1.5")
samples = []


def ycos(y):
    samples.append(y)
    return y * math.cos(y) if y > 0 else 0.0


(row,) = apply(parse_operator("D^(1.5)"), OpaqueFunction(ycos), [2.0], Method.NUMERIC)
second = integrate_numeric(lambda y: -2.0 * math.sin(y) - y * math.cos(y), 0.5, 2.0, 0.0)
exact = second + 2.0**-0.5 / math.gamma(0.5)
print(f"  D^1.5(y cos y)(2) = {row.value.real:.12f}  rel err={abs(row.value - exact) / abs(exact):.2e}"
      f"  integrand calls={len(samples)}")

# Convergence control: degree doubles until two estimates agree to rel_tol.
print("\ntighter tolerances on J^(0.9)(y^2.5)(1):")
for tol in (1e-6, 1e-9, 1e-12):
    got = integrate_numeric(
        lambda y: complex_pow(y, 2.5), 0.9, 1.0, 0.0,
        QuadConfig(rel_tol=tol), singular_exponent=2.5,
    )
    exact = closed(2.5 + 0j, 0.9 + 0j, 1.0)
    print(f"  rel_tol={tol:.0e}: rel err={abs(got-exact)/abs(exact):.2e}")
