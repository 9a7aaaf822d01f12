"""The exponential as an eigenfunction: lower limit pushed to -inf.

With a finite lower limit no function can be an eigenfunction of J^s (the
causal cutoff breaks translation invariance).  Sending the lower limit to
-inf restores it for e^x at every order: Euler's integral
Gamma(s) = int_0^inf t^(s-1) e^-t dt gives J^s e^x = e^x for Re(s) > 0, and
D^s = D^k J^(k-s) then leaves e^x unchanged too.  The closed-form backend
asserts this and the truncated-tail quadrature reproduces it to ~1e-12.

Run:  python3 demos/exponential_eigenfunction.py
"""

import math

from complexorder import (
    Method,
    QuadConfig,
    apply,
    integrate_exp_lower_inf,
    parse_function,
    parse_operator,
)

cfg = QuadConfig(rel_tol=1e-12)

print("numeric J^n(e^x) from -inf vs e^x:")
for s in (1.0, 2.0, 3.0):
    for x in (0.0, 1.0):
        got = integrate_exp_lower_inf(s, x, cfg)
        print(f"  n={s:.0f}, x={x}: value={got.real:.15f}  rel err={abs(got-math.exp(x))/math.exp(x):.1e}")

# The whole pipeline, via the operator layer (closed + numeric agree):
expr = parse_operator("J^(2)", lower_limit=-math.inf)
f = parse_function("exp(x)", lower_limit=-math.inf)
(r,) = apply(expr, f, [1.0], Method.BOTH, cfg)
print(f"\nJ^2(e^x)(1) numeric={r.value}, closed={r.reference}, rel err={r.rel_err:.1e}")

# Non-integer and complex orders: the closed image is still e^x, and the
# numeric value (one quadrature at x = 0, scaled by e^x) agrees with it.
print()
for op in ("J^(0.5)", "D^(1.5+1i)"):
    expr = parse_operator(op, lower_limit=-math.inf)
    for r in apply(expr, f, [0.0, 1.0], Method.BOTH):
        print(f"{op}(e^x)({r.x}): status={r.status.value}, numeric={r.value:.15f}, rel err={r.rel_err:.1e}")
