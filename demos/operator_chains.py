"""Operator chains, normalization, and grid evaluation with both backends.

Run:  python3 demos/operator_chains.py
"""

from complexorder import Method, apply, choose_k, normalize, parse_function, parse_operator

# Chains collapse to one net signed order sigma (the operator J^sigma) before
# evaluation.  A sigma with Re(sigma) <= 0 is a derivative of order -sigma,
# taken as D^k J^(k+sigma) with k = choose_k(-sigma).
for text in ("J^(0.5).J^(0.5)", "D^(0.5).J^(1+1i)", "D^(1.5)", "D^(0.6-0.4i).J^(0.6-0.4i)"):
    sigma = normalize(parse_operator(text)).sigma
    if sigma == 0:
        route = "identity"
    elif sigma.real > 0:
        route = "integral"
    else:
        k = choose_k(-sigma)
        route = f"derivative, k={k}: D^{k} J^{k + sigma}"
    print(f"{text:<26} -> sigma={sigma}, {route}")

# Evaluate a chain over a grid, numeric value against closed reference.
expr = parse_operator("D^(0.5).J^(1+1i)")
f = parse_function("(2+0i)*x^(0.5) + x^(1+1i)")
xs = [0.5, 1.0, 1.5, 2.0]

print("\nx      value                                rel err   status")
for r in apply(expr, f, xs, Method.BOTH):
    print(f"{r.x:<5}  {r.value!s:<35}  {r.rel_err:.1e}  {r.status.value}")

# Per-point isolation: a point at or below the lower limit reports its own
# domain error without spoiling the rest of the grid.
print("\ngrid with an out-of-domain point:")
for r in apply(parse_operator("J^(1)"), parse_function("x"), [-1.0, 1.0], Method.NUMERIC):
    print(f"  x={r.x}: status={r.status.value}, value={r.value}")
