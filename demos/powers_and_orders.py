"""Closed-form action of J^s and D^s on power functions.

Both are one rule in the signed order sigma: J^s is power_image(p, s) and
D^s is power_image(p, -s), for every complex order.

Run:  python3 demos/powers_and_orders.py
"""

from complexorder import (
    apply_closed,
    parse_function,
    parse_operator,
    power_image,
)

# The classical ladder: J^1 x = x^2/2, and the half-order step in between.
print("J^1   on x :", power_image(1 + 0j, 1 + 0j))
print("J^0.5 on x :", power_image(1 + 0j, 0.5 + 0j))
print("D^0.5 on x :", power_image(1 + 0j, -0.5 + 0j))

# Applying D^0.5 twice reproduces the ordinary derivative of x: constant 1.
c1, e1 = power_image(1 + 0j, -0.5 + 0j)
c2, e2 = power_image(e1, -0.5 + 0j)
print("D^0.5 twice:", (c1 * c2, e2), " (= D^1 x = 1)")

# A genuinely complex order on a genuinely complex power.
print("\nJ^(0.5+0.25i) on x^(1+1i):", power_image(1 + 1j, 0.5 + 0.25j))

# Orders with Re <= 0 follow the same rule: J^(1i) is a pure rotation in
# log x, and J^(-0.5) is D^0.5.
print("J^(0+1i) on x :", power_image(1 + 0j, 1j))
print("J^(-0.5) on x :", power_image(1 + 0j, -0.5 + 0j))

# Whole chains work symbolically: the order algebra collapses them first.
f = parse_function("(2+0i)*x^(0.5) + x^(1+1i)")
chain = parse_operator("D^(0.25).J^(1.25)")  # net integral of order 1
image = apply_closed(chain, f)
print("\nf          :", f.render())
print("net J^1 f  :", image.render())

# D^2 annihilates x: the Gamma-ratio coefficient hits a pole and is 0,
# leaving the zero function (rendered in its canonical form below).
print("\nD^2 x      :", apply_closed(parse_operator("D^(2)"), parse_function("x")).render())

# Exact inverse law on the nose: D^s J^s f = f.
roundtrip = apply_closed(parse_operator("D^(0.7+0.3i).J^(0.7+0.3i)"), f)
print("D^s J^s f == f :", roundtrip == f)
