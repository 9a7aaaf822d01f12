"""Generate the frozen operator references at the end of ``oracles.py``.

Run ``python tests/gen_operator_references.py`` and replace everything from
the ``GATE_POINTS`` line to the end of ``oracles.py`` with its output.  It
imports nothing from the package: every reference is an mpmath evaluation,
at 40 working digits, of the Riemann-Liouville image of signed order sigma
(sigma > 0 an integral J^sigma, sigma < 0 a derivative D^-sigma),

    (x - x0)^p  ->  Gamma(p+1) / Gamma(p+1+sigma) * (x - x0)^(p+sigma),

* power sums: term by term through that Gamma ratio;
* y cos(w y) and sin(w y) from 0: their Taylor series at 0, mapped term by
  term by the same ratio (an entire function of x, so the series converges
  for every x; it is summed until the terms fall below 1e-45 of the sum);
* c e^x from -inf: c e^x at every order;
* ``HIGH_ORDER_OPAQUE``: a few opaque derivatives at Re s >= 3, one point
  each, by the same series.

Each value is rounded to the nearest double, which is within 1.2e-16
relative of the 30-digit value.
"""

import mpmath

mp = mpmath.mp
mp.dps = 40

#: 16 log-spaced points in [0.01, 2].
POINTS = tuple(0.01 * 200.0 ** (i / 15) for i in range(16))

# (operator text, its net signed order sigma)
INTEGRALS = (
    ("J^(0.2-2i)", 0.2 - 2j),
    ("J^(0.5+1i)", 0.5 + 1j),
    ("J^(2.3-0.7i)", 2.3 - 0.7j),
    ("J^(3)", 3),
)
DERIVATIVES = (
    ("D^(0.3)", -0.3),
    ("D^(0.5+0.5i)", -0.5 - 0.5j),
    ("D^(1.5)", -1.5),
    ("D^(2.5+1i)", -2.5 - 1j),
)
# Opaque derivatives also at the edges of the benchmark's orders
# (Re in [0, 3), Im in [-2, 2]).
OPAQUE_DERIVATIVES = DERIVATIVES + (
    ("D^(2.9-1.5i)", -2.9 + 1.5j),
    ("D^(0.05+1.9i)", -0.05 - 1.9j),
)

# (integrand as the tests build it, its terms (coefficient, exponent))
POWER_SUMS = (
    ("x^(1.5)", ((1, 1.5),)),
    ("x^(0.3+0.4i)", ((1, 0.3 + 0.4j),)),
    ("(2-1i)*x^(0.7) + x^(2.5+0.3i)", ((2 - 1j, 0.7), (1, 2.5 + 0.3j))),
)
OPAQUE = (("ycos", 2.0), ("sin", 3.0))
# Opaque derivatives past the benchmark's orders, at Re s >= 3:
# (operator text, its net signed order sigma, integrand, x).
HIGH_ORDER_OPAQUE = (
    ("D^(5.0-0.64i)", -5.0 + 0.64j, ("sin", 3.16), 1.85),
    ("D^(5.0+1.3i)", -5.0 - 1.3j, ("sin", 3.16), 1.85),
    ("D^(4.2-0.64i)", -4.2 + 0.64j, ("sin", 3.16), 0.9),
)
EXPONENTIALS = (("exp(x)", 1), ("(2-1i)*exp(x)", 2 - 1j))


def power_image(terms, sigma, x):
    s = mpmath.mpc(sigma)
    return mpmath.fsum(
        mpmath.mpc(c) * mpmath.gamma(mpmath.mpc(p) + 1) * mpmath.rgamma(mpmath.mpc(p) + 1 + s)
        * mpmath.power(x, mpmath.mpc(p) + s)
        for c, p in terms
    )


def opaque_image(form, omega, sigma, x):
    # y cos(w y) = sum_k (-1)^k w^(2k) (2k+1) y^(2k+1) / (2k+1)!
    # sin(w y)   = sum_k (-1)^k w^(2k+1) y^(2k+1) / (2k+1)!
    # and y^m / m! -> x^(m+sigma) / Gamma(m+1+sigma).
    s = mpmath.mpc(sigma)
    w = mpmath.mpf(omega)
    x = mpmath.mpf(x)
    total = mpmath.mpc(0)
    k = 0
    while True:
        m = 2 * k + 1
        a = w ** (2 * k) * m if form == "ycos" else w**m
        term = (-1) ** k * a * mpmath.power(x, m + s) * mpmath.rgamma(m + 1 + s)
        total += term
        if k > w * x and abs(term) < mpmath.mpf(10) ** -45 * abs(total):
            return total
        k += 1


def _c(z) -> str:
    z = complex(z)
    return f"complex({z.real!r}, {z.imag!r})"


def main() -> None:
    cases = {}
    for name, ops in (("J", INTEGRALS), ("D", DERIVATIVES)):
        cases["power", name] = [
            (op, text, 0.0, [power_image(terms, sigma, x) for x in POINTS])
            for op, sigma in ops
            for text, terms in POWER_SUMS
        ]
        cases["opaque", name] = [
            (op, (form, omega), 0.0, [opaque_image(form, omega, sigma, x) for x in POINTS])
            for op, sigma in (OPAQUE_DERIVATIVES if name == "D" else ops)
            for form, omega in OPAQUE
        ]
        cases["exp", name] = [
            (op, text, "-inf", [mpmath.mpc(c) * mpmath.exp(x) for x in POINTS])
            for op, _ in ops
            for text, c in EXPONENTIALS
        ]
    print("#: Evaluation points of the operator references: 16 log-spaced in [0.01, 2].")
    print("GATE_POINTS = (")
    for x in POINTS:
        print(f"    {x!r},")
    print(")")
    print()
    print("#: J^sigma and D^s images at GATE_POINTS, keyed by (family, \"J\" or \"D\").")
    print("#: A case is (operator, integrand, lower limit, references); an integrand is")
    print("#: grammar text, or (\"ycos\", w) for y cos(w y) and (\"sin\", w) for sin(w y),")
    print("#: both from 0.  Generated by gen_operator_references.py (30-digit mpmath).")
    print("OPERATOR_REFERENCES = {")
    for key, entries in cases.items():
        print(f"    {key!r}: [")
        for op, integrand, x0, refs in entries:
            lower = 'float("-inf")' if x0 == "-inf" else repr(x0)
            print(f"        ({op!r}, {integrand!r}, {lower}, (")
            for ref in refs:
                print(f"            {_c(ref)},")
            print("        )),")
        print("    ],")
    print("}")
    print()
    print("#: D^s images of opaque integrands from 0 at Re s >= 3, as (operator,")
    print("#: integrand, x, reference).  Generated by gen_operator_references.py.")
    print("HIGH_ORDER_OPAQUE_REFERENCES = [")
    for op, sigma, (form, omega), x in HIGH_ORDER_OPAQUE:
        print(f"    ({op!r}, {(form, omega)!r}, {x!r}, {_c(opaque_image(form, omega, sigma, x))}),")
    print("]")


if __name__ == "__main__":
    main()
