"""Independent references, computed with mpmath at 30 digits.

Nothing here imports the program.  For a net signed order sigma (sigma > 0
is an integral, sigma < 0 a derivative of order -sigma), the Riemann-
Liouville image of a power is

    (x - x0)^p  ->  Gamma(p+1) / Gamma(p+1+sigma) * (x - x0)^(p+sigma),

with 1/Gamma entire, so a pole of the denominator gives exactly 0.

* power sums: term by term through that Gamma ratio;
* opaque integrands (y cos(w y), sin(w y)): their Taylor series at 0, mapped
  term by term by the same ratio; 1/Gamma(m+1+sigma) for successive m comes
  from one rgamma and the recurrence 1/Gamma(z+1) = 1/Gamma(z) / z;
* c e^x from -inf: exactly c e^x for every order.

Error rule (``passes``): a value passes when |v - ref| <= rel_tol |ref|.
When the reference is exactly zero (every term annihilated by a pole, as in
D^1.5 x^0.5), relative error is undefined; the value then passes when
|v| <= rel_tol * scale, where scale is what the image would have with every
Gamma ratio set to one: sum |c| (x - x0)^Re(p + sigma).
"""

from __future__ import annotations

import mpmath

_ctx = mpmath.MPContext()
_ctx.dps = 30


def _mpc(z: complex):
    return _ctx.mpc(z.real, z.imag)


def _power_images(terms, sigma: complex):
    """Per term: (coefficient times Gamma ratio, image exponent)."""
    s = _mpc(sigma)
    out = []
    for c, p in terms:
        pm = _mpc(p)
        out.append((_mpc(c) * _ctx.gamma(pm + 1) * _ctx.rgamma(pm + 1 + s), pm + s))
    return out


def _taylor(form: str, omega: float, sigma: complex, x_max: float):
    """Coefficients b_k with image(x) = x^sigma * sum_k b_k x^(2k+1)."""
    s = _mpc(sigma)
    w = _ctx.mpf(omega)
    # Terms of the series fall below 1e-40 of the largest once
    # (w x)^(2k) / (2k)! does; bound k from w * x_max.
    kmax = int(3.0 * omega * x_max) + 40
    rg = _ctx.rgamma(s + 2)  # 1/Gamma(m+1+sigma) at m = 1
    coefs = []
    sign = 1
    for k in range(kmax):
        m = 2 * k + 1
        if form == "ycos":  # y cos(w y) = sum (-1)^k w^(2k) y^(2k+1) / (2k)!
            a_times_mfact = sign * w ** (2 * k) * m
        else:  # sin(w y) = sum (-1)^k w^(2k+1) y^(2k+1) / (2k+1)!
            a_times_mfact = sign * w ** m
        coefs.append(a_times_mfact * rg)
        rg = rg / ((m + 1 + s) * (m + 2 + s))
        sign = -sign
    return coefs


def references(req) -> list[tuple[complex, float]]:
    """(reference, zero-reference scale) for every point of ``req``."""
    sigma = req.sigma
    out = []
    if req.kind == "exp":
        c = _mpc(req.exp_coef)
        return [(complex(c * _ctx.exp(x)), 0.0) for x in req.xs]
    if req.kind == "opaque":
        form, omega = req.opaque
        coefs = _taylor(form, omega, sigma, max(req.xs))
        s = _mpc(sigma)
        for x in req.xs:
            xm = _ctx.mpf(x)
            x2 = xm * xm
            acc = _ctx.mpc(0)
            for b in reversed(coefs):
                acc = acc * x2 + b
            out.append((complex(acc * xm * _ctx.power(xm, s)), 0.0))
        return out
    images = _power_images(req.terms, sigma)
    for x in req.xs:
        xm = _ctx.mpf(x - req.x0)
        ref = _ctx.mpc(0)
        scale = 0.0
        for (c, _), (coef, e) in zip(req.terms, images):
            ref += coef * _ctx.power(xm, e)
            scale += abs(c) * float(x - req.x0) ** (e.real)
        out.append((complex(ref), float(scale)))
    return out


def passes(value: complex, ref: complex, scale: float, rel_tol: float) -> bool:
    """The error rule in the module docstring."""
    if ref != 0:
        return abs(value - ref) <= rel_tol * abs(ref)
    return abs(value) <= rel_tol * scale
