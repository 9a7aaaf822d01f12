"""Gamma-family special functions for complex arguments.

``log_gamma`` returns the principal branch of log Gamma, i.e. the analytic
continuation from the positive real axis.  On the half-plane Re(z) >= 0.5
it sums the logarithmic form of the Lanczos approximation (g = 7, the
widely published nine-coefficient set) term by term rather than taking the
logarithm of Gamma(z); the left half-plane follows from the reflection
formula

    Gamma(z) Gamma(1 - z) = pi / sin(pi z),

whose log-sine term is unwound through its exponential factorization so
the imaginary part stays continuous for large |Im(z)|.  ``gamma`` is
exp(log_gamma), so one Lanczos evaluator serves both.  Gamma of real
arguments is real, so ``gamma``, ``gamma_ratio`` and ``beta`` return an
imaginary part of exactly 0.0 there rather than the rounding residue of
the phase k*pi (or of the reflection formula's log-sine).

Quotients of Gamma values are always formed in log space (``gamma_ratio``,
``beta``); the reciprocal of Gamma is entire, so a quotient whose
denominator sits on a pole is exactly zero.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, PoleError

__all__ = [
    "beta",
    "complex_pow",
    "gamma",
    "gamma_ratio",
    "is_near_pole",
    "log_gamma",
]

# Lanczos parameters: g = 7 with 9 coefficients, accurate to ~1e-13 relative
# over the right half-plane in double precision.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)

#: Half-width of the box around non-positive integers treated as a pole.
POLE_TOLERANCE = 1e-9


def is_near_pole(z: complex) -> bool:
    """True when ``z`` is within :data:`POLE_TOLERANCE` of 0, -1, -2, ..."""
    z = complex(z)
    nearest = round(z.real)
    return (
        nearest <= 0
        and abs(z.real - nearest) < POLE_TOLERANCE
        and abs(z.imag) < POLE_TOLERANCE
    )


def _require_regular(z: complex, what: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"{what}: argument must be finite, got {z!r}")
    if is_near_pole(z):
        raise PoleError(f"{what}: {z!r} is within {POLE_TOLERANCE} of a Gamma pole")
    return z


def _lanczos_series(w: complex) -> complex:
    # w = z - 1; the rational series of the Lanczos formula.
    acc = complex(_LANCZOS_COEFFS[0])
    for i in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[i] / (w + i)
    return acc


def gamma(z: complex) -> complex:
    """Gamma(z) for complex ``z`` away from the poles at 0, -1, -2, ...

    Relative error is below 1e-12 for |z| <= 30; accuracy degrades
    gracefully further out until the result overflows (near Re(z) ~ 172 on
    the real axis).
    """
    return _exp(log_gamma(z), complex(z).imag == 0.0)


def _exp(w: complex, real: bool) -> complex:
    # exp of a sum of log_gamma values; real Gamma arguments give a real value.
    v = cmath.exp(w)
    return complex(v.real, 0.0) if real else v


def _log_sin_pi_upper(z: complex) -> complex:
    # Continuity-corrected log sin(pi z) for Im(z) >= 0, from
    # sin(pi z) = (i/2) e^{-i pi z} (1 - e^{2 i pi z}) with |e^{2 i pi z}| <= 1,
    # so the remaining logarithm never crosses a branch cut.  Within 1/4 of
    # an integer n, 1 - e^{2 i pi z} cancels; there the same branch is
    # -i pi n + log sin(pi (z - n)), with z - n exact (an imaginary part of
    # -0.0 is made +0.0, so that the real axis stays on the upper side).
    n = round(z.real)
    d = complex(z.real - n, z.imag + 0.0)
    if abs(d) < 0.25:
        return -1j * math.pi * n + cmath.log(cmath.sin(math.pi * d))
    w = cmath.exp(2j * math.pi * z)
    return -math.log(2.0) + 0.5j * math.pi - 1j * math.pi * z + cmath.log(1.0 - w)


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma(z).

    Satisfies exp(log_gamma(z)) == gamma(z) wherever both are representable,
    with the imaginary part continuous off the cut along the negative real
    axis (values on the cut follow the limit from the upper half-plane).
    """
    z = _require_regular(z, "log_gamma")
    if z.imag < 0.0:
        return log_gamma(z.conjugate()).conjugate()
    if z.real >= 0.5:
        w = z - 1.0
        t = w + _LANCZOS_G + 0.5
        return _LOG_SQRT_TWO_PI + (w + 0.5) * cmath.log(t) - t + cmath.log(_lanczos_series(w))
    return _LOG_PI - _log_sin_pi_upper(z) - log_gamma(1.0 - z)


def gamma_ratio(num: complex, den: complex) -> complex:
    """Gamma(num) / Gamma(den), formed in log space.

    When ``den`` sits on a Gamma pole the ratio is exactly 0 (the
    reciprocal Gamma function is entire and vanishes there); this is what
    annihilates polynomials under high-order differentiation.
    """
    num = _require_regular(num, "gamma_ratio numerator")
    den = complex(den)
    if not (math.isfinite(den.real) and math.isfinite(den.imag)):
        raise DomainError(f"gamma_ratio: denominator must be finite, got {den!r}")
    if is_near_pole(den):
        return 0j
    return _exp(log_gamma(num) - log_gamma(den), num.imag == 0.0 and den.imag == 0.0)


def beta(s1: complex, s2: complex) -> complex:
    """Euler Beta function B(s1, s2) = Gamma(s1) Gamma(s2) / Gamma(s1 + s2).

    Computed in log space; a pole of the denominator Gamma (s1 + s2 at a
    non-positive integer) gives exactly 0, while poles of the numerator
    Gammas raise :class:`~complexorder.errors.PoleError`.
    """
    s1 = _require_regular(s1, "beta first argument")
    s2 = _require_regular(s2, "beta second argument")
    if is_near_pole(s1 + s2):
        return 0j
    log_b = log_gamma(s1) + log_gamma(s2) - log_gamma(s1 + s2)
    return _exp(log_b, s1.imag == 0.0 and s2.imag == 0.0)


def complex_pow(x: float, s: complex) -> complex:
    """x**s for real x >= 0 and complex s.

    For finite x > 0 this is Python's complex power x ** s, i.e.
    x^Re(s) (cos(Im(s) ln x) + i sin(Im(s) ln x)); a real s gives an
    imaginary part of exactly 0.0.  x = 0 yields 0 when Re(s) > 0; other
    non-positive bases are rejected (complex exponents have no
    single-valued continuation there), and so are infinite and NaN bases.
    A phase Im(s) ln x that overflows is a DomainError as well.
    """
    x = float(x)
    s = complex(s)
    if not math.isfinite(x):
        raise DomainError(f"complex_pow: base must be finite, got {x!r}")
    if x < 0.0:
        raise DomainError(f"complex_pow: base must be non-negative, got {x!r}")
    if x == 0.0:
        if s.real > 0.0:
            return 0j
        raise DomainError("complex_pow: 0**s undefined for Re(s) <= 0")
    if s.imag == 0.0:
        return complex(x ** s.real, 0.0)
    try:
        return x ** s
    except ZeroDivisionError:
        # CPython's complex power reports the cosine of an infinite phase so.
        raise DomainError(f"complex_pow: the phase of {x!r} ** {s!r} is not finite") from None
