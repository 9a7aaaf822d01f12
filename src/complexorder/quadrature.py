"""Numeric evaluation of complex-order integrals and derivatives.

The integral of order s with lower limit x0, evaluated at x, normalizes to

    (x-x0)^s / Gamma(s) * I,    I = int_0^1 (1-u)^(s-1) g(u) du,

with g(u) = f(x0 + u (x-x0)).  The kernel factor (1-u)^(s-1) is weakly
singular and, for Im(s) != 0, oscillates unboundedly fast as u -> 1, so I
is computed by product integration: g is interpolated at Chebyshev points
of the first kind mapped to [0, 1] and the interpolant is integrated
against the kernel exactly, using the modified Chebyshev moments

    q_j(sigma) = int_0^1 w^(sigma-1) T_j(2w-1) dw,
    int_0^1 (1-u)^(s-1) T_j(2u-1) du = (-1)^j q_j(s).

The q_j satisfy a three-term recurrence (seeded by exact rational values)
that is run forward; its error growth is linear in j, which keeps the
moments accurate to ~1e-13 of the leading moment across the whole range
used here.  Integrating the interpolant in its Chebyshev basis is the
numerically sound equivalent of converting it to monomials and integrating
those against the kernel moments B(s, k+1): the conversion amplifies
rounding like 4^degree, so the package never takes that route.  The rule
below is exact on u^k for k < n, so its reversed weights reproduce
B(s, k+1); acceptance criterion 9 and the selftest check
``moment_recurrence`` verify this at n = 64.

Folding the interpolation into the moments gives one weight vector per
(sigma, n), the classical product-integration rule:

    w_i = sum_j a_j T_j(2u_i - 1),   a = (2/n) q(sigma), a_0 halved,
    int_0^1 u^(sigma-1) g(u) du ~ sum_i w_i g(u_i).

The weights are cached per (sigma, n) as a tuple in a bounded
``functools.lru_cache``.  Every estimate is one dot of a rule's weights
with the samples (``_dot``): each product is rounded once and the real
and imaginary parts are summed exactly with ``math.fsum``.  One table
holds the Chebyshev values at the nodes, T_j(2u_i - 1) =
cos(j (2i+1) pi / 2n), each read from cos(m pi / 2n), m < 4n, at the
exactly reduced m = j (2i+1) mod 4n (``_cosine_rows``): its row j = 1
gives the nodes, its columns the weights on a cache miss, and its rows an
opaque derivative's coefficients.
First-kind nodes are symmetric, 1 - u_i = u_(n-1-i), and
T_j(2u_(n-1-i) - 1) = (-1)^j T_j(2u_i - 1), so one even-j and one odd-j
partial sum per node (each summed with fsum) give both w_i and
w_(n-1-i); the same symmetry lets the kernel (1-u)^(s-1) use the weights
of sigma = s reversed.  The module uses only the standard library.

When the integrand is known to carry a power factor (y - x0)^p at the
lower endpoint (every symbolic power term does), passing
``singular_exponent=p`` splits [0, 1] at 1/2: on the right panel the
kernel weights absorb the singular-oscillatory kernel while the cofactor
is analytic; on the left panel, rescaled to v = 2u,
the roles swap: (1 - v/2)^(s-1) joins the cofactor g(v/2) / (v/2)^p and
v^p is absorbed by the power weights of sigma = p+1.  Both cofactors are
then analytic in a Bernstein ellipse with parameter 3 + 2*sqrt(2), so
the interpolation converges geometrically regardless of p and s.  The
two panels fold into one rule of 2n nodes and weights (``_rule``): with
v_i the n Chebyshev nodes, the nodes v_i/2 and then 1/2 + v_i/2, and the
weights (1/2)^(p+1) W_i (1 - v_i/2)^(s-1) / (v_i/2)^p, W the power
weights of sigma = p+1, and then (1/2)^s times the kernel weights
reversed.  An estimate is one dot of these weights with the 2n samples
of g, as on the unsplit rule, whose nodes are the n Chebyshev nodes and
whose weights are the kernel weights reversed.

A rule depends only on (s, p, n), not on x or the integrand, and a split
one costs 2n + 2 complex powers.  This module decides how long a rule
lives.  An integral builds its own rule at each ladder size.  The stencil
integrals of a derivative all have the order k - s and the exponent p, so
they read their rules from a bounded ``functools.lru_cache``
(``_shared_rule``), which keeps them for every point of a grid and every
later call with the same (s, p).

Two fixed ladders of sizes are walked until two successive estimates
agree to ``cfg.rel_tol``, so every returned value rests on an agreeing
pair; if none agrees by the last size, ConvergenceError carries the best
estimate seen, normalized like a returned value.  Every integral walks
32, 64, 128, 256 (``_DEGREES``), and every derivative walks 24, 32, 48,
64, 96, 128 (``_DERIVATIVE_SIZES``).  Derivatives of power sums use
k-fold central differences of the inner integral with Richardson
extrapolation, and those stencil integrals walk the derivative ladder:
their cofactors are analytic in the Bernstein ellipse above, so the
sizes 24 and 32 usually agree to the tightened inner tolerance already.  e^x
from -inf needs no differences, because the integral commutes with
translation there (see ``integrate_exp_lower_inf``).

A derivative of an opaque integrand needs no inner integral either
(``chebyshev_derivative``).  The same Chebyshev basis serves it: the
integrand is sampled at the same nodes on [x0, x], its coefficients are
the table's rows dotted with the samples, and the moments give each
term's image at every order, because J^sigma T_j(2u-1) at u = 1 is
(-1)^j q_j(sigma) / Gamma(sigma), which is entire in sigma; at
sigma = -s it is D^s T_j(2u-1), the paper's J^sigma = D^(-sigma).  The
coefficients are chopped at their rounding plateau (Aurentz and
Trefethen's standardChop), and the derivative ladder is walked until two
successive chopped expansions agree to ``cfg.rel_tol``.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from collections import namedtuple
from itertools import accumulate
from math import fsum
from operator import mul
from typing import Callable, Sequence

from .errors import ConvergenceError, DomainError
from .special import _exp, complex_pow, gamma_ratio, log_gamma

__all__ = [
    "QuadConfig",
    "differentiate_numeric",
    "integrate_exp_lower_inf",
    "integrate_numeric",
]


# The two size ladders, each walked until two successive estimates agree:
# an integral's doubling ladder, and the finer one of every derivative (the
# stencil integrals of a power sum's and the expansions of an opaque one's).
_DEGREES = (32, 64, 128, 256)
_DERIVATIVE_SIZES = (24, 32, 48, 64, 96, 128)


class QuadConfig(namedtuple("QuadConfig", "rel_tol")):
    """Quadrature tolerance: rel_tol (finite, > 0) is the relative agreement
    that two successive estimates must reach, on the ladder 32, 64, 128, 256
    of an integral or the sizes 24 to 128 of a derivative."""

    __slots__ = ()

    def __new__(cls, rel_tol: float = 1e-9):
        if not 0 < rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and > 0, got {rel_tol}")
        return super().__new__(cls, rel_tol)


# --------------------------------------------------------------------------
# Chebyshev machinery
# --------------------------------------------------------------------------


# One entry per size of either ladder: 24, 32, 48, 64, 96, 128 and 256.
@functools.lru_cache(maxsize=8)
def _cosine_rows(n: int) -> tuple[tuple[float, ...], ...]:
    """Row m, m < n, holds T_m(2u_i - 1) = cos(m (2i+1) pi / 2n) at the
    nodes u_i of cheb_nodes01(n): the one place T_m is computed at the nodes.

    Each entry is read from cos(k pi / 2n), k < 4n, at the exactly reduced
    k = m (2i+1) mod 4n, so the rows share those 4n floats."""
    step = math.pi / (2 * n)
    table = [math.cos(k * step) for k in range(4 * n)]
    odd = range(1, 2 * n, 2)  # 2i + 1
    return tuple(tuple([table[m * o % (4 * n)] for o in odd]) for m in range(n))


@functools.lru_cache(maxsize=16)
def _nodes(n: int) -> tuple[float, ...]:
    return tuple((1.0 + t) / 2.0 for t in _cosine_rows(n)[1])


def cheb_nodes01(n: int) -> tuple[float, ...]:
    """Chebyshev points of the first kind mapped to (0, 1), decreasing."""
    return _nodes(n)


def chebyshev_power_moments(sigma: complex, n: int) -> list[complex]:
    """q_j(sigma) = int_0^1 w^(sigma-1) T_j(2w-1) dw for j = 0..n-1.

    Forward three-term recurrence from exact rational seeds; requires
    Re(sigma) > 0.
    """
    sigma = complex(sigma)
    if not sigma.real > 0:
        raise DomainError(f"power moments need Re(sigma) > 0, got {sigma!r}")
    q = [1.0 / sigma]
    if n > 1:
        q.append((sigma - 1.0) / (sigma * (sigma + 1.0)))
    if n > 2:
        q.append((sigma * sigma - 5.0 * sigma + 2.0) / (sigma * (sigma + 1.0) * (sigma + 2.0)))
    for j in range(2, n - 1):
        q.append(
            (-2.0 / (j * j - 1.0) - 2.0 * q[j] + q[j - 1] * (sigma - (j - 1.0)) / (j - 1.0))
            * (j + 1.0)
            / (j + 1.0 + sigma)
        )
    return q


# A grid needs one entry per order (the kernel's, and p+1 per power term) and
# degree: 16 for three power terms doubling 32 -> 256.  128 entries keep
# several grids' worth and bound the cache at about 1.3 MB.
@functools.lru_cache(maxsize=128)
def _weights(sigma: complex, n: int) -> tuple[complex, ...]:
    """Product-integration weights: the sum of w_i g(cheb_nodes01(n)[i]) is
    the exact integral of u^(sigma-1) times the interpolant of g on [0, 1].

    w_i = sum_j a_j T_j(2u_i - 1) with a = (2/n) q(sigma), a_0 halved.
    T_j(2u_i - 1) is column i of ``_cosine_rows(n)``, and
    T_j(2u_(n-1-i) - 1) = (-1)^j T_j(2u_i - 1), so the even-j and the odd-j
    part of column i give both w_i and w_(n-1-i), for the first half's i.
    Each partial sum is summed exactly (fsum) in its real and imaginary
    parts.
    """
    a = [c * (2.0 / n) for c in chebyshev_power_moments(sigma, n)]
    a[0] *= 0.5
    even_re = [c.real for c in a[0::2]]
    even_im = [c.imag for c in a[0::2]]
    odd_re = [c.real for c in a[1::2]]
    odd_im = [c.imag for c in a[1::2]]
    rows = _cosine_rows(n)
    w = [0j] * n
    for i, t_even, t_odd in zip(range((n + 1) // 2), zip(*rows[0::2]), zip(*rows[1::2])):
        even = complex(fsum(map(mul, even_re, t_even)), fsum(map(mul, even_im, t_even)))
        odd = complex(fsum(map(mul, odd_re, t_odd)), fsum(map(mul, odd_im, t_odd)))
        w[n - 1 - i] = even - odd
        w[i] = even + odd  # the middle node of an odd n keeps this one
    return tuple(w)


def _dot(w: Sequence[complex], values: Sequence[complex]) -> complex:
    """sum(w_i * values_i): each product rounded once, its real and
    imaginary parts summed exactly."""
    products = list(map(mul, w, values))
    return complex(fsum([z.real for z in products]), fsum([z.imag for z in products]))


_SPLIT = 0.5
_EPS = sys.float_info.epsilon
# Finite differences: base step relative to max(1, |x|), and the number of
# step sizes h, h/2, h/4, ... that Richardson extrapolation combines.
_FD_STEP_SCALE = 0.01
_RICHARDSON_LEVELS = 3


def _rule(s: complex, n: int, p: complex | None) -> tuple[Sequence[float], Sequence[complex]]:
    """Nodes and weights of the n-point rule for int_0^1 (1-u)^(s-1) g(u) du.

    Without a singular exponent p these are ``_nodes(n)`` and the kernel
    weights reversed.  With one, the split at _SPLIT gives 2n of each: the
    left panel's v_i/2 with weights (1/2)^(p+1) W_i (1 - v_i/2)^(s-1) /
    (v_i/2)^p, W the power weights of sigma = p+1, then the right panel's
    1/2 + v_i/2 with the kernel weights reversed times (1/2)^s, where v_i
    are the nodes (module docstring).  A (v_i/2)^p that underflows to 0
    raises ZeroDivisionError.
    """
    nodes = _nodes(n)
    if p is None:
        return nodes, _weights(s, n)[::-1]
    left = complex_pow(_SPLIT, p + 1.0)
    right = complex_pow(1.0 - _SPLIT, s)
    weights = [
        left * w * complex_pow(1.0 - _SPLIT * v, s - 1.0) / complex_pow(_SPLIT * v, p)
        for w, v in zip(_weights(p + 1.0, n), nodes)
    ]
    weights += [right * w for w in reversed(_weights(s, n))]
    return [_SPLIT * v for v in nodes] + [_SPLIT + (1.0 - _SPLIT) * v for v in nodes], weights


# One entry per (order, size, exponent).  A power-sum derivative's stencil
# integrals mostly stop at the sizes 24 and 32, so 32 entries keep the rules
# of up to 16 terms from one point to the next, at a few KB each.
@functools.lru_cache(maxsize=32)
def _shared_rule(
    s: complex, n: int, p: complex | None
) -> tuple[Sequence[float], Sequence[complex]]:
    """``_rule(s, n, p)``, kept for every integral that asks for it again:
    the stencil integrals of a derivative, at every point and every call
    with the same order and exponent.  Callers must not mutate it."""
    return _rule(s, n, p)


def _plateau_cutoff(coeffs: Sequence[complex]) -> int | None:
    """How many leading coefficients to keep, or None when their magnitudes
    reach no plateau: Aurentz & Trefethen's standardChop (ACM TOMS 43,
    2017) at tolerance eps = machine epsilon, the relative rounding of the
    samples.

    The envelope e_j is the running maximum of |c_m| from the right,
    normalized to e_1 = 1.  A plateau starts at the first index j after
    which e falls by less than a factor 1/r, r = 3 (1 - log e_j / log eps),
    over the next quarter of the coefficients plus five; as r < 1 only
    below eps^(2/3), no plateau starts above that.  The cut is then where
    log e, plus a line rising a third of -log eps over the plateau's range,
    is least.  A cut is always strictly inside the expansion, and what it
    drops is rounding noise.
    """
    n = len(coeffs)
    envelope = list(accumulate(map(abs, reversed(coeffs)), max))[::-1]
    if envelope[0] == 0.0:
        return 1
    envelope = [e / envelope[0] for e in envelope]
    log_tol = math.log(_EPS)
    # Indices below are 1-based, as in the published algorithm.
    for j in range(2, n + 1):
        j2 = math.floor(1.25 * j + 5.5)
        if j2 > n:
            return None
        e1, e2 = envelope[j - 1], envelope[j2 - 1]
        if e1 == 0.0 or e2 / e1 > 3.0 * (1.0 - math.log(e1) / log_tol):
            plateau = j - 1
            break
    if envelope[plateau - 1] == 0.0:
        return plateau
    floor = _EPS ** (7.0 / 6.0)
    j3 = sum(e >= floor for e in envelope)
    if j3 < j2:
        j2 = j3 + 1
        envelope[j2 - 1] = floor
    bias = -math.log10(_EPS) / 3.0 / (j2 - 1)
    biased = [math.log10(envelope[i]) + i * bias for i in range(j2)]
    return max(biased.index(min(biased)), 1)


# One entry per order, holding every size's images.
@functools.lru_cache(maxsize=16)
def _endpoint_images(sigma: complex) -> tuple[complex, ...]:
    """J^sigma T_m(2u - 1) at u = 1, (-1)^m q_m(sigma) / Gamma(sigma), for
    m < 128, continued to every complex sigma (at sigma = -s, D^s T_m).

    With P_m = q_m(sigma) (sigma)_(m+1) / m!, the image is
    (-1)^m P_m m! / Gamma(sigma+m+1), and both factors are entire: the
    moment recurrence rescaled to P has no division by sigma + m + 1.
    m! / Gamma(sigma+m+1) is a Gamma ratio up to the first m with
    Re(sigma+m+1) >= 1 and a running product beyond it, so no product
    starts near a pole; past |Im sigma| ~ 450 it raises OverflowError.
    """
    n = _DERIVATIVE_SIZES[-1]
    p = [1.0 + 0j, sigma - 1.0, (sigma * sigma - 5.0 * sigma + 2.0) / 2.0]
    rising = sigma * (sigma + 1.0)  # (sigma)_(j+1) / j!, here at j = 1
    for j in range(2, n - 1):
        rising *= (sigma + j) / j
        p.append(
            -2.0 * rising / (j * j - 1.0)
            - 2.0 * p[j]
            + p[j - 1] * (sigma + j) * (sigma - j + 1.0) / (j * (j - 1.0))
        )
    first = max(0, math.ceil(-sigma.real))
    ratios = [gamma_ratio(m + 1.0, sigma + m + 1.0) for m in range(first + 1)]
    for m in range(first + 1, n):
        ratios.append(ratios[-1] * m / (sigma + m))
    return tuple(pm * r if m % 2 == 0 else -pm * r for m, (pm, r) in enumerate(zip(p, ratios)))


def _converge(
    estimate: Callable[[int], complex | None],
    cfg: QuadConfig,
    factor: complex,
    sizes: Sequence[int],
) -> complex:
    """Walk ``sizes`` until two successive estimates agree to cfg.rel_tol,
    and return the later one times ``factor``.

    An estimate of None (a size that does not resolve the integrand) agrees
    with nothing.  ConvergenceError carries the best estimate times
    ``factor`` (None when no size resolved).
    """
    prev = best = None
    best_err = math.inf
    for n in sizes:
        cur = estimate(n)
        if best is None:
            best = cur
        if cur is not None and prev is not None:
            denom = max(abs(cur), abs(prev))
            # Estimates that agree to the last bit still leave a rounding unit
            # unverified, so a rel_tol below machine epsilon is never met.
            diff = max(abs(cur - prev), _EPS * denom)
            if diff <= cfg.rel_tol * denom:
                return factor * cur
            err = diff / denom
            if err < best_err:
                best_err, best = err, cur
        prev = cur
    raise ConvergenceError(
        f"quadrature did not reach rel_tol={cfg.rel_tol:g} by degree {sizes[-1]} "
        f"(best successive agreement {best_err:.3e})",
        best_estimate=None if best is None else factor * best,
        achieved_rel_err=best_err,
    )


def _check_interval(caller: str, x: float, x0: float) -> None:
    if not (math.isfinite(x) and math.isfinite(x0)):
        raise DomainError(f"{caller} needs finite x and x0")
    if not x > x0:
        raise DomainError(f"{caller} needs x > x0, got x={x!r}, x0={x0!r}")


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------


def integrate_numeric(
    f: Callable[[float], complex],
    s: complex,
    x: float,
    x0: float,
    cfg: QuadConfig | None = None,
    *,
    singular_exponent: complex | None = None,
    _shared: bool = False,
) -> complex:
    """Integral of order ``s`` (Re(s) > 0) of ``f`` from ``x0``, at ``x``.

    ``f`` must be bounded on [x0, x] unless ``singular_exponent`` declares
    a power factor (y - x0)^p with Re(p) > -1 and smooth cofactor, in which
    case the singular factor is integrated analytically (a u^p that
    underflows to 0 at a node raises DomainError).  A ConvergenceError
    carries the best estimate of this integral (normalization included).
    Each estimate is one dot of the samples with the rule of its size
    (``_rule``), which this call builds, on the ladder 32, 64, 128, 256.
    The private ``_shared`` marks a derivative's stencil integral: it walks
    the derivative ladder 24, 32, 48, 64, 96, 128 instead and takes its
    rules from the bounded cache ``_shared_rule``, for callers that ask for
    the same rule again.
    """
    s = complex(s)
    if cfg is None:
        cfg = QuadConfig()
    if not s.real > 0:
        raise DomainError(f"integrate_numeric needs Re(s) > 0, got {s!r}")
    _check_interval("integrate_numeric", x, x0)
    p = None
    if singular_exponent is not None:
        p = complex(singular_exponent)
        if not p.real > -1.0:
            raise DomainError(f"singular_exponent needs Re > -1, got {p!r}")
    scale = x - x0

    def g(u: float) -> complex:
        return complex(f(x0 + u * scale))

    # 1/Gamma(s) in log space: it overflows (OverflowError) where Gamma(s)
    # underflows, past |Im s| ~ 450, and an s next to 0 raises PoleError.
    factor = complex_pow(scale, s) * _exp(-log_gamma(s), s.imag == 0.0)
    rule, sizes = (_shared_rule, _DERIVATIVE_SIZES) if _shared else (_rule, _DEGREES)

    def estimate(n: int) -> complex:
        nodes, weights = rule(s, n, p)
        return _dot(weights, [g(u) for u in nodes])

    try:
        return _converge(estimate, cfg, factor, sizes)
    except ZeroDivisionError as exc:
        # A left-panel weight's division by (v/2)^p, once it underflows to 0.
        raise DomainError(f"division by zero in the rule or the integrand: {exc}") from exc


def central_derivative(
    func: Callable[[float], complex],
    x: float,
    k: int,
    lower_limit: float = -math.inf,
) -> complex:
    """k-th derivative of ``func`` at ``x`` by central differences.

    Richardson extrapolation over three step sizes h, h/2, h/4 with base
    step h = 0.01 * max(1, |x|); for k >= 3 the base step is widened by
    2^(k-2) to keep the h^-k noise amplification below the truncation
    budget.  The widest stencil must stay inside (lower_limit, inf).
    """
    if k < 1:
        raise DomainError(f"derivative order k must be >= 1, got {k}")
    h0 = _FD_STEP_SCALE * max(1.0, abs(x))
    if k >= 3:
        h0 *= 2.0 ** (k - 2)
    if math.isfinite(lower_limit) and x - (k / 2.0) * h0 <= lower_limit:
        raise DomainError(
            f"difference stencil of width {k * h0 / 2.0:g} at x={x!r} leaves "
            f"({lower_limit!r}, inf)"
        )
    offsets = [k / 2.0 - i for i in range(k + 1)]
    weights = [(-1) ** i * math.comb(k, i) for i in range(k + 1)]
    # An even k has a centre node x + 0*h, the same at every level.
    centre = complex(func(x)) if k % 2 == 0 else None
    estimates = []
    h = h0
    for _ in range(_RICHARDSON_LEVELS):
        acc = 0j
        for w, o in zip(weights, offsets):
            acc += w * (centre if o == 0 else complex(func(x + o * h)))
        estimates.append(acc / h**k)
        h /= 2.0
    # Richardson in powers of h^2 (central differences expand evenly).
    for m in range(1, _RICHARDSON_LEVELS):
        factor = 4.0**m
        for r in range(_RICHARDSON_LEVELS - 1, m - 1, -1):
            estimates[r] = (factor * estimates[r] - estimates[r - 1]) / (factor - 1.0)
    return estimates[-1]


def differentiate_numeric(
    f: Callable[[float], complex],
    s: complex,
    x: float,
    x0: float,
    k: int,
    cfg: QuadConfig | None = None,
    *,
    singular_exponent: complex | None = None,
) -> complex:
    """Derivative of order ``s`` of ``f`` at ``x``: D^k of the (k-s)-integral.

    Requires an integer k > Re(s) >= 0 so that the inner integral order
    k - s has positive real part.  The result is independent of the
    admissible k (up to the numerical tolerances).  The inner integral runs
    at rel_tol tightened by 1e-3 (floor 1e-13), because the k-th difference
    amplifies inner noise by h^-k; an inner integral that reaches only
    rel_tol itself within the degree budget contributes its best estimate
    instead of failing.  The 6, 7 or 12 inner integrals (k = 1, 2, 3) all
    have the order k - s and the exponent ``singular_exponent``, so they
    take their rules from the bounded cache ``_shared_rule``: one per
    ladder size for this call, and for later calls at other points with
    the same s, k and exponent.  They walk the derivative ladder 24, 32,
    48, 64, 96, 128, not an integral's 32, 64, 128, 256, so a value
    equals a standalone ``integrate_numeric`` call only on the same ladder.
    """
    s = complex(s)
    if cfg is None:
        cfg = QuadConfig()
    if s.real < 0:
        raise DomainError(f"differentiate_numeric needs Re(s) >= 0, got {s!r}")
    if k < 1 or k <= s.real:
        raise DomainError(f"need integer k > Re(s); got k={k}, s={s!r}")
    inner_cfg = QuadConfig(rel_tol=max(cfg.rel_tol * 1e-3, 1e-13))

    def inner(u: float) -> complex:
        try:
            return integrate_numeric(
                f, k - s, u, x0, inner_cfg, singular_exponent=singular_exponent, _shared=True
            )
        except ConvergenceError as exc:
            if exc.achieved_rel_err <= cfg.rel_tol:
                return exc.best_estimate
            raise

    return central_derivative(inner, x, k, lower_limit=x0)


def chebyshev_derivative(
    f: Callable[[float], complex],
    s: complex,
    x: float,
    x0: float,
    cfg: QuadConfig | None = None,
) -> complex:
    """Derivative of order ``s`` (Re(s) >= 0) of a smooth ``f`` from ``x0``, at ``x``.

    ``f`` is sampled at the n nodes of ``cheb_nodes01``, mapped to
    [x0, x] by y = x0 + u (x - x0), and expanded in T_m(2u - 1).  The
    product-integration moments continue to every order: D^s maps
    T_m(2u - 1) at u = 1 to (-1)^m q_m(-s) / Gamma(-s), which
    ``_endpoint_images`` evaluates in a form without poles, so

        D^s f(x) = (x - x0)^(-s) * sum_m c_m (-1)^m q_m(-s) / Gamma(-s).

    This is exact for a polynomial of degree < n at every complex s, and
    exactly 0 at an integer s on a polynomial of degree < s, where
    1/Gamma(-s+m+1) vanishes for m < s.  The coefficients are chopped at
    their rounding plateau (``_plateau_cutoff``).  A size resolves nothing
    when they reach none, or when an integer s is at or past the cut while
    the kept ones end less than eps^(-1/2) above the plateau (no polynomial
    of degree < s).  The derivative ladder 24, 32, 48, 64, 96, 128 is walked
    until two successive resolved sizes agree to ``cfg.rel_tol``, as in
    ``_converge``.
    A sample that is not finite raises DomainError.
    """
    s = complex(s)
    if cfg is None:
        cfg = QuadConfig()
    if s.real < 0:
        raise DomainError(f"chebyshev_derivative needs Re(s) >= 0, got {s!r}")
    _check_interval("chebyshev_derivative", x, x0)
    scale = x - x0
    images = _endpoint_images(-s)

    def estimate(n: int) -> complex | None:
        values = [complex(f(x0 + u * scale)) for u in _nodes(n)]
        if not all(map(cmath.isfinite, values)):
            raise DomainError(f"the integrand is not finite on [{x0!r}, {x!r}]")
        rows = _cosine_rows(n)
        re = [v.real for v in values]
        im = [v.imag for v in values]
        # Each coefficient is a real row dotted with the samples, summed
        # exactly; a real integrand has real coefficients.
        coeffs = [fsum(map(mul, row, re)) for row in rows]
        if any(im):
            coeffs = [complex(c, fsum(map(mul, row, im))) for c, row in zip(coeffs, rows)]
        coeffs[0] *= 0.5
        cut = _plateau_cutoff(coeffs)
        if cut is None:
            return None
        # An integer s >= cut maps every kept term to 0, which is D^s f only
        # for a polynomial of degree < s: its coefficients drop abruptly to
        # the plateau, while ones that decay into it leave D^s f unresolved.
        if not any(images[:cut]) and abs(coeffs[cut - 1]) * _EPS**0.5 < max(map(abs, coeffs[cut:])):
            return None
        return (2.0 / n) * _dot(images[:cut], coeffs[:cut])

    return _converge(estimate, cfg, complex_pow(scale, -s), _DERIVATIVE_SIZES)


def integrate_exp_lower_inf(s: complex, x: float, cfg: QuadConfig | None = None) -> complex:
    """Integral of order ``s`` (Re(s) > 0) of e^y on (-inf, x].

    The infinite tail is truncated at x - T with T = 40 + 10 |Im(s)|,
    and the rest is an ordinary finite-limit integral.  The discarded tail
    is |Gamma(s, T) / Gamma(s)| of the exact value e^x, close to
    Gamma(Re s, T) / Gamma(Re s): e^-40 only at s = 1, but 3.6e-15 at
    s = 3, 1.7e-10 at s = 8 and 3.9e-9 at s = 10.  T depends on s only, so
    the rule commutes with translation: the value is e^x times the value
    at x = 0, which is how a derivative of e^x from -inf is taken without
    finite differences.
    """
    T = 40.0 + 10.0 * abs(complex(s).imag)
    return integrate_numeric(math.exp, s, x, x - T, cfg)
