"""Seeded request streams for the three benchmark workloads.

A request is one ``apply`` call (or one CLI process) on one function over a
few points.  The inputs that set a request's cost (function kind, branch,
order, number of terms, power exponents, which power-sum derivatives are
annihilated ones, opaque frequency, grid placement) follow a fixed
low-discrepancy design, the same for every seed, so every prefix of a
stream holds close to the intended mix and runs of different seeds ask for
the same amount of work: their spread then measures the program and the
machine rather than the sample.  (Drawn from the seed instead, exponents
and annihilated cases put the median request of one seed 15-45 % away
from another's in three pairs of runs.)  The seed draws the coefficients
of the power terms and of exp(x), and how a net order is split into a
D^a.J^b chain.  Nothing is redrawn or filtered after the fact: inputs that
make the program fail (near-limit stencils, silent inaccuracy) stay in.

Orders, exponents and points are plain doubles written into the grammar
text with ``repr``, so the program parses exactly the values the oracle
uses, and the net order is summed in the same stage order the program uses.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

WORKLOADS = ("grid-integral", "grid-derivative", "cli-cold")

#: Requested relative tolerance of every request.
REL_TOL = 1e-9

#: Points per request on the grid workloads.  The derivative grid is shorter
#: so that a run still holds 100 requests (see perfbench/README.md).
GRID_POINTS = {"grid-integral": 32, "grid-derivative": 16}


@dataclass(frozen=True)
class Request:
    """One request and everything the oracle needs to check it."""

    kind: str  # "power" | "exp" | "opaque"
    op: str  # operator chain text
    sigma: complex  # net signed order; Re > 0 is a net integral
    xs: tuple[float, ...]
    method: str  # "both" | "numeric" | "closed"
    terms: tuple[tuple[complex, complex], ...] = ()  # power: (coef, exponent)
    exp_coef: complex = 0j
    opaque: tuple[str, float] | None = None  # ("ycos" | "sin", omega)
    grid: str = ""  # cli-cold: "a:b:n" for --grid, empty for --at
    fmt: str = "json"  # cli-cold output format

    @property
    def x0(self) -> float:
        return -math.inf if self.kind == "exp" else 0.0

    @property
    def fn(self) -> str:
        """Function text in the program's grammar (symbolic kinds only)."""
        if self.kind == "exp":
            return f"{cplx(self.exp_coef)}*exp(x)"
        return " + ".join(f"{cplx(c)}*x^{cplx(p)}" for c, p in self.terms)

    def cli_argv(self) -> list[str]:
        argv = ["eval", "--op", self.op, "--fn", self.fn]
        if self.kind == "exp":
            argv += ["--x0", "-inf"]
        if self.grid:
            argv += ["--grid", self.grid]
        else:
            for x in self.xs:
                argv += ["--at", repr(x)]
        return argv + ["--method", self.method, "--rel-tol", repr(REL_TOL), "--format", self.fmt]


def cplx(z: complex) -> str:
    """Grammar literal that parses back to exactly ``z``."""
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
    return f"({z.real!r}{sign}{abs(z.imag)!r}i)"


#: Kronecker steps, one per input dimension (fractional parts of square
#: roots of primes, which are rationally independent).
_ALPHA = tuple(
    math.sqrt(p) % 1.0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73)
)


class _Sequence:
    """Kronecker sequence: every prefix covers [0, 1)^d evenly, so a run that
    stops at any time has close to the intended mix of kinds, orders and
    terms."""

    def __init__(self):
        design = random.Random("perfbench design")
        self._shift = [design.random() for _ in _ALPHA]
        self._i = 0

    def next(self) -> list[float]:
        self._i += 1
        return [(s + self._i * a) % 1.0 for s, a in zip(self._shift, _ALPHA)]


def _single(s: complex, integral: bool) -> tuple[str, complex]:
    """One-stage operator text and its net order as the program sums it."""
    return (f"J^{cplx(s)}", 0j + s) if integral else (f"D^{cplx(s)}", 0j - s)


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _request(u, rng: random.Random, kind: str, integral: bool, xs, method, **extra) -> Request:
    """A request of ``kind`` from the unit vector ``u`` (dims 2-7, 14-20).

    Re of the order lies in (0, 3] for integrals and [0, 3) for derivatives;
    a quarter of orders are real, the rest have Im in [-2, 2].
    """
    re = 3.0 * (1.0 - u[2]) if integral else 3.0 * u[2]
    s = complex(re, 0.0 if u[3] < 0.25 else 4.0 * u[4] - 2.0)
    fn: dict = {}
    if kind == "exp":
        fn["exp_coef"] = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
    elif kind == "opaque":
        fn["opaque"] = ("ycos" if u[5] < 0.5 else "sin", 0.5 + 2.5 * u[6])
    elif not integral and s.real > 0.5 and u[20] < 0.125:
        # D^s x^(s-1) = Gamma(s)/Gamma(0) x^-1 = 0, an exactly zero image.
        # A dyadic Re(s) keeps s - 1 exact, so the pole is hit exactly.
        s = complex(round(s.real * 64.0) / 64.0, s.imag)
        coef = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        op, sigma = _single(s, integral)
        return Request(kind, op, sigma, xs, method, terms=((coef, s - 1.0),), **extra)
    else:
        terms = []
        for j in range(1 + int(3.0 * u[5])):
            coef = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            re_p = 3.0 - 3.5 * u[14 + j]  # (-0.5, 3]
            im_p = 0.0 if u[17 + j] < 0.5 else 4.0 * u[17 + j] - 3.0  # half real, else [-1, 1)
            terms.append((coef, complex(re_p, im_p)))
        fn["terms"] = tuple(terms)
    if u[7] < 1.0 / 3.0:
        # The same net order written as a chain D^a.J^b.
        a = complex(rng.uniform(0.1, 1.5), rng.uniform(-1.0, 1.0))
        b = (s if integral else -s) + a
        op, sigma = f"D^{cplx(a)}.J^{cplx(b)}", (0j - a) + b
    else:
        op, sigma = _single(s, integral)
    return Request(kind, op, sigma, xs, method, **fn, **extra)


def _cli_request(u, rng: random.Random) -> Request:
    """cli-cold: two thirds power sums, a third exp(x) at integer orders."""
    kind = "power" if u[0] < 2.0 / 3.0 else "exp"
    integral = u[1] < 0.5
    method = "closed" if u[12] < 0.5 else "both"
    fmt = "csv" if u[13] < 0.5 else "json"
    if u[8] < 0.5:
        xs = tuple(_log_uniform(v, 0.05, 3.0) for v in (u[9], u[11])[: 1 + int(2.0 * u[10])])
        grid = ""
    else:
        n = 2 + int(3.0 * u[10])
        a = round(0.1 + 0.9 * u[9], 3)
        b = round(a + 0.5 + 1.5 * u[11], 3)
        xs = tuple(a + i * (b - a) / (n - 1) for i in range(n))  # as the CLI spaces them
        grid = f"{a!r}:{b!r}:{n}"
    if kind == "exp":
        # e^x has a closed form only at integer orders.
        op, sigma = _single(complex(1 + int(u[2] * (3 if integral else 2)), 0.0), integral)
        coef = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        return Request("exp", op, sigma, xs, method, exp_coef=coef, grid=grid, fmt=fmt)
    return _request(u, rng, "power", integral, xs, method, grid=grid, fmt=fmt)


def requests(workload: str, seed: int) -> Iterator[Request]:
    """Endless request stream; the same (workload, seed) repeats exactly.

    Half power sums, a quarter exp(x) from -inf, a quarter opaque integrands
    (cli-cold: see ``_cli_request``).  Grid starts are log-uniform in
    [0.01, 0.5], so difference stencils that reach the lower limit occur.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    seq = _Sequence()
    while True:
        u = seq.next()
        if workload == "cli-cold":
            yield _cli_request(u, rng)
            continue
        kind = "power" if u[0] < 0.5 else "exp" if u[0] < 0.75 else "opaque"
        integral = workload == "grid-integral"
        n = GRID_POINTS[workload]
        start = _log_uniform(u[8], 0.01, 0.5)
        stop = start + 0.5 + 2.5 * u[9]
        xs = tuple(start + i * (stop - start) / (n - 1) for i in range(n))
        # The program has a closed form for power sums only (and for exp at
        # integer orders, which are not drawn here).
        method = "both" if kind == "power" else "numeric"
        yield _request(u, rng, kind, integral, xs, method)


#: Warm-up orders: Im = 0.1 exactly, which the measured draws never produce.
_WARMUP_ORDERS = (0.5 + 0.1j, 0.5 + 0.1j, 1.5 + 0.1j, 2.5 + 0.1j)


def warmup_requests(workload: str) -> list[Request]:
    """Requests run before timing: one per path, at orders disjoint from the
    measured ones, so per-order work stays inside the timed region."""
    if workload == "cli-cold":
        return [Request("power", "J^(0.5+0.1i)", 0.5 + 0.1j, (1.0,), "closed", terms=((1 + 0j, 1 + 0j),))]
    out = []
    for i, s in enumerate(_WARMUP_ORDERS):
        op, sigma = _single(s, integral=i == 0)
        xs = (0.7, 1.3)
        out.append(Request("power", op, sigma, xs, "both", terms=((1 + 0j, 0.5 + 0j),)))
        out.append(Request("exp", op, sigma, xs, "numeric", exp_coef=1 + 0j))
        out.append(Request("opaque", op, sigma, xs, "numeric", opaque=("ycos", 1.0)))
    return out
