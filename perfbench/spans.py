"""Spans around the public functions of each complexorder module.

``Tracer.install`` replaces every public function of the modules in
``MODULES`` (``TARGETS``: each function a module defines whose name does not
start with an underscore) by a wrapper under each name it is looked up by:
modules that imported it by name (``from .special import complex_pow`` in
``functions``, ``quadrature`` and ``evaluation``; ``gamma_ratio`` in
``closed_form``; ``normalize`` in ``closed_form`` and ``evaluation``), the
module itself (so recursive and intra-module calls are seen, and
``evaluation`` reaching quadrature through its ``_quad`` alias goes through
the wrapper) and the package namespace.
``restore`` puts every original back.

Spans are kept in flat arrays (name, start, end, parent span, request id)
and written out once at the end.  A span's self time is its duration minus
the durations of its child spans.  Private helpers (``_cheb_coefficients``,
``_converge``, ...) get no span: their time is their caller's self time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("special", "functions", "operators", "closed_form", "quadrature", "evaluation", "cli")


def public_functions(module_name: str) -> list[str]:
    """Names of the functions ``module_name`` defines itself, in definition
    order, except those starting with an underscore."""
    module = importlib.import_module(f"complexorder.{module_name}")
    return [
        attr
        for attr, value in vars(module).items()
        if inspect.isfunction(value) and not attr.startswith("_") and value.__module__ == module.__name__
    ]


TARGETS = {m: tuple(public_functions(m)) for m in MODULES}
NAMES = tuple(f"{m}.{f}" for m, fs in TARGETS.items() for f in fs)
MOMENTS = NAMES.index("quadrature.chebyshev_power_moments")


class Tracer:
    """Installs span-recording wrappers; a context manager restores them."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        # chebyshev_power_moments arguments, one entry per call: (sigma, n).
        self.moment_args: list[tuple[complex, int]] = []
        self.current_request = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn):
        name, parent, request, start, end = self.name, self.parent, self.request, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        moment_args = self.moment_args if name_id == MOMENTS else None

        def traced(*args, **kwargs):
            i = len(name)
            name.append(name_id)
            parent.append(stack[-1])
            request.append(self.current_request)
            end.append(0.0)
            if moment_args is not None:
                moment_args.append((complex(args[0]), int(args[1])))
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> "Tracer":
        owners = {m: importlib.import_module(f"complexorder.{m}") for m in TARGETS}
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "complexorder" or key.startswith("complexorder."))
        ]
        for module_name, funcs in TARGETS.items():
            owner = owners[module_name]
            for func in funcs:
                original = getattr(owner, func)
                wrapper = self._wrap(NAMES.index(f"{module_name}.{func}"), original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patched.append((m, attr, original))
                            setattr(m, attr, wrapper)
        return self

    def restore(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy arrays, with self time derived from child spans."""
        start = np.frombuffer(self.start, dtype=float).copy()
        end = np.frombuffer(self.end, dtype=float).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        duration = end - start
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        args = np.array(self.moment_args, dtype=complex).reshape(-1, 2)
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": parent,
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
            "start": start,
            "end": end,
            "self": duration - child,
            "moment_sigma": args[:, 0],
            "moment_n": args[:, 1].real.astype(np.int64),
        }


def concat(parts: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Join span arrays of separate processes; parents are re-based and each
    part's request ids are offset past the previous part's."""
    if not parts:
        return Tracer().arrays()
    out: dict[str, list] = {k: [] for k in parts[0]}
    span_base = request_base = 0
    for part in parts:
        for k, v in part.items():
            if k == "parent":
                v = np.where(v >= 0, v + span_base, -1)
            elif k == "request":
                v = np.where(v >= 0, v + request_base, -1)
            out[k].append(v)
        span_base += len(part["name"])
        if len(part["request"]):
            request_base += int(part["request"].max()) + 1
    return {k: np.concatenate(v) for k, v in out.items()}


def layer_metrics(spans: dict[str, np.ndarray], points: int, requests: int) -> dict[str, float]:
    """Per-layer metrics from spans over ``points`` points in ``requests``."""
    name, self_time = spans["name"], spans["self"]

    def count(n: str) -> int:
        return int(np.count_nonzero(name == NAMES.index(n)))

    def self_s(n: str) -> float:
        return float(self_time[name == NAMES.index(n)].sum())

    def per_call_us(n: str) -> float:
        c = count(n)
        return self_s(n) / c * 1e6 if c else 0.0

    def module_self(module: str) -> float:
        return sum(self_s(n) for n in NAMES if n.startswith(module + "."))

    # Degree reached per integral: the largest n its moment calls asked for;
    # the number of distinct n is the number of estimates it made.
    moment_rows = np.flatnonzero(name == MOMENTS)
    owner = spans["parent"][moment_rows]
    n_of = spans["moment_n"]
    degrees, estimates = [], []
    if len(moment_rows):
        order = np.argsort(owner, kind="stable")
        owner_sorted, n_sorted = owner[order], n_of[order]
        bounds = np.flatnonzero(np.diff(owner_sorted)) + 1
        for group in np.split(n_sorted, bounds):
            degrees.append(int(group.max()))
            estimates.append(len(np.unique(group)))
    distinct = len(set(zip(spans["moment_sigma"].tolist(), n_of.tolist())))
    calls = len(moment_rows)

    def per_point(v: float) -> float:
        return v / points if points else 0.0

    def per_request(v: float) -> float:
        return v / requests if requests else 0.0

    return {
        "special.complex_pow.calls_per_point": per_point(count("special.complex_pow")),
        "special.complex_pow.self_ms_per_point": per_point(self_s("special.complex_pow") * 1e3),
        "special.gamma.calls_per_point": per_point(count("special.gamma")),
        "special.log_gamma.calls_per_point": per_point(count("special.log_gamma")),
        "special.gamma.self_us_per_call": per_call_us("special.gamma"),
        "functions.parse_function.self_us": per_request(self_s("functions.parse_function") * 1e6),
        "operators.self_us_per_request": per_request(module_self("operators") * 1e6),
        "closed_form.apply_closed.self_us_per_request": per_request(
            self_s("closed_form.apply_closed") * 1e6
        ),
        "quadrature.integrate_numeric.calls_per_point": per_point(count("quadrature.integrate_numeric")),
        "quadrature.integrate_numeric.self_ms_per_point": per_point(
            self_s("quadrature.integrate_numeric") * 1e3
        ),
        "quadrature.central_derivative.self_ms_per_point": per_point(
            self_s("quadrature.central_derivative") * 1e3
        ),
        "quadrature.integrate_exp_lower_inf.calls_per_point": per_point(
            count("quadrature.integrate_exp_lower_inf")
        ),
        "quadrature.integrate_exp_lower_inf.self_ms_per_point": per_point(
            self_s("quadrature.integrate_exp_lower_inf") * 1e3
        ),
        "quadrature.chebyshev_power_moments.calls_per_point": per_point(calls),
        "quadrature.chebyshev_power_moments.self_us_per_call": per_call_us(
            "quadrature.chebyshev_power_moments"
        ),
        "quadrature.moment_reuse_ratio": 1.0 - distinct / calls if calls else 0.0,
        "quadrature.degree_reached_p50": float(np.median(degrees)) if degrees else 0.0,
        "quadrature.degree_reached_max": float(max(degrees)) if degrees else 0.0,
        "quadrature.estimates_per_integral": float(np.mean(estimates)) if estimates else 0.0,
        "evaluation.apply.self_ms_per_point": per_point(self_s("evaluation.apply") * 1e3),
        "cli.run.self_ms": per_request(self_s("cli.run") * 1e3),
    }
