"""Status gate: a row reported ``ok`` meets rel_tol against a frozen reference.

The references in ``oracles.OPERATOR_REFERENCES`` come from mpmath alone
(``gen_operator_references.py``), never from the code under test.  Rows with
an error status carry no claim and are not checked.
"""

import math

import pytest

from complexorder import (
    EvalStatus,
    Method,
    OpaqueFunction,
    QuadConfig,
    apply,
    parse_function,
    parse_operator,
)

from oracles import GATE_POINTS, HIGH_ORDER_OPAQUE_REFERENCES, OPERATOR_REFERENCES

# Derivatives of power sums take finite differences of the inner integral,
# which leave ok rows outside rel_tol, mostly at the smallest points: 64 of
# 177 power rows (worst 5.9e-4), e.g. D^(0.5+0.5i) x^1.5 4 of 16 and
# D^1.5 x^(0.3+0.4i) 6 of 15 (worst 1.9e-4).
_FINITE_DIFFERENCES = pytest.mark.xfail(
    strict=True, reason="finite-difference derivatives of power sums report ok outside rel_tol"
)


def _integrand(integrand, x0):
    if isinstance(integrand, str):
        return parse_function(integrand, lower_limit=x0)
    form, w = integrand
    wave = (lambda y: y * math.cos(w * y)) if form == "ycos" else (lambda y: math.sin(w * y))
    return OpaqueFunction(lambda y: wave(y) if y > x0 else 0.0, lower_limit=x0)


@pytest.mark.parametrize(
    "family,operation",
    [
        ("power", "J"),
        pytest.param("power", "D", marks=_FINITE_DIFFERENCES),
        ("opaque", "J"),
        ("opaque", "D"),
        ("exp", "J"),
        ("exp", "D"),
    ],
)
def test_ok_rows_meet_rel_tol_against_frozen_references(family, operation):
    cfg = QuadConfig()
    checked = 0
    outside = []
    for op, integrand, x0, refs in OPERATOR_REFERENCES[family, operation]:
        expr = parse_operator(op, lower_limit=x0)
        rows = apply(expr, _integrand(integrand, x0), GATE_POINTS, Method.NUMERIC, cfg)
        for row, ref in zip(rows, refs):
            if row.status is EvalStatus.OK:
                checked += 1
                err = abs(row.value - ref) / abs(ref)
                if err > cfg.rel_tol:
                    outside.append((op, integrand, row.x, err))
    assert checked > 0
    assert not outside, f"{len(outside)} of {checked} ok rows outside rel_tol: {outside}"


@pytest.mark.xfail(
    strict=True,
    reason="chebyshev_derivative: at Re s >= 3 successive sizes agree while sharing "
    "the rounding that the images amplify, so ok rows are outside rel_tol",
)
def test_high_order_opaque_derivatives_meet_rel_tol():
    # Each row reads ok: 6.9e-9, 2.7e-9 and 2.0e-9 off the 40-digit series.
    cfg = QuadConfig()
    for op, integrand, x, ref in HIGH_ORDER_OPAQUE_REFERENCES:
        (row,) = apply(parse_operator(op), _integrand(integrand, 0.0), [x], Method.NUMERIC, cfg)
        if row.status is EvalStatus.OK:
            assert abs(row.value - ref) / abs(ref) <= cfg.rel_tol, (op, x, row)


def test_complex_opaque_derivatives_meet_rel_tol():
    # y cos(2y) + i sin(3y) has complex samples, so its Chebyshev
    # coefficients are complex; its images are those of the real and the
    # imaginary part, which the frozen references give separately.
    cfg = QuadConfig()
    cases = {}
    for op, integrand, x0, refs in OPERATOR_REFERENCES["opaque", "D"]:
        assert integrand in (("ycos", 2.0), ("sin", 3.0)) and x0 == 0.0
        cases.setdefault(op, {})[integrand[0]] = refs
    f = OpaqueFunction(lambda y: y * math.cos(2.0 * y) + 1j * math.sin(3.0 * y) if y > 0 else 0.0)
    outside = []
    for op, refs in cases.items():
        rows = apply(parse_operator(op), f, GATE_POINTS, Method.NUMERIC, cfg)
        for row, ref_ycos, ref_sin in zip(rows, refs["ycos"], refs["sin"]):
            ref = ref_ycos + 1j * ref_sin
            assert row.status is EvalStatus.OK, (op, row)
            err = abs(row.value - ref) / abs(ref)
            if err > cfg.rel_tol:
                outside.append((op, row.x, err))
    assert len(cases) == 6
    assert not outside, outside
