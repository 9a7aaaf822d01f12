"""Operator chains: normalization, k selection, chain parsing."""

import math

import numpy as np
import pytest

from complexorder import (
    DomainError,
    OperatorExpr,
    OperatorStage,
    OpKind,
    ParseError,
    choose_k,
    normalize,
    parse_operator,
)


def J(order):
    return OperatorStage(OpKind.INTEGRAL, order)


def D(order):
    return OperatorStage(OpKind.DERIVATIVE, order)


def k_of(sigma):
    """Derivative index of the route J^sigma takes: 0 for a net integral."""
    return 0 if sigma.real > 0 else choose_k(-sigma)


def test_normalize_pure_integrals():
    net = normalize(OperatorExpr(stages=(J(0.5), J(0.5))))
    assert net.sigma == 1


def test_normalize_exact_cancellation():
    s = 0.6 - 0.4j
    net = normalize(OperatorExpr(stages=(D(s), J(s))))
    assert net.sigma == 0


def test_normalize_mixed_chain():
    net = normalize(OperatorExpr(stages=(D(0.3 + 0.2j), J(0.5))))
    assert abs(net.sigma - (0.2 - 0.2j)) <= 1e-16


def test_normalize_net_derivative_k_rule():
    net = normalize(OperatorExpr(stages=(D(2.5 + 1j),)))
    assert net.sigma == -(2.5 + 1j)
    assert choose_k(-net.sigma) == 3
    assert (3 + net.sigma).real > 0


def test_normalize_pure_imaginary_net_order_differentiates_with_k1():
    net = normalize(OperatorExpr(stages=(J(1j),)))
    assert net.sigma == 1j
    assert not net.sigma.real > 0
    assert choose_k(-net.sigma) == 1
    assert (1 + net.sigma).real > 0


@pytest.mark.parametrize(
    "s,expected",
    [(0.5 + 0.25j, 1), (2 + 0j, 3), (1j, 1), (0.999 + 5j, 1), (2.999 - 1j, 3)],
)
def test_choose_k(s, expected):
    k = choose_k(s)
    assert k == expected
    assert k > complex(s).real


def test_normalize_invariant_under_permutation():
    rng = np.random.default_rng(41)
    for _ in range(50):
        stages = []
        for _ in range(int(rng.integers(1, 6))):
            order = complex(rng.uniform(0.05, 2.0), rng.uniform(-1.5, 1.5))
            stages.append(J(order) if rng.random() < 0.5 else D(order))
        net = normalize(OperatorExpr(stages=tuple(stages)))
        shuffled = list(stages)
        rng.shuffle(shuffled)
        net2 = normalize(OperatorExpr(stages=tuple(shuffled)))
        assert abs(net.sigma - net2.sigma) <= 1e-13 * max(1.0, abs(net.sigma))
        if abs(net.sigma) > 1e-12:
            assert k_of(net.sigma) == k_of(net2.sigma)


def test_normalize_invariant_under_stage_splitting():
    rng = np.random.default_rng(42)
    for _ in range(50):
        s = complex(rng.uniform(0.1, 3.0), rng.uniform(-2.0, 2.0))
        t = rng.uniform(0.05, 0.95)
        whole = normalize(OperatorExpr(stages=(J(s),)))
        split = normalize(OperatorExpr(stages=(J(s * t), J(s * (1 - t)))))
        assert abs(whole.sigma - split.sigma) <= 1e-13 * abs(s)
        assert k_of(whole.sigma) == k_of(split.sigma) == 0


def test_derivative_stage_of_order_zero_rejected():
    with pytest.raises(DomainError):
        OperatorStage(OpKind.DERIVATIVE, 0j)
    # J^0 is the explicit identity stage
    net = normalize(OperatorExpr(stages=(J(0j),)))
    assert net.sigma == 0


def test_parse_operator_chain():
    expr = parse_operator("D^(0.5).J^(1+1i)")
    assert expr.stages == (D(0.5), J(1 + 1j))
    assert expr.lower_limit == 0.0


def test_parse_operator_bare_float_order():
    expr = parse_operator("J^1.D^0.5")
    assert expr.stages == (J(1), D(0.5))


def test_parse_operator_lower_limit_passthrough():
    expr = parse_operator("J^(2)", lower_limit=-math.inf)
    assert expr.lower_limit == -math.inf


@pytest.mark.parametrize("text", ["", "K^(1)", "J(1)", "J^", "J^(1).", "J^(1)x"])
def test_parse_operator_errors(text):
    with pytest.raises(ParseError):
        parse_operator(text)
