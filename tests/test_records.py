"""Value records: repr text, equality and hashing, immutability, pickling and
constructor validation, for every public record type."""

import math
import pickle

import pytest

from complexorder import (
    CausalFunction,
    DomainError,
    EvalResult,
    EvalStatus,
    NetOperator,
    OpaqueFunction,
    OperatorExpr,
    OperatorStage,
    OpKind,
    PowerTerm,
    QuadConfig,
)
from complexorder._parsing import Token
from complexorder.selftest import CheckResult

# (keyword construction, its repr, an invalid construction and its error);
# records without validation have no invalid construction.
CASES = {
    "Token": (
        lambda: Token(kind="number", text="1.5", offset=3),
        "Token(kind='number', text='1.5', offset=3)",
        None,
    ),
    "PowerTerm": (
        lambda: PowerTerm(coef=1 + 2j, exponent=0.5),
        "PowerTerm(coef=(1+2j), exponent=(0.5+0j))",
        (lambda: PowerTerm(coef=math.inf, exponent=0.5), DomainError),
    ),
    "CausalFunction": (
        lambda: CausalFunction(terms=(PowerTerm(2, 1.5), PowerTerm(1, 0.5)), lower_limit=1),
        "CausalFunction(terms=(PowerTerm(coef=(1+0j), exponent=(0.5+0j)), "
        "PowerTerm(coef=(2+0j), exponent=(1.5+0j))), exp_coef=0j, lower_limit=1.0)",
        (lambda: CausalFunction(exp_coef=1, lower_limit=0.0), DomainError),
    ),
    "CausalFunction-exp": (
        lambda: CausalFunction(exp_coef=3, lower_limit=-math.inf),
        "CausalFunction(terms=(), exp_coef=(3+0j), lower_limit=-inf)",
        (lambda: CausalFunction(terms=(PowerTerm(1, 0),), lower_limit=-math.inf), DomainError),
    ),
    "OpaqueFunction": (
        lambda: OpaqueFunction(fn=math.sin, lower_limit=0),
        "OpaqueFunction(fn=<built-in function sin>, lower_limit=0.0)",
        (lambda: OpaqueFunction(fn=math.sin, lower_limit=-math.inf), DomainError),
    ),
    "OperatorStage": (
        lambda: OperatorStage(kind=OpKind.DERIVATIVE, order=0.5),
        "OperatorStage(kind=<OpKind.DERIVATIVE: 'D'>, order=(0.5+0j))",
        (lambda: OperatorStage(kind=OpKind.DERIVATIVE, order=0), DomainError),
    ),
    "OperatorExpr": (
        lambda: OperatorExpr(stages=[OperatorStage(OpKind.INTEGRAL, 1 + 1j)], lower_limit=0),
        "OperatorExpr(stages=(OperatorStage(kind=<OpKind.INTEGRAL: 'J'>, order=(1+1j)),), "
        "lower_limit=0.0)",
        (lambda: OperatorExpr(stages=(), lower_limit=math.nan), DomainError),
    ),
    "NetOperator": (
        lambda: NetOperator(sigma=-0.5 + 0j),
        "NetOperator(sigma=(-0.5+0j))",
        None,
    ),
    "EvalResult": (
        lambda: EvalResult(x=1.0, value=2 + 0j),
        "EvalResult(x=1.0, value=(2+0j), reference=None, abs_err=None, rel_err=None, "
        "status=<EvalStatus.OK: 'ok'>)",
        None,
    ),
    "EvalResult-failure": (
        lambda: EvalResult(x=1.0, value=None, reference=1j, status=EvalStatus.DOMAIN_ERROR),
        "EvalResult(x=1.0, value=None, reference=1j, abs_err=None, rel_err=None, "
        "status=<EvalStatus.DOMAIN_ERROR: 'domain_error'>)",
        None,
    ),
    "QuadConfig": (
        lambda: QuadConfig(rel_tol=1e-12),
        "QuadConfig(rel_tol=1e-12)",
        (lambda: QuadConfig(rel_tol=0.0), ValueError),
    ),
    "CheckResult": (
        lambda: CheckResult(name="semigroup", passed=True, metric=3.5e-12, threshold=1e-6),
        "CheckResult(name='semigroup', passed=True, metric=3.5e-12, threshold=1e-06)",
        None,
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_record_contract(name):
    make, text, invalid = CASES[name]
    record = make()
    assert repr(record) == text
    again = make()
    assert again == record and hash(again) == hash(record)
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is type(record) and restored == record
    if invalid is not None:
        build, error = invalid
        with pytest.raises(error):
            build()
