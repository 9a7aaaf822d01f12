"""Tests of the benchmark itself: seeded inputs, the oracle and error rule,
the tracing wrappers, the printed metric names and the comparison verdicts.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import compare  # noqa: E402
import harness  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Request  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_requests(workload):
    first = list(itertools.islice(workloads.requests(workload, 7), 60))
    again = list(itertools.islice(workloads.requests(workload, 7), 60))
    other = list(itertools.islice(workloads.requests(workload, 8), 60))
    assert first == again
    assert first != other


def test_warmup_orders_are_disjoint_from_measured_orders():
    warm = {r.sigma for r in workloads.warmup_requests("grid-integral")}
    for workload in workloads.WORKLOADS:
        measured = {r.sigma for r in itertools.islice(workloads.requests(workload, 1), 500)}
        assert not warm & measured


def test_request_text_parses_to_the_oracle_values():
    from complexorder import normalize, parse_function, parse_operator

    reqs = itertools.chain.from_iterable(
        itertools.islice(workloads.requests(w, 3), 100) for w in workloads.WORKLOADS
    )
    for req in reqs:
        assert normalize(parse_operator(req.op, lower_limit=req.x0)).sigma == req.sigma
        if req.kind == "power":
            terms = parse_function(req.fn).terms
            assert [(t.coef, t.exponent) for t in terms] == sorted(
                req.terms, key=lambda t: (t[1].real, t[1].imag)
            )


def test_oracle_matches_elementary_closed_forms():
    x = 1.7
    # J^1 of y cos y is x sin x + cos x - 1.
    req = Request("opaque", "J^(1.0+0.0i)", 1 + 0j, (x,), "numeric", opaque=("ycos", 1.0))
    (ref, _), = oracle.references(req)
    assert abs(ref - (x * math.sin(x) + math.cos(x) - 1)) < 1e-14
    # D^1 of sin(w y) is w cos(w x).
    req = Request("opaque", "D^(1.0+0.0i)", -1 + 0j, (x,), "numeric", opaque=("sin", 2.5))
    (ref, _), = oracle.references(req)
    assert abs(ref - 2.5 * math.cos(2.5 * x)) < 1e-13
    # J^0.5 x = Gamma(2)/Gamma(2.5) x^1.5.
    req = Request("power", "J^(0.5+0.0i)", 0.5 + 0j, (x,), "both", terms=((1 + 0j, 1 + 0j),))
    (ref, _), = oracle.references(req)
    assert abs(ref - x**1.5 / math.gamma(2.5)) < 1e-14
    # exp(x) from -inf is its own image at every order.
    req = Request("exp", "J^(0.3+1.0i)", 0.3 + 1j, (x,), "numeric", exp_coef=2j)
    (ref, _), = oracle.references(req)
    assert ref == 2j * math.exp(x)


def _tally(req, value, status="ok"):
    tally = harness.Tally()
    out = harness.Outcome(points=[(status, value, None)])
    tally.add(req, out)
    return tally


def test_value_planted_off_its_reference_counts_as_failed():
    req = Request("power", "D^(0.5+0.25i)", -0.5 - 0.25j, (0.9,), "both", terms=((1 - 1j, 1.5 + 0j),))
    (ref, _), = oracle.references(req)
    assert _tally(req, ref).passed == 1
    planted = _tally(req, ref * (1 + 1e-6))
    assert planted.passed == 0 and planted.silent_inaccurate == 1
    assert _tally(req, ref, status="convergence_error").passed == 0


def test_zero_reference_rule():
    # D^1.5 x^0.5 has coefficient Gamma(1.5)/Gamma(0) = 0.
    req = Request("power", "D^(1.5+0.0i)", -1.5 + 0j, (0.5,), "both", terms=((1 + 0j, 0.5 + 0j),))
    (ref, scale), = oracle.references(req)
    assert ref == 0 and scale == pytest.approx(0.5**-1)
    assert _tally(req, 1e-12).passed == 1
    assert _tally(req, 1e-6).passed == 0


def test_annihilated_requests_have_exactly_zero_references():
    zero = [
        r
        for r in itertools.islice(workloads.requests("grid-derivative", 1), 400)
        if r.kind == "power" and len(r.terms) == 1 and r.terms[0][1] == -r.sigma - 1
    ]
    assert zero
    for req in zero[:3]:
        assert all(ref == 0 for ref, _ in oracle.references(req))


def _snapshot():
    return {
        (name, attr): value
        for name, module in sorted(sys.modules.items())
        if name == "complexorder" or name.startswith("complexorder.")
        for attr, value in vars(module).items()
    }


def test_wrappers_record_spans_and_leave_the_package_unpatched():
    import complexorder
    import complexorder.cli  # noqa: F401  (install imports every traced module)
    from complexorder import evaluation, functions, quadrature, special

    req = Request("power", "D^(0.5+0.5i)", -0.5 - 0.5j, (0.8,), "both", terms=((1 + 0j, 1.0 + 0j),))
    prepared = harness.prepare(req)
    before = _snapshot()
    original_pow = special.complex_pow
    tracer = spans.Tracer()
    with tracer:
        for module in (special, functions, quadrature, evaluation):
            assert module.complex_pow is not original_pow
        assert {"special.is_near_pole", "quadrature.cheb_nodes01", "cli.main"} <= set(spans.NAMES)
        for name in spans.NAMES:
            module_name, attr = name.split(".")
            assert hasattr(getattr(sys.modules[f"complexorder.{module_name}"], attr), "__wrapped__")
        assert complexorder.apply is not before[("complexorder", "apply")]
        tracer.current_request = 0
        harness.execute(req, prepared)
    assert _snapshot() == before
    arrays = tracer.arrays()
    names = {spans.NAMES[i] for i in arrays["name"]}
    assert {"evaluation.apply", "quadrature.differentiate_numeric", "quadrature.central_derivative",
            "quadrature.integrate_numeric", "quadrature.chebyshev_power_moments",
            "special.complex_pow", "operators.normalize"} <= names
    root = arrays["parent"] == -1
    assert list(arrays["name"][root]) == [spans.NAMES.index("evaluation.apply")]
    duration = arrays["end"] - arrays["start"]
    assert (arrays["self"] <= duration + 1e-12).all()
    assert arrays["self"].sum() == pytest.approx(duration[root].sum(), rel=1e-9)


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(monkeypatch, capsys, trace, section):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setitem(run.TRACE_REQUESTS, "grid-integral", 4)
    assert run.main(["--workload", "grid-integral", "--seed", "1", "--seconds", "0.3",
                     "--trace", str(trace)]) == 0
    result = _last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in SPEC[section])


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_comparison_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.2 for v in parent]
    same = [v + (0.1 if i % 2 else -0.1) for i, v in enumerate(parent)]
    assert compare.verdict(parent, faster, "lower", 0.1, 0, 0) == (1.0, "improved")
    assert compare.verdict(parent, slower, "lower", 0.1, 0, 0) == (0.0, "regressed")
    assert compare.verdict(parent, same, "lower", 0.1, 0, 0)[1] == "no worse"
    assert compare.verdict(parent, faster, "lower", 0.1, 0, 1)[1] == "no worse"
    wide = [50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0]
    assert compare.verdict(wide, [v * 0.95 for v in wide], "lower", 0.1, 0, 0)[1] == "unresolved"
    assert compare.verdict(parent, slower, "higher", 0.1, 0, 0)[1] == "improved"


def test_quantile_estimator():
    assert run.quantile([5.0, 1.0, 3.0], 0.5) == pytest.approx(3.0)
    assert run.quantile([float(i) for i in range(1, 102)], 0.5) == pytest.approx(51.0)
    # Between two clusters the estimate moves smoothly with their sizes.
    assert run.quantile([1.0] * 50 + [2.0] * 50, 0.5) == pytest.approx(1.5)
    assert 1.0 < run.quantile([1.0] * 52 + [2.0] * 48, 0.5) < 1.5
    assert run.quantile([float(i) for i in range(1000)], 0.9) == pytest.approx(899.1, abs=0.5)
