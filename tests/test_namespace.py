"""The package namespace: each public name is listed once, in its module's
``__all__``, and the package exports exactly the union of those lists."""

import importlib

import complexorder

MODULES = ("closed_form", "errors", "evaluation", "functions", "operators", "quadrature", "special")

# The package namespace as of version 0.1.0.
EXPORTED = {
    "CausalFunction", "ComplexOrderError", "ConvergenceError", "DomainError",
    "EvalResult", "EvalStatus", "Method", "MismatchError", "NetOperator", "OpKind",
    "OpaqueFunction", "OperatorExpr", "OperatorStage", "ParseError", "PoleError",
    "PowerTerm", "QuadConfig", "UnsupportedError", "__version__", "apply",
    "apply_closed", "beta", "choose_k", "complex_pow", "differentiate_numeric",
    "gamma", "gamma_ratio", "integrate_exp_lower_inf", "integrate_numeric",
    "is_near_pole", "log_gamma", "normalize", "parse_function", "parse_operator",
    "power_image",
}


def test_package_all_is_the_union_of_the_module_lists():
    lists = [importlib.import_module(f"complexorder.{m}").__all__ for m in MODULES]
    assert complexorder.__all__ == [name for names in lists for name in names] + ["__version__"]
    assert len(set(complexorder.__all__)) == len(complexorder.__all__)
    assert set(complexorder.__all__) == EXPORTED
    assert all(hasattr(complexorder, name) for name in complexorder.__all__)


def test_module_level_names_outside_all_still_import():
    # Read by the benchmark's span table and by the tests, though not exported.
    from complexorder.functions import EXPONENT_MERGE_TOL
    from complexorder.quadrature import (
        central_derivative,
        cheb_nodes01,
        chebyshev_power_moments,
    )
    from complexorder.special import POLE_TOLERANCE, is_near_pole

    assert callable(central_derivative) and callable(cheb_nodes01)
    assert callable(chebyshev_power_moments) and callable(is_near_pole)
    assert POLE_TOLERANCE == 1e-9 and EXPONENT_MERGE_TOL == 1e-12
