"""Acceptance gate: every benchmark criterion at its stated tolerance.

Each test prints one pass/fail line; run with ``pytest -s`` to see them all
even on success.  The same checks back ``sgve bench --suite all``.
"""
import pytest

from sgve import bench


def _run(index: int):
    result = bench.run_criteria([index])[0]
    print(f"[{'PASS' if result.passed else 'FAIL'}] criterion {result.index}: "
          f"{result.name} -- {result.summary}")
    for line in result.details:
        print(f"    {line}")
    assert result.passed, f"criterion {result.index} ({result.name}): {result.summary}"


def test_criterion_01_mckinsey_oracle_match():
    """Grid values at resolution 201 within 5e-3 of z/(2 ln(1+z))."""
    _run(1)


def test_criterion_02_discounted_value_oracle_match():
    """Discounted benchmark values within 1e-2 of the closed form."""
    _run(2)


def test_criterion_03_vanishing_discount_fit():
    """Limit near zero, exponent in [0.8, 1.2], coefficient within 10%."""
    _run(3)


def test_criterion_04_common_limit():
    """n-stage and vanishing-discount limits agree within 5e-2."""
    _run(4)


def test_criterion_05_operator_property_suite():
    """Monotonicity, homogeneity, nonexpansiveness within solver slack."""
    _run(5)


def test_criterion_06_perturbation_transfer():
    """Payoff perturbations shift the limit by at most eps + 1e-3."""
    _run(6)


def test_criterion_07_matrix_game_oracle_equivalence():
    """The matrix-game kernel agrees with support enumeration within 2 tol."""
    _run(7)


def test_criterion_08_perron_frobenius_growth():
    """Growth rates match Perron roots and ignore the starting vector."""
    _run(8)


def test_criterion_09_kl_duality():
    """Log-sum-exp equals the simplex-grid dual max within certified slack."""
    _run(9)


def test_criterion_10_convex_payoff_reduction():
    """Finite-support reduction reproduces the full grid value."""
    _run(10)


def test_unknown_suite_names_the_suites():
    with pytest.raises(KeyError, match=r"unknown suite 'nope'; choose from \['all', "):
        bench.run_suite("nope")


def test_criterion_05_fails_on_a_hard_failure(monkeypatch):
    # one check_properties call that raises fails the criterion outright,
    # whatever the other 99 games report
    calls = []
    real = bench.check_properties

    def check_properties(op, pairs):
        calls.append(op)
        if len(calls) == 3:
            raise FloatingPointError("overflow in the operator")
        return real(op, pairs)

    monkeypatch.setattr(bench, "check_properties", check_properties)
    result = bench.run_criteria([5])[0]
    assert len(calls) == 100
    assert not result.passed
    assert result.summary.endswith("hard failures=1")
