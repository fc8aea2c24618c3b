import math

import numpy as np
import pytest

from sgve import bench
from sgve.errors import GameSpecError, PositivityError
from sgve.pf import (MonotoneMap, apply_map, check_cone_properties,
                     explicit_map, growth_rate, log_glasses_apply, log_sum_exp,
                     make_conjugate, max_linear, min_linear, risk_sensitive_apply)


def identity_map(d: int) -> MonotoneMap:
    eye = np.eye(d)
    return min_linear([[tuple(eye[i])] for i in range(d)])


def diag_map(*scales: float) -> MonotoneMap:
    d = len(scales)
    return min_linear([[tuple(scales[i] * np.eye(d)[i])] for i in range(d)])


def test_identity_conjugates_to_identity():
    T = identity_map(3)
    h = np.array([-1.0, 0.3, 2.0])
    assert np.allclose(log_glasses_apply(T, h), h, atol=1e-15)


def test_diagonal_scaling_becomes_translation():
    T = diag_map(2.0, 3.0)
    h = np.array([0.2, -0.7])
    out = log_glasses_apply(T, h)
    assert out[0] == pytest.approx(h[0] + math.log(2.0), abs=1e-15)
    assert out[1] == pytest.approx(h[1] + math.log(3.0), abs=1e-15)


def test_min_linear_pair_sum():
    T = min_linear([[(1.0, 1.0)], [(0.0, 1.0)]])
    h = np.array([0.4, -1.1])
    out = log_glasses_apply(T, h)
    assert out[0] == pytest.approx(math.log(math.exp(h[0]) + math.exp(h[1])),
                                   abs=1e-14)
    assert out[1] == pytest.approx(h[1], abs=1e-14)


def test_conjugation_consistency_two_routes():
    # literal log(T(exp(h))) versus stable log-sum-exp representation
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        fams = [[tuple(rng.uniform(0, 2, d)) for _ in range(rng.integers(1, 4))]
                for _ in range(d)]
        for fam in fams:  # positivity: ensure a positive entry per vector
            for i, p in enumerate(fam):
                if max(p) <= 0:
                    fam[i] = tuple(np.array(p) + 0.5)
        T = min_linear(fams)
        h = rng.uniform(-5, 5, d)
        lhs = log_glasses_apply(T, h)
        rhs = risk_sensitive_apply(fams, h)
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_conjugate_additive_homogeneity():
    rng = np.random.default_rng(1)
    fams = [[tuple(rng.uniform(0.1, 1, 3)) for _ in range(2)] for _ in range(3)]
    T = min_linear(fams)
    h = rng.uniform(-2, 2, 3)
    for c in (-3.0, 0.4, 7.0):
        lhs = risk_sensitive_apply(fams, h + c)
        rhs = risk_sensitive_apply(fams, h) + c
        assert np.abs(lhs - rhs).max() <= 1e-12
        assert np.abs(log_glasses_apply(T, h + c)
                      - (log_glasses_apply(T, h) + c)).max() <= 1e-12


@pytest.mark.parametrize("maker, reduce", [(min_linear, min), (max_linear, max)])
def test_conjugate_matches_per_vector_loop(maker, reduce):
    # the padded (d, F, d) tensor route against one log-sum-exp per weight
    # vector: ragged families, zero weights, same arithmetic, equal bits
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        fams = [[tuple(rng.uniform(0, 2, d) * (rng.uniform(size=d) < 0.7)
                       + 0.5 * np.eye(d)[i]) for _ in range(rng.integers(1, 4))]
                for i in range(d)]
        h = rng.uniform(-5, 5, d)
        with np.errstate(divide="ignore"):
            expected = [reduce(log_sum_exp(np.log(p) + h) for p in fam) for fam in fams]
        assert np.array_equal(make_conjugate(maker(fams))(h), expected)


def test_risk_sensitive_point_mass_and_uniform():
    fams = [[(1.0, 0.0)], [(0.5, 0.5)]]
    out = risk_sensitive_apply(fams, [0.7, -2.0])
    assert out[0] == 0.7                                   # point mass
    out = risk_sensitive_apply(fams, [0.0, 0.0])
    assert out[1] == pytest.approx(0.0, abs=1e-15)         # log 1


def test_all_zero_weight_vector_rejected():
    with pytest.raises(GameSpecError):
        min_linear([[(0.0, 0.0)]])
    with pytest.raises(GameSpecError):
        risk_sensitive_apply([[(1.0, 0.0)], [(0.0, 0.0)]], [0.0, 0.0])


def test_negative_weight_rejected():
    with pytest.raises(GameSpecError):
        max_linear([[(1.0, -0.1)]])


def test_growth_rate_diagonal_exact_any_start():
    T = diag_map(2.0, 3.0)
    for e in ([1.0, 1.0], [0.1, 40.0]):
        for n in (1, 3, 10):
            chi = growth_rate(T, e, n)
            assert np.allclose(chi, [2.0, 3.0], atol=1e-12)


def test_growth_rate_positive_matrix_perron_root():
    A = np.array([[0.6, 0.3], [0.2, 0.9]])
    T = min_linear([[tuple(A[0])], [tuple(A[1])]])
    rho = bench.perron_root(A)
    chi = growth_rate(T, np.ones(2), 4000)
    assert np.abs(chi - rho).max() <= 1e-6


def test_growth_rate_rescaling_invariance():
    # the tail-window estimator cancels additive constants exactly
    rng = np.random.default_rng(2)
    A = rng.uniform(0.2, 1.0, (3, 3))
    T = min_linear([[tuple(row)] for row in A])
    e = rng.uniform(0.5, 2.0, 3)
    base = growth_rate(T, e, 200)
    for s in (1e-3, 7.0, 1e5):
        assert np.abs(growth_rate(T, s * e, 200) - base).max() <= 1e-12


def test_growth_rate_no_overflow_in_log_space():
    # direct iteration of T^n(e) would overflow doubles near n ~ 1000
    T = diag_map(2.0, 3.0)
    chi = growth_rate(T, np.ones(2), 10_000)
    assert np.allclose(chi, [2.0, 3.0], atol=1e-12)


def test_growth_rate_argument_errors():
    T = identity_map(2)
    with pytest.raises(ValueError):
        growth_rate(T, np.ones(2), 0)
    with pytest.raises(PositivityError):
        growth_rate(T, np.array([1.0, 0.0]), 5)
    for bad in (np.inf, np.nan):
        with pytest.raises(PositivityError):
            growth_rate(T, np.array([bad, 1.0]), 5)


def test_log_glasses_positivity_failure():
    T = explicit_map(["f1 - 2", "f2"])
    with pytest.raises(PositivityError):
        log_glasses_apply(T, np.array([0.0, 0.0]))  # T(1,1) = (-1, 1)


def test_log_glasses_overflow_is_reported():
    T = identity_map(1)
    with pytest.raises(PositivityError):
        log_glasses_apply(T, np.array([1e4]))


@pytest.mark.parametrize("text,h", [
    ("f1*f1", 400.0),       # the product overflows although exp(h) does not
    ("log(f1 - 2)", 0.0),   # leaves the real domain at f1 = 1
])
def test_log_glasses_domain_failure_is_positivity_error(text, h):
    with pytest.raises(PositivityError):
        log_glasses_apply(explicit_map([text]), np.array([h]))


def test_apply_map_requires_positive_argument():
    T = identity_map(2)
    with pytest.raises(PositivityError):
        apply_map(T, np.array([1.0, -1.0]))


def test_explicit_map_parses_and_applies():
    T = explicit_map(["f1^2", "f2"])
    out = apply_map(T, np.array([3.0, 5.0]))
    assert out.tolist() == [9.0, 5.0]


def test_cone_properties_min_linear_clean():
    rng = np.random.default_rng(3)
    fams = [[tuple(rng.uniform(0.1, 1, 2)) for _ in range(2)] for _ in range(2)]
    T = min_linear(fams)
    samples = []
    for _ in range(25):
        f = rng.uniform(0.1, 2.0, 2)
        samples.append((f, f + rng.uniform(0, 1, 2), float(rng.uniform(1, 3))))
    report = check_cone_properties(T, samples)
    assert report.order <= 1e-12
    assert report.subhomogeneity <= 1e-12
    assert report.ordered_pairs == 25


def test_cone_properties_identity_clean():
    T = identity_map(2)
    report = check_cone_properties(T, [((1.0, 1.0), (2.0, 2.0), 2.0)])
    assert report.order == 0.0
    assert report.subhomogeneity == 0.0


def test_cone_properties_reverse_ordered_pair():
    # g <= f: the order check compares T(g) against T(f)
    T = explicit_map(["f1 + 1", "f2"])
    report = check_cone_properties(T, [((2.0, 3.0), (1.0, 3.0), 1.0)])
    assert report.ordered_pairs == report.pairs == 1
    assert report.order == 0.0
    anti = explicit_map(["1/f1", "f2"])  # order-reversing in f1
    report = check_cone_properties(anti, [((2.0, 3.0), (1.0, 3.0), 1.0)])
    assert report.order == 0.5


def test_cone_properties_detect_superhomogeneous_map():
    T = explicit_map(["f1^2", "f2"])
    report = check_cone_properties(T, [((1.0, 1.0), (1.5, 1.5), 2.0)])
    # T(2f)_1 = 4 f1^2 exceeds 2 T(f)_1 = 2 f1^2
    assert report.subhomogeneity >= 2.0 - 1e-12


def test_kl_duality_grid_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        p = rng.uniform(0.05, 1.0, 3)
        p /= p.sum()
        h = rng.uniform(-3, 3, 3)
        lse = log_sum_exp(np.log(p) + h)
        for G in (50, 100):
            grid_max = bench.kl_dual_grid_max(p, h, G)
            slack = bench.kl_dual_certified_slack(p, h, G)
            assert -1e-12 <= lse - grid_max <= slack


def test_log_sum_exp_extremes():
    assert log_sum_exp(np.array([-np.inf, 0.0])) == 0.0
    assert log_sum_exp(np.array([1000.0, 1000.0])) == pytest.approx(
        1000.0 + math.log(2.0), abs=1e-12)
    # one sum per slice of the last axis; an all -inf slice gives -inf
    assert np.array_equal(log_sum_exp(np.zeros((2, 2))), np.full(2, math.log(2.0)))
    rows = log_sum_exp(np.array([[-np.inf, -np.inf], [1000.0, 1000.0]]))
    assert rows.shape == (2,)
    assert rows[0] == -np.inf
    assert rows[1] == pytest.approx(1000.0 + math.log(2.0), abs=1e-12)
