import itertools
import math

import numpy as np
import pytest

from sgve import bench, pf
from sgve.errors import GameSpecError, PositivityError
from sgve.pf import (MonotoneMap, explicit_map, growth_bracket, growth_rate,
                     growth_rates, log_glasses_apply, log_sum_exp, make_conjugate,
                     max_linear, min_linear)


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
        rhs = make_conjugate(min_linear(fams))(h)
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_conjugate_additive_homogeneity():
    rng = np.random.default_rng(1)
    fams = [[tuple(rng.uniform(0.1, 1, 3)) for _ in range(2)] for _ in range(3)]
    T = min_linear(fams)
    h = rng.uniform(-2, 2, 3)
    for c in (-3.0, 0.4, 7.0):
        lhs = make_conjugate(min_linear(fams))(h + c)
        rhs = make_conjugate(min_linear(fams))(h) + c
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
    out = make_conjugate(min_linear(fams))([0.7, -2.0])
    assert out[0] == 0.7                                   # point mass
    out = make_conjugate(min_linear(fams))([0.0, 0.0])
    assert out[1] == pytest.approx(0.0, abs=1e-15)         # log 1


def test_all_zero_weight_vector_rejected():
    with pytest.raises(GameSpecError, match="all-zero weight vector in coordinate 0"):
        min_linear([[(1.0, 1.0), (0.0, 0.0)], [(1.0, 0.0)]])
    with pytest.raises(GameSpecError, match="all-zero weight vector in coordinate 1"):
        min_linear([[(1.0, 0.0)], [(0.0, 0.0)]])


def test_negative_weight_rejected():
    with pytest.raises(GameSpecError, match="negative weight in coordinate 0"):
        max_linear([[(1.0, -0.1)], [(0.5, 0.5)]])


@pytest.mark.parametrize("call, error, match", [
    (lambda: min_linear([]), GameSpecError, "d must be an integer >= 1, got 0"),
    (lambda: explicit_map([]), GameSpecError, "d must be an integer >= 1, got 0"),
    (lambda: MonotoneMap(d=1.0, kind="minLinear", weights=(((1.0,),),)),
     GameSpecError, "d must be an integer >= 1, got 1.0"),
    (lambda: MonotoneMap(d=True, kind="minLinear", weights=(((1.0,),),)),
     GameSpecError, "d must be an integer >= 1, got True"),
    (lambda: MonotoneMap(d=1, kind="linear", weights=(((1.0,),),)),
     GameSpecError, "unknown map kind 'linear'"),
    (lambda: MonotoneMap(d=2, kind="explicitExpr", exprs=explicit_map(["f1"]).exprs),
     GameSpecError, "one expression per coordinate"),
    (lambda: MonotoneMap(d=1, kind="explicitExpr"),
     GameSpecError, "one expression per coordinate"),
    (lambda: MonotoneMap(d=2, kind="minLinear", weights=(((1.0, 1.0),),)),
     GameSpecError, "one weight family per coordinate"),
    (lambda: MonotoneMap(d=1, kind="maxLinear"),
     GameSpecError, "one weight family per coordinate"),
    (lambda: max_linear([[], [(0.5, 0.5)]]),
     GameSpecError, "coordinate 0 has no weight vectors"),
    (lambda: max_linear([[(1.0,)], [(0.5, 0.5)]]),
     GameSpecError, "weight vector of wrong length in coordinate 0"),
    # one rule whether or not the map's bracket closes
    (lambda: growth_rate(diag_map(2.0, 3.0), np.ones(2), 2.5),
     ValueError, "n must be an integer >= 1, got 2.5"),
    (lambda: growth_rate(min_linear([[(1.0, 1.0)], [(1.0, 1.0)]]), np.ones(2), 2.5),
     ValueError, "n must be an integer >= 1, got 2.5"),
], ids=["no-coordinates-linear", "no-coordinates-explicit", "fractional-d", "bool-d",
        "unknown-kind", "expr-count", "no-exprs", "family-count", "no-weights",
        "empty-family", "short-vector",
        "fractional-n-orbit", "fractional-n-bracket"])
def test_map_input_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()


_OK = (1.0, 2.0)


@pytest.mark.parametrize("families, match", [
    ([[], [_OK]], "coordinate 0 has no weight vectors"),
    ([[_OK], [_OK, (1.0,)]], "weight vector of wrong length in coordinate 1"),
    ([[_OK, (1.0, math.nan)], [_OK]], "non-finite weight in coordinate 0"),
    ([[_OK], [(-math.inf, 1.0)]], "non-finite weight in coordinate 1"),
    ([[_OK], [_OK, (2.0, -1.0)]], "negative weight in coordinate 1"),
    ([[(0.0, 0.0)], [_OK]], "all-zero weight vector in coordinate 0"),
    # the first failing vector reports, coordinates first, then vectors
    ([[_OK, (-1.0, 1.0)], []], "negative weight in coordinate 0"),
    ([[_OK, (-1.0, 1.0)], [(1.0,)]], "negative weight in coordinate 0"),
    ([[(0.0, 0.0), (1.0,)], [_OK]], "all-zero weight vector in coordinate 0"),
    ([[(1.0,), (0.0, 0.0)], [_OK]], "weight vector of wrong length in coordinate 0"),
    ([[(1.0, 1.0, 1.0)], [], [(1.0,)]], "coordinate 1 has no weight vectors"),
    # and of one vector's failures, the first check in this order
    ([[_OK], [(-1.0, math.nan)]], "non-finite weight in coordinate 1"),
    ([[(-1.0, 0.0)], [_OK]], "negative weight in coordinate 0"),
], ids=["empty", "wrong-length", "nan", "infinite", "negative", "all-zero",
        "value-before-empty", "value-before-length", "vector-order-zero",
        "vector-order-length", "empty-before-length", "nan-before-negative",
        "negative-before-zero"])
def test_bad_weight_families(families, match):
    with pytest.raises(GameSpecError, match=f"^{match}"):
        max_linear(families)


def _first_weight_failure(families, d):
    """The per-vector checks, one weight at a time, in the order the map
    reports them: a test oracle for the map's checks."""
    for i, fam in enumerate(families):
        if len(fam) == 0:
            return f"coordinate {i} has no weight vectors"
        for p in fam:
            if len(p) != d:
                return f"weight vector of wrong length in coordinate {i}"
            if not all(map(math.isfinite, p)):
                return f"non-finite weight in coordinate {i}"
            if min(p) < 0:
                return f"negative weight in coordinate {i}"
            if max(p) <= 0:
                return f"all-zero weight vector in coordinate {i}"
    return None


def test_weight_checks_report_the_first_failure_of_the_per_vector_loop():
    rng = np.random.default_rng(61)
    faults = [(), (1.0,), (math.nan, 1.0, 1.0), (1.0, math.inf, 0.0),
              (0.5, -0.5, 1.0), (0.0, 0.0, 0.0)]
    failing = 0
    for _ in range(300):
        families = []
        for _ in range(3):
            fam = [tuple(rng.uniform(0.0, 1.0, 3)) for _ in range(rng.integers(0, 4))]
            for j in range(len(fam)):
                if rng.random() < 0.1:
                    fam[j] = faults[rng.integers(len(faults))]
            families.append(fam)
        expected = _first_weight_failure(families, 3)
        if expected is None:
            assert min_linear(families).weights == tuple(map(tuple, families))
            continue
        failing += 1
        with pytest.raises(GameSpecError) as err:
            min_linear(families)
        assert str(err.value).startswith(expected)
    assert failing > 150


def test_weights_are_stored_as_float_tuples():
    T = MonotoneMap(d=2, kind="minLinear", weights=[[[1, 2]], np.array([[3, 4], [5, 6]])])
    assert T.weights == (((1.0, 2.0),), ((3.0, 4.0), (5.0, 6.0)))
    assert all(type(x) is float for fam in T.weights for p in fam for x in p)
    with pytest.raises(TypeError, match="weights must be numbers"):
        min_linear([[[[1.0], 1.0]], [_OK]])
    with pytest.raises(TypeError, match="weights must be numbers"):
        min_linear([[(10 ** 400, 1.0)], [_OK]])
    # float() reads these as 1.0, 0.0 and 1.5; a weight must be a number
    for bad in ([[(True, 1)], [(1, False)]], [[(np.True_, 1.0)], [_OK]],
                [[("1.5", 1.0)], [_OK]]):
        with pytest.raises(TypeError, match="weights must be numbers"):
            min_linear(bad)


def test_weight_array_leaves_equality_hash_and_repr_alone():
    # the padded array is built at construction from the weights alone, so
    # maps built from equal weights in other containers compare and hash
    # equal, and the repr shows the weights as it always has
    fams = [[(1.0, 2.0), (0.5, 0.0), (0.0, 3.0)], [(1.0, 1.0), (2.0, 0.5)]]
    T = max_linear(fams)
    U = max_linear([[list(p) for p in fam] for fam in fams])
    assert T == U and hash(T) == hash(U)
    assert T != min_linear(fams)
    assert repr(T) == ("MonotoneMap(d=2, kind='maxLinear', weights=(((1.0, 2.0), "
                       "(0.5, 0.0), (0.0, 3.0)), ((1.0, 1.0), (2.0, 0.5))), exprs=None)")
    # the smaller family repeats its first vector; the array is read-only
    assert T._padded.tolist() == [[[1.0, 2.0], [0.5, 0.0], [0.0, 3.0]],
                                  [[1.0, 1.0], [2.0, 0.5], [1.0, 1.0]]]
    assert not T._padded.flags.writeable
    assert explicit_map(["f1"])._padded is None


def test_explicit_maps_from_the_same_texts_compare_and_hash_equal():
    texts = ["0.5*f1 + f2", "f1*f3^0.5", "f3 + 1"]
    T, U = explicit_map(texts), explicit_map(list(texts))
    assert T.exprs is not U.exprs and T == U and hash(T) == hash(U)
    assert T != explicit_map(texts[:2] + ["f3 + 2"])


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


def test_growth_rates_match_one_orbit_per_horizon():
    # the reference is a plain loop that restarts from log e per horizon
    rng = np.random.default_rng(4)
    maps = (min_linear([rng.uniform(0.1, 1.0, (3, 3)) for _ in range(3)]),
            max_linear([rng.uniform(0.1, 1.0, (2, 3)) for _ in range(3)]),
            explicit_map(["0.5*f1 + f2", "f1*f3^0.5", "f3 + 1"]))
    ns = [9, 1, 4, 9, 2]
    for k, T in enumerate(maps):
        e = rng.uniform(0.5, 2.0, 3)
        step = make_conjugate(T)
        bracket = growth_bracket(T)
        assert (bracket is None) == (T.kind == "explicitExpr")
        for n, chi in zip(ns, growth_rates(T, e, ns)):
            h = [np.log(e)]
            for _ in range(n):
                h.append(step(h[-1]))
            assert np.array_equal(chi, np.exp((h[n] - h[n // 2]) / (n - n // 2)))
            if bracket is None:
                assert np.array_equal(chi, growth_rate(T, e, n))
            else:  # the certified rate, whatever the horizon
                assert np.array_equal(growth_rate(T, e, n), np.full(3, bracket.rate))


def _selection_growth(families, reduce) -> float:
    """reduce (min or max) over every choice of one row per coordinate of
    that choice's spectral radius."""
    return reduce(float(np.abs(np.linalg.eigvals(np.array(rows))).max())
                  for rows in itertools.product(*families))


@pytest.mark.parametrize("maker, reduce", [(min_linear, min), (max_linear, max)])
def test_certified_rate_matches_selection_enumeration(maker, reduce):
    rng = np.random.default_rng(12)
    for _ in range(15):
        d = int(rng.integers(2, 5))
        fams = [rng.uniform(0.1, 1.0, (int(rng.integers(1, 4)), d)) for _ in range(d)]
        T = maker(fams)
        want = _selection_growth(fams, reduce)
        lo, hi = growth_bracket(T)
        assert lo <= hi and math.log(hi) - math.log(lo) <= pf.BRACKET_TOL
        assert lo * (1 - 1e-14) <= want <= hi * (1 + 1e-14)
        for e in (np.ones(d), rng.uniform(0.2, 5.0, d)):
            assert np.abs(growth_rate(T, e, 10_000) / want - 1).max() <= 1e-12


@pytest.mark.parametrize("T", [
    diag_map(2.0, 3.0),
    identity_map(3),
    # coordinate 3 grows at 2, the block {1, 2} at its own Perron root
    min_linear([[(0.5, 0.5, 0.0), (0.6, 0.4, 0.0)], [(0.2, 0.9, 0.0)],
                [(0.1, 0.1, 2.0)]]),
    explicit_map(["0.5*f1 + f2", "f1*f3^0.5", "f3 + 1"]),
], ids=["diag", "identity", "reducible-block", "explicit"])
def test_maps_without_a_closed_bracket_fall_back_to_the_orbit(T):
    assert growth_bracket(T) is None
    e = np.linspace(0.5, 2.0, T.d)
    for n in (1, 2, 64):
        assert np.array_equal(growth_rate(T, e, n), growth_rates(T, e, [n])[0])


@pytest.mark.parametrize("d", [2, 3, 8, 30])
def test_perron_vector_matches_the_eigendecomposition(d):
    rng = np.random.default_rng(d)
    for _ in range(5):
        A = rng.uniform(0.01, 1.0, (d, d))
        lam, V = np.linalg.eig(A)
        v = V[:, lam.real.argmax()]
        want = (v / v[np.abs(v).argmax()]).real
        x = pf._perron_vector(A)
        assert x.max() == 1.0 and np.abs(x - want).max() <= 1e-12


@pytest.mark.parametrize("T, want", [
    (max_linear([[(0.0, 2.0)], [(3.0, 0.0)]]), math.sqrt(6)),
    (min_linear([[(0.0, 2.0, 0.0)], [(0.0, 0.0, 1.0)], [(5.0, 0.0, 0.0)]]), 10 ** (1 / 3)),
    # the first coordinate grows like n 0.1^n, so the orbit's estimate
    # reaches the rate 0.1 only as 2 log 2 / n in logs
    (min_linear([[(0.1, 0.392)], [(0.0, 0.1)]]), 0.1),
], ids=["2-cycle", "3-cycle", "jordan"])
def test_maps_with_zero_weights_close_their_bracket(T, want):
    # the cycles' powers cycle, and the Jordan block has no positive
    # eigenvector, but the shifted matrix's normalized powers converge
    lo, hi = growth_bracket(T)
    assert type(lo) is float and type(hi) is float  # the CLI prints their repr
    assert lo * (1 - 1e-14) <= want <= hi * (1 + 1e-14) and hi / lo - 1 <= 1e-14
    assert np.abs(growth_rates(T, np.ones(T.d), [20_000])[0] / want - 1).max() <= 1e-4


def test_a_subnormal_image_takes_the_orbit():
    # T(x)_1 = 1e-310 (x_0 + x_1) is subnormal: it has lost relative accuracy
    T = min_linear([[(1.0, 0.0)], [(1e-310, 1e-310)]])
    assert growth_bracket(T) is None
    assert np.array_equal(growth_rate(T, np.ones(2), 64), growth_rates(T, np.ones(2), [64])[0])


def test_policy_iteration_keeps_a_row_on_ties():
    # at the first Perron vector (1, 2) both rows of coordinate 1 give 2;
    # moving to the first of them as well would lead away from the optimal
    # selection [[0, 1], [1, 1]], whose Perron root is the golden ratio
    T = min_linear([[(2.0, 0.0), (0.0, 1.0)], [(0.0, 2.0), (1.0, 1.0)]])
    assert growth_bracket(T).rate == pytest.approx((1 + math.sqrt(5)) / 2, rel=1e-12)


def test_policy_iteration_gives_up_without_a_closed_bracket(monkeypatch):
    T = min_linear([[(0.6, 0.3), (0.7, 0.4)], [(0.2, 0.9)]])
    assert growth_bracket(T) is not None
    # a bracket that never closes: policy iteration stops once no row improves
    monkeypatch.setattr(pf, "BRACKET_TOL", -1.0)
    assert growth_bracket(T) is None
    assert np.array_equal(growth_rate(T, np.ones(2), 8), growth_rates(T, np.ones(2), [8])[0])
    monkeypatch.setattr(pf, "BRACKET_TOL", 1e-12)
    monkeypatch.setattr(pf, "MAX_POLICY_STEPS", 0)
    assert growth_bracket(T) is None
    monkeypatch.setattr(pf, "MAX_POLICY_STEPS", 100)
    # a weight of JSON's Infinity or NaN never reaches the policy route
    for bad in (math.inf, math.nan):
        with pytest.raises(GameSpecError, match="non-finite weight"):
            max_linear([[(bad, 1.0)], [(1.0, 1.0)]])


def test_growth_rates_need_a_horizon():
    with pytest.raises(ValueError, match="need at least one horizon"):
        growth_rates(identity_map(2), np.ones(2), [])


def test_growth_rate_argument_errors():
    T = identity_map(2)
    with pytest.raises(ValueError):
        growth_rate(T, np.ones(2), 0)
    with pytest.raises(ValueError):
        growth_rates(T, np.ones(2), [4, 0])
    # finite and positive, but of the wrong length
    with pytest.raises(ValueError, match="starting vector must have length 2"):
        growth_rate(T, np.ones(3), 5)
    for bad in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="finite and strictly positive"):
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


def test_explicit_map_parses_and_applies():
    T = explicit_map(["f1^2", "f2"])
    out = log_glasses_apply(T, np.log([3.0, 5.0]))
    assert np.abs(out - np.log([9.0, 5.0])).max() <= 1e-15


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
    # the simplex of one coordinate is the single point q = (1)
    for h in (-2.5, 0.0, 7.0):
        assert bench.kl_dual_grid_max([1.0], [h], 10) == h


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
