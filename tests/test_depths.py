import math
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvedepth import core, depths
from curvedepth.core import (
    Curve,
    FunctionalSample,
    InputError,
    ParameterError,
    uniform_grid,
)
from curvedepth.depths import (
    DEPTH_IDS,
    DepthParams,
    _uniform_masses,
    depth_values,
    draw_directions,
    evaluate_depth,
    halfspace_depth_1d,
    upper_bound,
)
from curvedepth.distributions import (
    GPSpec,
    Kernel,
    counterexample_P3,
    counterexample_P3_RT,
    counterexample_P5,
    sample_gp,
)

from band_oracles import (
    band_depth_brute,
    mbd_value_from_counts,
    modified_band_depth_brute,
)

SQRT_2PI = math.sqrt(2 * math.pi)


@pytest.fixture(scope="module")
def gp_sample():
    spec = GPSpec(kernel=Kernel("se", 1.0, 0.2), grid=uniform_grid(0, 1, 101))
    return sample_gp(spec, 2000, seed=0)


def constants_sample(levels, m=11):
    g = uniform_grid(0, 1, m)
    return FunctionalSample(np.array([[lv] * m for lv in levels], dtype=float), g)


def const_curve(level, grid):
    return Curve(np.full(grid.m, float(level)), grid)


# ---------------------------------------------------------------------------
# One-dimensional halfspace depth
# ---------------------------------------------------------------------------


def test_halfspace_single_point():
    assert halfspace_depth_1d(5.0, np.array([5.0])) == 1.0


def test_halfspace_three_points():
    vals = np.array([1.0, 2.0, 3.0])
    assert halfspace_depth_1d(2.0, vals) == pytest.approx(2 / 3)
    assert halfspace_depth_1d(0.0, vals) == 0.0
    assert halfspace_depth_1d(10.0, vals) == 0.0


def test_halfspace_weighted_and_empty():
    vals = np.array([0.0, 1.0])
    assert halfspace_depth_1d(0.0, vals, np.array([0.25, 0.75])) == 0.25
    with pytest.raises(InputError):
        halfspace_depth_1d(0.0, np.array([]))


# ---------------------------------------------------------------------------
# h-depth
# ---------------------------------------------------------------------------


def test_h_depth_own_single_curve():
    g = uniform_grid(0, 1, 21)
    x = Curve(np.sin(g.points), g)
    s = FunctionalSample(x.values[None, :], g)
    r = evaluate_depth("h", x, s, DepthParams(h=1.0))
    assert abs(r - 1.0 / SQRT_2PI) < 1e-9  # K_1(0) = 0.3989422804014327


def test_h_depth_two_atoms_hand_value():
    # atoms at 0 and 1 on [0,1], L2 distances from x == 0 are 0 and 1:
    # D = (K_1(0) + K_1(1)) / 2 = (1 + e^{-1/2}) / (2 sqrt(2 pi)) = 0.32045649...
    s = constants_sample([0.0, 1.0], m=101)
    x = const_curve(0.0, s.grid)
    expected = (1 + math.exp(-0.5)) / (2 * SQRT_2PI)
    assert abs(evaluate_depth("h", x, s, DepthParams(h=1.0)) - expected) < 1e-6
    assert expected == pytest.approx(0.3204565, abs=1e-6)


def test_h_depth_changes_under_scaling():
    # scaling curves and query by sqrt(2) doubles squared distances:
    # D = (1 + e^{-1}) / (2 sqrt(2 pi)) = 0.27285246... != 0.32045649...
    s = constants_sample([0.0, 1.0], m=101)
    scaled = FunctionalSample(s.values * math.sqrt(2), s.grid)
    x = const_curve(0.0, s.grid)
    expected = (1 + math.exp(-1.0)) / (2 * SQRT_2PI)
    got = evaluate_depth("h", x, scaled, DepthParams(h=1.0))
    assert abs(got - expected) < 1e-6
    assert abs(got - evaluate_depth("h", x, s, DepthParams(h=1.0))) > 0.04


def test_h_depth_rejects_bad_bandwidth():
    s = constants_sample([0.0, 1.0])
    with pytest.raises(ParameterError):
        evaluate_depth("h", const_curve(0.0, s.grid), s, DepthParams(h=0.0))
    with pytest.raises(ParameterError):
        DepthParams(h=-1.0)
    with pytest.raises(ParameterError):  # 2 h^2 underflows to 0
        DepthParams(h=1e-200)
    assert DepthParams(h=1e-160).h == 1e-160


# ---------------------------------------------------------------------------
# Random Tukey depth
# ---------------------------------------------------------------------------


def test_rt_single_curve_is_one():
    g = uniform_grid(0, 1, 31)
    x = Curve(np.cos(g.points), g)
    s = FunctionalSample(x.values[None, :], g)
    assert evaluate_depth("rt", x, s, DepthParams(k=7, seed=1)) == 1.0


def test_rt_two_atom_tie():
    # projections of the two constant atoms are two equal point masses, so
    # every constant strictly between them has projected depth exactly 1/2
    d = counterexample_P3_RT()
    s = d.as_sample()
    s_unif = FunctionalSample(d.values, d.grid)  # n=2 uniform rows
    params = DepthParams(k=20, seed=5)
    for c in (-0.5, 0.0, 0.3, 0.6, 1.5, 2.0):
        r = evaluate_depth("rt", const_curve(c, d.grid), s_unif, params)
        assert r == 0.5, f"c={c}: {r}"
    # the weighted two-atom sample gives the same tie
    assert evaluate_depth("rt", const_curve(0.3, d.grid), s, params) == 0.5


def test_rt_zero_curve_near_half_on_gp(gp_sample):
    params = DepthParams(k=20, seed=2)
    r = evaluate_depth("rt", const_curve(0.0, gp_sample.grid), gp_sample, params)
    assert abs(r - 0.5) < 0.05, r


def test_rt_directions_deterministic():
    g = uniform_grid(0, 1, 51)
    a = draw_directions(g, 10, seed=9)
    b = draw_directions(g, 10, seed=9)
    np.testing.assert_array_equal(a, b)
    norms = np.sqrt((a * a) @ g.weights)
    np.testing.assert_allclose(norms, 1.0, rtol=1e-12)


# ---------------------------------------------------------------------------
# Band depth, sample form
# ---------------------------------------------------------------------------


def test_bd_own_curve_two_sample():
    g = uniform_grid(0, 1, 11)
    rng = np.random.default_rng(0)
    s = FunctionalSample(rng.normal(size=(2, 11)), g)
    assert evaluate_depth("bd", Curve(s.values[0], s.grid), s, DepthParams(J=2)) == 1.0


def test_bd_sample_level_counterexample():
    d = counterexample_P3()
    s = FunctionalSample(d.values, d.grid)  # one curve per atom, uniform
    x = const_curve(0.0, d.grid)
    assert evaluate_depth("bd", x, s, DepthParams(J=2)) == 1.0


def test_bd_rejects_bad_order_and_weights():
    d = counterexample_P3()
    s = FunctionalSample(d.values, d.grid)
    with pytest.raises(ParameterError):
        evaluate_depth("bd", const_curve(0.0, d.grid), s, DepthParams(J=3))  # J > n
    with pytest.raises(ParameterError):
        evaluate_depth("bd", const_curve(0.0, d.grid), s, DepthParams(J=1))
    weighted = FunctionalSample(d.values, d.grid, weights=np.array([0.3, 0.7]))
    with pytest.raises(ParameterError, match="AtomicDistribution"):
        evaluate_depth("bd", const_curve(0.0, d.grid), weighted, DepthParams(J=2))
    with pytest.raises(ParameterError, match="AtomicDistribution"):
        evaluate_depth("mbd", const_curve(0.0, d.grid), weighted, DepthParams(J=2))


def test_bd_matches_brute_on_random_sample():
    rng = np.random.default_rng(3)
    g = uniform_grid(0, 1, 15)
    s = FunctionalSample(rng.normal(size=(10, 15)), g)
    x = Curve(rng.normal(size=15), g)
    for J in (2, 3):
        assert (
            evaluate_depth("bd", x, s, DepthParams(J=J))
            == band_depth_brute(x, s, J)
        )
    # and for a query with ties (an actual sample curve)
    q = Curve(s.values[4], s.grid)
    for J in (2, 3):
        assert (
            evaluate_depth("bd", q, s, DepthParams(J=J))
            == band_depth_brute(q, s, J)
        )


def test_bd_high_order_tuple_budget():
    # C(30, 4) + ... + C(30, 6) = 763686 subsets fit MAX_BAND_TUPLES = 10**6;
    # C(80, 4) = 1581580 and C(30, 4) + ... + C(30, 7) = 2799486 do not
    small = constants_sample(np.arange(30.0))
    x = const_curve(14.5, small.grid)
    assert (
        evaluate_depth("bd", x, small, DepthParams(J=4))
        == band_depth_brute(x, small, J=4)
    )
    with pytest.raises(ParameterError):
        evaluate_depth("bd", x, constants_sample(np.arange(80.0)), DepthParams(J=4))
    with pytest.raises(ParameterError):
        evaluate_depth("bd", x, small, DepthParams(J=7))


# ---------------------------------------------------------------------------
# Modified band depth, sample form
# ---------------------------------------------------------------------------


def test_mbd_constants_hand_values():
    s = constants_sample([0.0, 1.0, 2.0])
    one = const_curve(1.0, s.grid)
    zero = const_curve(0.0, s.grid)
    params = DepthParams(J=2)
    assert evaluate_depth("mbd", one, s, params) == pytest.approx(1.0, abs=1e-12)
    assert evaluate_depth("mbd", zero, s, params) == pytest.approx(
        2 / 3, abs=1e-12
    )


def test_mbd_matches_brute_on_random_sample():
    rng = np.random.default_rng(4)
    g = uniform_grid(0, 1, 9)
    s = FunctionalSample(rng.normal(size=(10, 9)), g)
    x = Curve(rng.normal(size=9), g)
    for J in (2, 3):
        assert (
            evaluate_depth("mbd", x, s, DepthParams(J=J))
            == modified_band_depth_brute(x, s, J)
        )


def test_mbd_counts_past_int64_stay_exact():
    # C(25600, 5) exceeds the int64 range; the query sits above 12800
    # constants and below 12799, so at every grid point the count is
    # C(n, j) - C(12800, j) - C(12799, j)
    n, a, b = 25600, 12799, 12800
    s = constants_sample(np.arange(float(n)), m=3)
    x = const_curve(float(b), s.grid)
    want = sum(
        (math.comb(n, j) - math.comb(a, j) - math.comb(b, j)) / math.comb(n, j)
        for j in range(2, 6)
    )
    got = evaluate_depth("mbd", x, s, DepthParams(J=5))
    assert got == pytest.approx(want, rel=1e-12)


def test_mbd_at_least_band_depth():
    rng = np.random.default_rng(5)
    g = uniform_grid(0, 1, 21)
    s = FunctionalSample(rng.normal(size=(12, 21)), g)
    for _ in range(5):
        x = Curve(rng.normal(size=21), g)
        assert (
            evaluate_depth("mbd", x, s, DepthParams(J=2))
            >= evaluate_depth("bd", x, s, DepthParams(J=2)) - 1e-12
        )


# ---------------------------------------------------------------------------
# Atomic (population-exact) band depths
# ---------------------------------------------------------------------------


def test_atomic_band_depth_exact_counterexample_values():
    d = counterexample_P3()
    x1 = d.atom(0)
    assert evaluate_depth("bd", x1, d, DepthParams(J=2)) == 0.75
    assert evaluate_depth("mbd", x1, d, DepthParams(J=2)) == 0.75
    for c in (0.0, 0.1, 0.2, -0.3):
        q = const_curve(c, d.grid)
        assert evaluate_depth("bd", q, d, DepthParams(J=2)) == 0.5
        assert evaluate_depth("mbd", q, d, DepthParams(J=2)) == 0.5


def test_atomic_band_depth_single_atom():
    from curvedepth.distributions import constant_distribution

    d = constant_distribution(3.0, uniform_grid(0, 1, 7))
    x = d.atom(0)
    assert evaluate_depth("bd", x, d, DepthParams(J=2)) == 1.0
    assert evaluate_depth("mbd", x, d, DepthParams(J=2)) == 1.0


def test_atomic_band_depth_p5_value():
    # tuples containing the top atom: (u,u), (u,z)x2, (u,l)x2 -> 5/9
    d = counterexample_P5()
    assert evaluate_depth("bd", d.atom(0), d, DepthParams(J=2)) == pytest.approx(
        5 / 9, abs=1e-12
    )


def test_atomic_budget_errors():
    g = uniform_grid(0, 1, 3)
    from curvedepth.distributions import AtomicDistribution

    big = AtomicDistribution(
        np.arange(27.0).reshape(9, 3), np.full(9, 1 / 9), g
    )
    with pytest.raises(ParameterError):
        evaluate_depth("bd", const_curve(0.0, g), big, DepthParams(J=2))
    d = counterexample_P3()
    with pytest.raises(ParameterError):
        evaluate_depth("mbd", const_curve(0.0, d.grid), d, DepthParams(J=5))


def atomic_queries(dist):
    """The atoms, constants between and beyond them, and a half-way curve."""
    consts = [np.full(dist.grid.m, c) for c in (-2.0, -0.3, 0.0, 0.1, 0.25, 0.9, 3.0)]
    mid = 0.5 * (dist.values[0] + dist.values[-1])
    return np.vstack([dist.values, *consts, mid])


@pytest.mark.parametrize("make", [counterexample_P3, counterexample_P5])
@pytest.mark.parametrize("depth", ["h", "rt", "hr", "mhr"])
def test_atomic_distribution_is_its_weighted_sample(make, depth):
    # h, rt, hr and mhr see an atomic distribution as its weighted atoms
    dist = make()
    Q = atomic_queries(dist)
    params = DepthParams(h=0.7, J=3, k=5, seed=2)
    got = depth_values(depth, Q, dist, params)
    want = depth_values(depth, Q, dist.as_sample(), params)
    assert np.array_equal(got, want), (got, want)


@pytest.mark.parametrize("make", [counterexample_P3, counterexample_P5])
@pytest.mark.parametrize("depth", ["bd", "mbd", "hr", "mhr"])
@pytest.mark.parametrize("J", [2, 3])
def test_atomic_batch_equals_each_row_alone(make, depth, J):
    dist = make()
    Q = atomic_queries(dist)
    params = DepthParams(J=J)
    vals = depth_values(depth, Q, dist, params)
    for i, q in enumerate(Q):
        assert vals[i] == depth_values(depth, q, dist, params)[0], (depth, i)
        assert vals[i] == evaluate_depth(depth, Curve(q, dist.grid), dist, params)


def test_mbd_big_count_budget():
    # 294 band orders past int64 at each of 101 grid points
    s = constants_sample(np.arange(2000.0), m=101)
    with pytest.raises(ParameterError, match="int64"):
        depth_values("mbd", s.values[:1], s, DepthParams(J=300))
    # few grid points keep the int64 budget, but C(2000, j) passes the
    # float range before j = 300
    s2 = constants_sample(np.arange(2000.0), m=2)
    with pytest.raises(ParameterError, match="float range"):
        depth_values("mbd", s2.values[:1], s2, DepthParams(J=300))


# ---------------------------------------------------------------------------
# Half-region depths
# ---------------------------------------------------------------------------


def test_hr_own_single_curve():
    g = uniform_grid(0, 1, 13)
    x = Curve(np.exp(g.points), g)
    s = FunctionalSample(x.values[None, :], g)
    assert evaluate_depth("hr", x, s) == 1.0
    assert evaluate_depth("mhr", x, s) == 1.0


def test_hr_constants_hand_value():
    s = constants_sample([0.0, 1.0, 2.0])
    one = const_curve(1.0, s.grid)
    assert evaluate_depth("hr", one, s) == pytest.approx(2 / 3)
    assert evaluate_depth("mhr", one, s) == pytest.approx(2 / 3)


def test_hr_zero_beats_far_constant_on_gp(gp_sample):
    # among constant queries on a centred stationary GP, the zero level
    # maximizes the chance of trapping whole curves on one side, so its
    # half-region depth dominates that of a far constant
    zero = const_curve(0.0, gp_sample.grid)
    far = const_curve(1.5, gp_sample.grid)
    d_zero = evaluate_depth("hr", zero, gp_sample)
    d_far = evaluate_depth("hr", far, gp_sample)
    assert d_zero > d_far, (d_zero, d_far)
    assert d_zero > 0.0


def test_mhr_zero_near_half_on_gp(gp_sample):
    r = evaluate_depth("mhr", const_curve(0.0, gp_sample.grid), gp_sample)
    assert abs(r - 0.5) < 0.05, r


# ---------------------------------------------------------------------------
# Invariants & Properties (hypothesis; 1000 fuzz cases per invariant)
# ---------------------------------------------------------------------------

N_FUZZ = 1000


@st.composite
def small_sample_and_query(draw, max_n=10, max_m=16, quantize_allowed=True):
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=2, max_value=max_m))
    vals = draw(
        st.lists(
            st.floats(min_value=-8, max_value=8, allow_nan=False),
            min_size=(n + 1) * m,
            max_size=(n + 1) * m,
        )
    )
    arr = np.array(vals, dtype=float).reshape(n + 1, m)
    # keep values on a 1e-3 lattice: distinct values stay separated by
    # far more than float noise, so order relations survive shifts and
    # power-of-two scalings verbatim (no subnormal-collision artifacts)
    arr = np.round(arr * 1000.0) / 1000.0
    if quantize_allowed and draw(st.booleans()):
        arr = np.round(arr)  # force many exact ties
    # band counting groups rows by their pattern against the query, so
    # also draw samples where that pattern repeats: the query copied into
    # e >= 2 rows, duplicated rows, and copies mixed with partial ties
    ties = draw(st.sampled_from(("none", "copies", "duplicates", "mixed")))
    if ties in ("copies", "mixed"):
        e = draw(st.integers(min_value=2, max_value=n))
        arr[draw(st.permutations(range(n)))[:e]] = arr[n]
    if ties == "duplicates":
        # n draws from n - 1 rows: some row appears at least twice
        src = draw(st.lists(st.integers(0, n - 2), min_size=n, max_size=n))
        arr[:n] = arr[src]
    if ties == "mixed":
        meet = draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m))
        meet = np.array(meet).reshape(n, m)
        arr[:n][meet] = np.broadcast_to(arr[n], (n, m))[meet]
    g = uniform_grid(0, 1, m)
    sample = FunctionalSample(arr[:n], g)
    query = Curve(arr[n], g)
    return sample, query


@settings(max_examples=N_FUZZ, deadline=None)
@given(small_sample_and_query())
def test_fuzz_range_bounds(sq):
    sample, x = sq
    J = min(3, sample.n)
    params = DepthParams(h=0.7, J=J, k=3, seed=1)
    for depth in ("h", "rt", "bd", "mbd", "hr", "mhr"):
        v = evaluate_depth(depth, x, sample, params)
        hi = upper_bound(depth, h=params.h, J=params.J)
        assert -1e-12 <= v <= hi + 1e-12, (depth, v, hi)


@settings(max_examples=N_FUZZ, deadline=None)
@given(small_sample_and_query())
def test_fuzz_brute_force_equivalence(sq):
    sample, x = sq
    for J in range(2, min(4, sample.n) + 1):
        assert (
            evaluate_depth("bd", x, sample, DepthParams(J=J))
            == band_depth_brute(x, sample, J)
        )
        assert (
            evaluate_depth("mbd", x, sample, DepthParams(J=J))
            == modified_band_depth_brute(x, sample, J)
        )


@settings(max_examples=N_FUZZ, deadline=None)
@given(small_sample_and_query())
def test_fuzz_weight_consistency_duplicate_halve(sq):
    # duplicating a curve while halving its weight leaves the empirical
    # measure unchanged, hence the depth, for the weight-linear depths
    sample, x = sq
    dup_vals = np.vstack([sample.values, sample.values[:1]])
    w = np.full(sample.n, 1.0 / sample.n)
    dup_w = np.concatenate([w, [w[0] / 2]])
    dup_w[0] /= 2
    dup = FunctionalSample(dup_vals, sample.grid, weights=dup_w)
    params = DepthParams(h=0.7, k=3, seed=1)
    for depth in ("h", "rt", "hr", "mhr"):
        a = evaluate_depth(depth, x, sample, params)
        b = evaluate_depth(depth, x, dup, params)
        assert abs(a - b) <= 1e-12, (depth, a, b)


@settings(max_examples=N_FUZZ, deadline=None)
@given(small_sample_and_query())
def test_fuzz_translation_invariance(sq):
    sample, x = sq
    rng = np.random.default_rng(11)
    shift = np.round(rng.normal(size=sample.grid.m) * 1000.0) / 1000.0
    shifted = FunctionalSample(sample.values + shift, sample.grid)
    xs = Curve(x.values + shift, sample.grid)
    J = min(3, sample.n)
    params = DepthParams(h=0.7, J=J, k=3, seed=1)
    for depth in ("h", "rt", "bd", "mbd", "hr", "mhr"):
        a = evaluate_depth(depth, x, sample, params)
        b = evaluate_depth(depth, xs, shifted, params)
        assert abs(a - b) <= 1e-10, (depth, a, b)


@settings(max_examples=N_FUZZ, deadline=None)
@given(small_sample_and_query(), st.sampled_from([0.25, 0.5, 2.0, 4.0]))
def test_fuzz_scale_invariance_except_h(sq, a):
    # power-of-two factors make the scaling exact in floating point, so
    # strict/closed comparisons are preserved verbatim
    sample, x = sq
    scaled = FunctionalSample(sample.values * a, sample.grid)
    xs = Curve(x.values * a, sample.grid)
    J = min(3, sample.n)
    params = DepthParams(h=0.7, J=J, k=3, seed=1)
    for depth in ("rt", "bd", "mbd", "hr", "mhr"):
        av = evaluate_depth(depth, x, sample, params)
        bv = evaluate_depth(depth, xs, scaled, params)
        assert abs(av - bv) <= 1e-10, (depth, av, bv)


@settings(max_examples=N_FUZZ, deadline=None)
@given(small_sample_and_query(quantize_allowed=False), st.sampled_from([0.5, 2.0]))
def test_fuzz_h_depth_scale_sensitivity(sq, a):
    # scaling changes h-depth whenever the sample is non-degenerate
    # around the query; bandwidth tied to the data scale keeps all
    # kernel terms well away from underflow
    sample, x = sq
    d = np.sqrt(
        np.maximum(((sample.values - x.values) ** 2) @ sample.grid.weights, 0)
    )
    assume(d.max() > 1e-3)
    h = float(d.max())
    scaled = FunctionalSample(sample.values * a, sample.grid)
    xs = Curve(x.values * a, sample.grid)
    av = evaluate_depth("h", x, sample, DepthParams(h=h))
    bv = evaluate_depth("h", xs, scaled, DepthParams(h=h))
    assert abs(av - bv) > 1e-13 * max(av, bv), (av, bv)


@settings(max_examples=N_FUZZ, deadline=None)
@given(small_sample_and_query())
def test_fuzz_monotone_h(sq):
    # h * sqrt(2 pi) * D_h is a mean of exp(-d^2 / (2 h^2)) terms, each
    # non-decreasing in h
    sample, x = sq
    prev = -np.inf
    for h in (0.25, 0.5, 1.0, 2.0, 4.0):
        v = evaluate_depth("h", x, sample, DepthParams(h=h)) * h * SQRT_2PI
        assert v >= prev - 1e-12, (h, v, prev)
        prev = v


@settings(max_examples=N_FUZZ, deadline=None)
@given(small_sample_and_query())
def test_fuzz_batch_equals_batch_of_one(sq):
    # row i of a batch is bit-identical to evaluating its curve alone; h
    # is left out: its final weighted sum over a chunk of queries can
    # round differently in the last bit than over a single query
    sample, x = sq
    Q = np.vstack([x.values, sample.values])
    params = DepthParams(h=0.7, J=min(3, sample.n), k=3, seed=1)
    for depth in ("rt", "bd", "mbd", "hr", "mhr"):
        vals = depth_values(depth, Q, sample, params)
        for i, q in enumerate(Q):
            one = evaluate_depth(depth, Curve(q, sample.grid), sample, params)
            assert vals[i] == one, (depth, i, vals[i], one)


# ---------------------------------------------------------------------------
# Sorted-sample rt and mbd kernels against per-query references
# ---------------------------------------------------------------------------


def rt_per_query(Q, sample, directions):
    """rt with one stacked projection and masked tail sums per query."""
    wU = directions * sample.grid.weights
    out = []
    for xv in Q:
        proj = np.vstack([xv[None, :], sample.values]) @ wU.T
        out.append(
            min(
                halfspace_depth_1d(proj[0, j], proj[1:, j], sample.weights)
                for j in range(directions.shape[0])
            )
        )
    return np.array(out)


def mbd_per_query(Q, sample, J):
    """mbd from per-query strictly above/below counts at each grid point."""
    X, n = sample.values, sample.n
    tabs = [np.array([math.comb(c, j) for c in range(n + 1)]) for j in range(2, J + 1)]
    out = []
    for xv in Q:
        a, b = (X > xv).sum(axis=0), (X < xv).sum(axis=0)
        counts = [tab[n] - tab[a] - tab[b] for tab in tabs]
        out.append(mbd_value_from_counts(counts, n, sample.grid))
    return np.array(out)


@st.composite
def large_sample_and_queries(draw):
    """n > 128 curves (numpy's pairwise sum works in blocks past 128 terms)
    with tie-heavy values, plus queries: sample rows and fresh curves."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(min_value=129, max_value=700))
    m = draw(st.integers(min_value=2, max_value=8))
    X = rng.normal(size=(n, m))
    if draw(st.booleans()):
        X = np.round(X)
    if draw(st.booleans()):
        X = X[rng.integers(0, max(1, n // 3), size=n)]  # duplicated rows
    fresh = np.round(rng.normal(size=(3, m)) * 2) / 2
    Q = np.vstack([X[rng.integers(0, n, size=4)], fresh])
    return FunctionalSample(X, uniform_grid(0, 1, m)), Q


@settings(max_examples=N_FUZZ, deadline=None)
@given(small_sample_and_query(), st.booleans(), st.data())
def test_fuzz_rt_matches_per_query_reference(sq, weighted, data):
    sample, x = sq
    if weighted:
        w = np.array(
            data.draw(
                st.lists(st.floats(0.01, 1.0), min_size=sample.n, max_size=sample.n)
            )
        )
        sample = FunctionalSample(sample.values, sample.grid, weights=w / w.sum())
    Q = np.vstack([x.values, sample.values])
    got = depth_values("rt", Q, sample, DepthParams(k=3, seed=1))
    want = rt_per_query(Q, sample, draw_directions(sample.grid, 3, seed=1))
    assert np.array_equal(got, want), (got, weighted)


@settings(max_examples=N_FUZZ, deadline=None)
@given(small_sample_and_query())
def test_fuzz_mbd_matches_brute_per_query(sq):
    sample, x = sq
    Q = np.vstack([x.values, sample.values])
    J = min(3, sample.n)
    got = depth_values("mbd", Q, sample, DepthParams(J=J))
    want = [modified_band_depth_brute(Curve(q, sample.grid), sample, J) for q in Q]
    assert got.tolist() == [r for r in want]


@settings(max_examples=N_FUZZ, deadline=None)
@given(large_sample_and_queries())
def test_fuzz_rt_mbd_large_sample_match_per_query(sq):
    sample, Q = sq
    got = depth_values("rt", Q, sample, DepthParams(k=3, seed=2))
    want = rt_per_query(Q, sample, draw_directions(sample.grid, 3, seed=2))
    assert np.array_equal(got, want)
    got = depth_values("mbd", Q, sample, DepthParams(J=3))
    assert np.array_equal(got, mbd_per_query(Q, sample, 3))


@pytest.mark.parametrize("n, J", [(70, 50), (100, 90)])
def test_mbd_binomial_tables_past_int64_match_per_query(n, J):
    # C(70, j) passes 2**63 for j = 26..44 and C(100, j) for j = 18..82, so
    # one call's tables go from int64 to Python integers and back
    assert math.comb(n, J) <= np.iinfo(np.int64).max < math.comb(n, n // 2)
    rng = np.random.default_rng(n)
    X = np.round(rng.normal(size=(n, 6)) * 2) / 2
    sample = FunctionalSample(X, uniform_grid(0, 1, 6))
    Q = np.vstack([X[:3], np.round(rng.normal(size=(3, 6)) * 2) / 2])
    got = depth_values("mbd", Q, sample, DepthParams(J=J))
    assert np.array_equal(got, mbd_per_query(Q, sample, J))


# ---------------------------------------------------------------------------
# Blocked h-depth kernel against the chunked expression
# ---------------------------------------------------------------------------


def h_depth_chunked(Q, sample, h):
    """h-depth with one (chunk, n, m) difference tensor per chunk of
    4_000_000 // (n * m) queries, the expression the audit bytes rest on."""
    w, X = sample.grid.weights, sample.values
    out = np.empty(Q.shape[0])
    norm = 1.0 / (h * SQRT_2PI)
    chunk = max(1, 4_000_000 // max(1, X.size))
    for lo in range(0, Q.shape[0], chunk):
        diff = Q[lo : lo + chunk, None, :] - X[None, :, :]
        d2 = (diff * diff) @ w
        out[lo : lo + chunk] = (np.exp(-d2 / (2.0 * h * h)) * norm) @ sample.weights
    return out


@st.composite
def h_kernel_case(draw):
    """A sample, queries and a block budget for the h kernel: one query;
    more queries than fit one block; or more than one outer chunk, which
    needs n * m past 10**5.  Queries are fresh curves and sample rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a chunk case streams more than 4 * 10**6 differences: draw it rarely
    regime = draw(st.sampled_from(["one"] * 2 + ["block"] * 7 + ["chunk"]))
    if regime == "chunk":
        m = draw(st.integers(min_value=40, max_value=300))
        n = draw(st.integers(min_value=100_000 // m + 1, max_value=250_000 // m))
        chunk = 4_000_000 // (n * m)
        q = draw(st.integers(min_value=chunk + 1, max_value=chunk + 4))
        block = draw(st.integers(min_value=1, max_value=3))
    else:
        m = draw(st.integers(min_value=2, max_value=60))
        n = draw(st.integers(min_value=1, max_value=300))
        q = 1 if regime == "one" else draw(st.integers(min_value=2, max_value=40))
        block = draw(st.integers(min_value=1, max_value=max(1, q - 1)))
    # any budget in [block, block + 1) rows of 8 * n * m bytes gives block
    budget = 8 * n * m * block + draw(st.integers(0, 8 * n * m - 1))
    X = rng.normal(size=(n, m)) * draw(st.sampled_from([0.1, 1.0, 30.0]))
    if draw(st.booleans()):
        X = X[rng.integers(0, max(1, n // 3), size=n)]  # duplicated rows
    weights = None
    if draw(st.booleans()):
        weights = rng.random(n) + 0.05
        weights /= weights.sum()
    sample = FunctionalSample(X, uniform_grid(0, 1, m), weights=weights)
    n_fresh = draw(st.integers(min_value=0, max_value=q))
    Q = np.vstack([rng.normal(size=(n_fresh, m)), X[rng.integers(0, n, q - n_fresh)]])
    return sample, rng.permutation(Q), budget


@settings(max_examples=N_FUZZ, deadline=None)
@given(h_kernel_case(), st.sampled_from([0.3, 1.0, 2.5]))
def test_fuzz_h_blocked_kernel_matches_chunked_bits(case, h):
    sample, Q, budget = case
    with mock.patch.object(depths, "_H_BLOCK_BYTES", budget):
        got = depth_values("h", Q, sample, DepthParams(h=h))
    assert got.tobytes() == h_depth_chunked(Q, sample, h).tobytes()


# ---------------------------------------------------------------------------
# Sorted-column counts and the ranked hr and mhr kernels
# ---------------------------------------------------------------------------


def hr_per_query(Q, sample):
    """hr from each query's closed comparisons and masked weight sums."""
    X, w = sample.values, sample.weights
    return np.array(
        [min(w[(X <= xv).all(axis=1)].sum(), w[(X >= xv).all(axis=1)].sum())
         for xv in Q]
    )


def mhr_per_query(Q, sample):
    """mhr from each query's closed comparison masks, one product each."""
    X, w, lam = sample.values, sample.grid.weights, sample.grid.length
    p = sample.weights
    return np.array(
        [min(p @ (((X <= xv) @ w) / lam), p @ (((X >= xv) @ w) / lam)) for xv in Q]
    )


def rank_kernel_values(depth, Q, sample, ranked):
    """depth_values with the ranked path forced on or off."""
    threshold = 0 if ranked else 10**9
    with mock.patch.multiple(
        depths, _RANKED_MIN_QUERIES=threshold, _RANKED_MIN_CURVES=threshold
    ):
        return depth_values(depth, Q, sample)


@pytest.mark.parametrize("n", [1, 2, 5, 129, 700])
def test_column_counts_equal_direct_counts(n):
    rng = np.random.default_rng(n)
    X = np.round(rng.normal(size=(n, 7)))
    X[: n // 2] = X[rng.integers(0, n, size=n // 2)]  # duplicated rows
    fresh = np.round(rng.normal(size=(40, 7)) * 2) / 2
    Q = np.vstack([X[rng.integers(0, n, size=3)], fresh])
    le = np.array([(X <= x).sum(axis=0) for x in Q])
    lt = np.array([(X < x).sum(axis=0) for x in Q])
    for ranks in (False, True):
        R, got_le, got_lt = depths._column_counts(Q, X, ranks=ranks)
        assert got_le.dtype == got_lt.dtype == np.int16
        assert np.array_equal(got_le, le) and np.array_equal(got_lt, lt)
        if not ranks:
            assert R is None
            # a batch of one counts directly: the same rows, in the same dtype
            for i in range(Q.shape[0]):
                R1, le1, lt1 = depths._column_counts(Q[i : i + 1], X)
                assert R1 is None and le1.dtype == lt1.dtype == np.int16
                assert np.array_equal(le1, le[i : i + 1])
                assert np.array_equal(lt1, lt[i : i + 1])
            continue
        assert R.shape == (7, n) and R.dtype == np.int16
        for v in range(7):
            assert np.array_equal(np.sort(R[v]), np.arange(n))
            # the closed comparisons of every query, read off the ranks
            x, r = Q[:, v, None], R[v][None, :]
            assert np.array_equal(r < le[:, v, None], X[:, v] <= x)
            assert np.array_equal(r >= lt[:, v, None], X[:, v] >= x)


@st.composite
def rank_kernel_case(draw):
    """A tie-heavy sample and q queries, each on either side of the
    ranked-path thresholds: sample rows (repeated when rows are
    duplicated), fresh curves, and fresh curves that meet sample values at
    some grid points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(min_value=1, max_value=2 * depths._RANKED_MIN_CURVES))
    m = draw(st.integers(min_value=2, max_value=12))
    X = rng.normal(size=(n, m))
    if draw(st.booleans()):
        X = np.round(X)  # many exact ties
    if draw(st.booleans()):
        X = X[rng.integers(0, max(1, n // 3), size=n)]  # duplicated rows
    q = draw(st.integers(min_value=1, max_value=2 * depths._RANKED_MIN_QUERIES))
    fresh = np.round(rng.normal(size=(q, m)) * 2) / 2
    rows = X[rng.integers(0, n, size=q)]
    met = X[rng.integers(0, n, size=(q, m)), np.arange(m)]
    meet = np.where(rng.random((q, m)) < 0.3, met, fresh)
    Q = np.choose(rng.integers(0, 3, size=q)[:, None], [fresh, rows, meet])
    return FunctionalSample(X, uniform_grid(0, 1, m)), Q


@settings(max_examples=N_FUZZ, deadline=None)
@given(rank_kernel_case())
def test_fuzz_hr_mhr_ranked_and_direct_paths_agree(case):
    sample, Q = case
    for depth, reference in (("hr", hr_per_query), ("mhr", mhr_per_query)):
        want = reference(Q, sample)
        assert np.array_equal(depth_values(depth, Q, sample), want), depth
        for ranked in (True, False):
            got = rank_kernel_values(depth, Q, sample, ranked)
            assert np.array_equal(got, want), (depth, ranked)


def test_hr_unequal_weights_keep_masked_sums():
    # counts cannot give a mass when curves weigh differently: hr keeps the
    # masked sums however large the batch, and mhr reads the weights as is
    rng = np.random.default_rng(5)
    X = np.round(rng.normal(size=(60, 6)))
    w = rng.random(60) + 0.05
    sample = FunctionalSample(X, uniform_grid(0, 1, 6), weights=w / w.sum())
    Q = np.vstack([X, np.round(rng.normal(size=(20, 6)))])
    with mock.patch.object(depths, "_column_counts", side_effect=AssertionError):
        got = rank_kernel_values("hr", Q, sample, ranked=True)
    assert np.array_equal(got, hr_per_query(Q, sample))
    got = rank_kernel_values("mhr", Q, sample, ranked=True)
    assert np.array_equal(got, mhr_per_query(Q, sample))


def test_rank_table_past_int16_uses_int32():
    rng = np.random.default_rng(15)
    n = 2**15 + 3
    X = np.round(rng.normal(size=(n, 3)) * 4)
    sample = FunctionalSample(X, uniform_grid(0, 1, 3))
    # the constant 100 curve lies above every sample curve: le = n there
    fresh = np.round(rng.normal(size=(19, 3)) * 4)
    Q = np.vstack([X[:20], fresh, np.full((1, 3), 100.0)])
    R, le, lt = depths._column_counts(Q, X, ranks=True)
    assert R.dtype == le.dtype == lt.dtype == np.int32
    assert le.max() == n and np.array_equal(np.sort(R[0]), np.arange(n))
    _, le1, lt1 = depths._column_counts(Q[-1:], X)  # a batch of one
    assert le1.dtype == lt1.dtype == np.int32
    assert np.array_equal(le1, le[-1:]) and np.array_equal(lt1, lt[-1:])
    assert np.array_equal(depth_values("hr", Q, sample), hr_per_query(Q, sample))
    assert np.array_equal(depth_values("mhr", Q, sample), mhr_per_query(Q, sample))
    got = depth_values("mbd", Q, sample, DepthParams(J=2))
    assert np.array_equal(got, mbd_per_query(Q, sample, 2))
    # bd's patterns off the int32 table, against direct comparison; no
    # pair lies above the constant 100 curve's band
    with mock.patch.object(depths, "_BD_RANKED_MIN_QUERIES", 1):
        got = depth_values("bd", Q, sample)
    with mock.patch.object(depths, "_BD_RANKED_MIN_QUERIES", 10**9):
        assert np.array_equal(got, depth_values("bd", Q, sample))
    assert got[-1] == 0.0


def test_column_counts_direct_and_sorted_routes_agree():
    # tied rows and -0.0 entries: the direct comparison and the sorted
    # columns' searchsorted give the same closed counts
    rng = np.random.default_rng(22)
    X = np.round(rng.normal(size=(90, 9)))
    X[:30] = X[rng.integers(0, 90, size=30)]
    X[X == 0.0] = rng.choice([0.0, -0.0], size=int((X == 0.0).sum()))
    fresh = np.round(rng.normal(size=(6, 9)) * 2) / 2
    Q = np.vstack([X[rng.integers(0, 90, size=6)], fresh, -X[:3], np.zeros((1, 9))])
    Q[-1, ::2] = -0.0
    assert np.signbit(X[X == 0.0]).any() and not np.signbit(X[X == 0.0]).all()
    got = {}
    for route, limit in (("direct", 10**9), ("sorted", 0)):
        with mock.patch.object(depths, "_SORT_MIN_QUERIES", limit):
            R, le, lt = depths._column_counts(Q, X)
        assert R is None and le.dtype == lt.dtype == np.int16
        got[route] = le, lt
    assert np.array_equal(got["direct"][0], got["sorted"][0])
    assert np.array_equal(got["direct"][1], got["sorted"][1])
    assert np.array_equal(got["direct"][0], [(X <= x).sum(axis=0) for x in Q])
    assert np.array_equal(got["direct"][1], [(X < x).sum(axis=0) for x in Q])
    # the default takes the direct route below the limit and sorts above it
    small = Q[: depths._SORT_MIN_QUERIES - 1]
    with mock.patch.object(np, "sort", side_effect=AssertionError):
        _, le, lt = depths._column_counts(small, X)
    assert np.array_equal(le, got["sorted"][0][: small.shape[0]])
    assert np.array_equal(lt, got["sorted"][1][: small.shape[0]])


# ---------------------------------------------------------------------------
# Batch threads for h and mhr
# ---------------------------------------------------------------------------


def threaded_values(depth, Q, sample, spans, ranked=None, params=None):
    """depth_values with the batch split into at most ``spans`` threads
    whatever its size, and mhr's ranked path forced on or off."""
    patches = dict(_MHR_THREAD_MIN_WORK=0, _MHR_THREAD_MIN_QUERY_WORK=0)
    if ranked is not None:
        patches["_RANKED_MIN_QUERIES"] = patches["_RANKED_MIN_CURVES"] = (
            0 if ranked else 10**9
        )
    with mock.patch.multiple(depths, **patches), mock.patch.multiple(
        core, _kernel_threads=None, _usable_cpus=mock.Mock(return_value=spans)
    ), mock.patch.object(depths, "_blas_threads", return_value=1):
        return depth_values(depth, Q, sample, params)


@pytest.mark.parametrize("spans", [1, 2, 3])
def test_h_mhr_values_do_not_depend_on_the_span_count(spans):
    rng = np.random.default_rng(spans)
    # 4000 x 250 values: h takes chunks of 4 queries, so 10 queries make
    # chunks 4, 4, 2 and 3 spans take a ragged last span of 2 chunks
    n, m = 4000, 250
    X = rng.normal(size=(n, m))
    X[: n // 2] = X[rng.integers(0, n, size=n // 2)]  # duplicated rows
    sample = FunctionalSample(np.round(X, 1), uniform_grid(0, 1, m))
    X = sample.values
    Q = np.vstack([X[rng.integers(0, n, size=5)], np.round(rng.normal(size=(5, m)), 1)])
    assert 4_000_000 // X.size == 4
    started = threading.active_count()
    for h in (0.5, 3.0):
        got = threaded_values("h", Q, sample, spans, params=DepthParams(h=h))
        assert got.tobytes() == h_depth_chunked(Q, sample, h).tobytes()
    want = mhr_per_query(Q, sample)
    for ranked in (True, False):
        got = threaded_values("mhr", Q, sample, spans, ranked=ranked)
        assert got.tobytes() == want.tobytes(), ranked
    assert threading.active_count() == started


@pytest.mark.parametrize("spans", [2, 3])
def test_threaded_h_mhr_match_serial_bits_on_a_gp_sample(gp_sample, spans):
    # 301 self-queries against a GP sample: h takes 16 chunks, the last
    # one ragged, and mhr reads the rank table or compares directly
    Q = gp_sample.values[:301]
    for depth, ranked in (("h", None), ("mhr", True), ("mhr", False)):
        got = threaded_values(depth, Q, gp_sample, spans, ranked=ranked)
        want = threaded_values(depth, Q, gp_sample, 1, ranked=ranked)
        assert got.tobytes() == want.tobytes(), (depth, ranked)


@pytest.fixture
def one_blas_thread(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.setenv(var, "1")


def test_split_batch_spans_are_contiguous_whole_steps(one_blas_thread):
    seen = []
    with mock.patch.object(core, "_usable_cpus", return_value=3):
        depths._split_batch(10, 4, lambda lo, hi: seen.append((lo, hi)))
        assert sorted(seen) == [(0, 4), (4, 8), (8, 10)]
        seen.clear()
        with mock.patch.object(core, "_kernel_threads", 2):
            depths._split_batch(10, 1, lambda lo, hi: seen.append((lo, hi)))
        assert sorted(seen) == [(0, 5), (5, 10)]


@pytest.mark.parametrize(
    "env, spans",
    [
        ({}, 1),  # BLAS takes every CPU
        ({"OMP_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "MKL_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 4),
    ],
)
def test_split_batch_leaves_the_blas_threads_their_cpus(monkeypatch, env, spans):
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(core, "_kernel_threads", None)
    seen = []
    with mock.patch.object(core, "_usable_cpus", return_value=4):
        depths._split_batch(8, 1, lambda lo, hi: seen.append((lo, hi)))
    assert len(seen) == spans


def test_split_batch_raises_a_later_span_error_after_joining_every_thread(one_blas_thread):
    started = threading.active_count()
    done = []

    def run(lo, hi):
        if lo > 0:
            raise ValueError(f"span at {lo}")
        time.sleep(0.05)  # the other spans end before this one
        done.append(lo)

    with mock.patch.object(core, "_usable_cpus", return_value=3):
        with pytest.raises(ValueError, match="span at 3"):
            depths._split_batch(9, 1, run)
    assert done == [0]
    assert threading.active_count() == started


def test_small_batches_and_a_cap_of_one_start_no_thread(gp_sample, one_blas_thread):
    Q = gp_sample.values[1000:1200]
    with mock.patch.object(depths.threading, "Thread", side_effect=AssertionError):
        for depth in ("h", "mhr"):
            depth_values(depth, Q[:1], gp_sample)  # a batch of one
            # 30 queries against 200 curves: one h chunk, and under mhr's
            # work threshold
            depth_values(depth, Q[:30], FunctionalSample(gp_sample.values[:200], gp_sample.grid))
            with mock.patch.object(core, "_kernel_threads", 1):
                depth_values(depth, Q, gp_sample)
    assert 30 * 200 * 101 < depths._MHR_THREAD_MIN_WORK <= 200 * 2000 * 101
    assert 4_000_000 // (200 * 101) >= 30


# ---------------------------------------------------------------------------
# Band depth J = 2 on patterns of two or more packed words
# ---------------------------------------------------------------------------


def bd_pairs_reference(Q, X):
    """bd with J = 2 from an O(n^2) check of every pair's band: the pair
    misses x iff both curves lie strictly above x, or both strictly below,
    at some grid point."""
    iu = np.triu_indices(X.shape[0], 1)
    out = []
    for xv in Q:
        A, B = (X > xv).astype(float), (X < xv).astype(float)
        ok = ((A @ A.T) == 0) & ((B @ B.T) == 0)
        out.append(int(ok[iu].sum()) / math.comb(X.shape[0], 2))
    return np.array(out)


@st.composite
def multiword_band_case(draw, min_n, max_n):
    """Low-rank curves on m > 64 grid points, so every packed above
    pattern spans two or more words, with queries of every tie kind: fresh
    curves, sample rows (copies, repeated when rows are duplicated) and
    fresh curves that meet sample values at some grid points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(65, 200))
    t = np.linspace(0.0, 1.0, m)
    basis = np.vstack([np.ones(m), t, np.sin(2 * np.pi * t)])
    basis = basis[: draw(st.integers(1, 3))]
    lattice = draw(st.booleans())

    def curves(k):
        c = rng.normal(size=(k, basis.shape[0])) @ basis
        return np.round(c * 8) / 8 if lattice else c

    X = curves(n)
    if draw(st.booleans()):
        X = X[rng.integers(0, max(1, n // 3), size=n)]  # duplicated rows
    fresh = curves(3)
    meet = np.where(
        rng.random(fresh.shape) < 0.1,
        X[rng.integers(0, n, size=fresh.shape), np.arange(m)],
        fresh,
    )
    Q = np.vstack([fresh, X[rng.integers(0, n, size=3)], meet])
    return FunctionalSample(X, uniform_grid(0, 1, m)), Q


@settings(max_examples=40, deadline=None)
@given(multiword_band_case(2, 14))
def test_bd_multiword_patterns_match_brute(case):
    sample, Q = case
    got = depth_values("bd", Q, sample, DepthParams(J=2))
    want = [band_depth_brute(Curve(q, sample.grid), sample, 2) for q in Q]
    assert got.tolist() == want


@settings(max_examples=40, deadline=None)
@given(multiword_band_case(129, 400))
def test_bd_multiword_large_sample_matches_pair_check(case):
    sample, Q = case
    got = depth_values("bd", Q, sample, DepthParams(J=2))
    assert np.array_equal(got, bd_pairs_reference(Q, sample.values))


@st.composite
def bd_batch_case(draw):
    """Low-rank curves on one to three packed words, on a lattice (many
    exact ties) or not, and a batch of q queries on either side of the
    rank-table threshold: fresh curves, sample rows (copies, repeated when
    rows are duplicated), fresh curves that meet sample values at some
    grid points (partial ties), and, in some batches, zeros of the other
    sign than the sample's.  Few crossings make few distinct patterns, so
    complement pairs, and pairs that only a partial tie makes good, are
    common."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 160))
    m = draw(st.sampled_from([2, 5, 64, 65, 101, 140]))
    t = np.linspace(0.0, 1.0, m)
    basis = np.vstack([np.ones(m), t, np.sin(2 * np.pi * t)])[: draw(st.integers(1, 3))]
    lattice = draw(st.booleans())

    def curves(k):
        c = rng.normal(size=(k, basis.shape[0])) @ basis
        return np.round(c * 4) / 4 if lattice else c

    X = curves(n)
    if draw(st.booleans()):
        X = X[rng.integers(0, max(1, n // 3), size=n)]  # duplicated rows
    limit = depths._BD_RANKED_MIN_QUERIES
    q = draw(st.sampled_from([1, 2, limit - 1, limit, 2 * limit]))
    fresh = curves(q)
    rows = X[rng.integers(0, n, size=q)]
    met = X[rng.integers(0, n, size=(q, m)), np.arange(m)]
    meet = np.where(rng.random((q, m)) < draw(st.sampled_from([0.02, 0.3])), met, fresh)
    Q = np.choose(rng.integers(0, 3, size=q)[:, None], [fresh, rows, meet])
    if draw(st.booleans()):
        Q = np.where(Q == 0, -Q, Q)  # -0.0 == 0.0: still copies and ties
    return FunctionalSample(X, uniform_grid(0, 1, m)), Q


@settings(max_examples=100, deadline=None)
@given(bd_batch_case())
def test_bd_rank_table_and_direct_paths_match_pair_check(case):
    # the batch on the rank table and by direct comparison, whatever its
    # size, and each query as a batch of one, against every pair's band
    sample, Q = case
    want = bd_pairs_reference(Q, sample.values)
    for limit in (1, 10**9):
        with mock.patch.object(depths, "_BD_RANKED_MIN_QUERIES", limit):
            assert np.array_equal(depth_values("bd", Q, sample), want), limit
    one = [evaluate_depth("bd", Curve(x, sample.grid), sample) for x in Q]
    assert one == want.tolist()
    if sample.n <= 12:
        for x, value in zip(Q[:8], one):
            assert value == band_depth_brute(Curve(x, sample.grid), sample)


def raw_patterns(xv, X):
    """The packed (above, below) patterns without the column prune: two or
    more words per half on the grids of ``multiword_band_case``."""
    return np.hstack([depths._pack_rows(X > xv), depths._pack_rows(X < xv)])


@settings(max_examples=40, deadline=None)
@given(multiword_band_case(3, 14))
def test_bd_order_three_multiword_patterns_match_brute(case):
    # duplicated rows give repeated and repeated all-zero patterns (copies
    # of the query), meeting queries give partial ties; the triple counter
    # runs on the raw multi-word patterns and through the column prune
    sample, Q = case
    X, n = sample.values, sample.n
    want = [band_depth_brute(Curve(q, sample.grid), sample, 3) for q in Q]
    assert depth_values("bd", Q, sample, DepthParams(J=3)).tolist() == want
    for xv, value in zip(Q, want):
        counts = depths._count_pattern_tuples(raw_patterns(xv, X), 3)
        assert sum(cnt / math.comb(n, j) for j, cnt in enumerate(counts, 2)) == value


@settings(max_examples=40, deadline=None)
@given(
    multiword_band_case(3, 14),
    st.sampled_from([8, 64, 256]),
    st.sampled_from([2, 3]),
)
def test_bd_small_pair_blocks_match_brute(case, budget, J):
    # a block budget of 1 to 32 entries splits the pair relation between
    # middle indices b (blocks of one b, or of a few), cuts the bad pairs
    # into many groups and the column prune into blocks of one column
    sample, Q = case
    X, n = sample.values, sample.n
    want = [band_depth_brute(Curve(q, sample.grid), sample, J) for q in Q]
    with mock.patch.object(depths, "_PAIR_BLOCK_BYTES", budget):
        assert depth_values("bd", Q, sample, DepthParams(J=J)).tolist() == want
        for xv, value in zip(Q, want):
            counts = depths._count_pattern_tuples(raw_patterns(xv, X), J)
            assert sum(cnt / math.comb(n, j) for j, cnt in enumerate(counts, 2)) == value


def bd_triples_reference(Q, X):
    """bd with J = 3 from a check of every pair's and triple's band: it
    misses x iff all its curves lie strictly above x, or all strictly
    below, at some grid point."""
    n = X.shape[0]
    iu = np.triu_indices(n, 1)
    a, b, c = np.indices((n, n, n))
    increasing = (a < b) & (b < c)
    out = []
    for xv in Q:
        A, B = X > xv, X < xv
        AA, BB = A[:, None] & A[None], B[:, None] & B[None]
        pair_ok = ~AA.any(-1) & ~BB.any(-1)
        ok = ~(AA[:, :, None] & A).any(-1) & ~(BB[:, :, None] & B).any(-1)
        pairs = int(pair_ok[iu].sum())
        triples = int(ok[increasing].sum())
        out.append(pairs / math.comb(n, 2) + triples / math.comb(n, 3))
    return np.array(out)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(20, 40), st.integers(2, 8), st.booleans())
def test_bd_order_three_rough_sample_matches_triple_check(seed, n, m, lattice):
    # rough curves on a few grid points have p > 16 distinct patterns and
    # many bad pairs, so one group of bad pairs spans several middle
    # indices b and the columns k <= b of its later pairs are masked
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m))
    if lattice:
        X = np.round(X * 2) / 2
    Q = np.vstack([rng.normal(size=(3, m)), X[:2], np.zeros((1, m))])
    sample = FunctionalSample(X, uniform_grid(0, 1, m))
    got = depth_values("bd", Q, sample, DepthParams(J=3))
    assert np.array_equal(got, bd_triples_reference(Q, X))


def test_pattern_pair_count_memory_stays_within_its_blocks():
    # 5000 noise rows have 5000 distinct patterns, so a (p, p) bool array
    # alone would take 25 MB; the blocked pair relation stays far below
    rng = np.random.default_rng(5)
    m, p = 101, 5000
    X = rng.normal(size=(p, m))
    above = X > rng.normal(size=m)
    U = depths._pack_rows(above)
    pad = depths._pack_rows(np.ones((1, m), dtype=bool))[0]
    R = np.hstack([U, U ^ pad])  # (above, below) of a tie-free query
    assert np.unique(R, axis=0).shape[0] == p
    want = depths._count_complement_pairs(U, above[:, 0], pad)
    assert want is not None
    tracemalloc.start()
    try:
        got = depths._count_pattern_tuples(R, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [want]
    assert peak < p * p // 4, peak


def test_bd_order_three_triple_budget_counts_the_batch():
    # q * C(n, 3) is bounded per batch: two queries fit a bound of twice
    # C(100, 3), three do not
    s = constants_sample(np.arange(100.0))
    Q = np.full((3, s.grid.m), 49.5)
    # 50 curves on each side: 50 * 50 pairs, and every triple but the
    # one-sided ones
    want = 2500 / math.comb(100, 2) + (
        math.comb(100, 3) - 2 * math.comb(50, 3)
    ) / math.comb(100, 3)
    with mock.patch.object(depths, "MAX_BAND_TRIPLES", 2 * math.comb(100, 3)):
        assert depth_values("bd", Q[:2], s, DepthParams(J=3)).tolist() == [want] * 2
        with pytest.raises(ParameterError, match="triples"):
            depth_values("bd", Q, s, DepthParams(J=3))
        with pytest.raises(ParameterError, match="triples"):
            depth_values("bd", Q, s, DepthParams(J=4))
    assert depth_values("bd", Q, s, DepthParams(J=2)).tolist() == [2500 / 4950] * 3


@pytest.mark.parametrize("table", ["zeros", "first-word-only"])
def test_bd_hash_collisions_fall_back_to_exact_counts(monkeypatch, table):
    # all-zero multipliers hash every row to 0; hashing only the first of
    # three words makes rows that differ past grid point 64 collide.  The
    # verification must reject such matches, and the counts stay exact.
    rng = np.random.default_rng(8)
    m = 130
    lines = np.vstack([np.ones(m), np.linspace(0.0, 1.0, m)])
    X = rng.normal(size=(200, 2)) @ lines
    X = X[rng.integers(0, 150, size=200)]
    Q = np.vstack([rng.normal(size=(3, 2)) @ lines, X[:3]])
    sample = FunctionalSample(X, uniform_grid(0, 1, m))
    # identical rows all above the query: one run, and no complement
    above = FunctionalSample(np.ones((150, m)), sample.grid)
    want = bd_pairs_reference(Q, X)
    M = np.zeros(64, dtype=np.uint64)
    if table == "first-word-only":
        M[0] = 1
    monkeypatch.setattr(depths, "_HASH_MULTIPLIERS", M)
    A = X > Q[0]
    U = depths._pack_rows(A)
    pad = depths._pack_rows(np.ones((1, m), dtype=bool))[0]
    assert depths._count_complement_pairs(U, A[:, 0], pad) is None
    for limit in (1, 10**9):  # patterns off the rank table, and direct
        monkeypatch.setattr(depths, "_BD_RANKED_MIN_QUERIES", limit)
        assert np.array_equal(depth_values("bd", Q, sample), want)
        assert depth_values("bd", np.zeros(m), above).tolist() == [0.0]


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 127, 128, 129, 300, 1000, 5000, 9001])
def test_uniform_masses_equal_masked_sums(n):
    rng = np.random.default_rng(n)
    for w0 in (1.0 / n, 0.1, 1.0 / 3.0):
        w = np.full(n, w0)
        masks = rng.random((40, n)) < rng.random((40, 1))
        table = _uniform_masses(w0, n, masks.sum(axis=1))
        want = [w[mask].sum() for mask in masks]
        assert table.tolist() == want, (n, w0)


@pytest.mark.parametrize("depth", DEPTH_IDS)
def test_depth_values_rejects_bad_queries(depth):
    s = constants_sample([0.0, 1.0, 2.0])
    nan_row = np.zeros((2, s.grid.m))
    nan_row[1, 3] = np.nan
    with pytest.raises(InputError):
        depth_values(depth, nan_row, s)
    with pytest.raises(InputError):
        depth_values(depth, np.zeros((2, s.grid.m + 1)), s)
    with pytest.raises(ParameterError):
        depth_values("xx", np.zeros((1, s.grid.m)), s)


def test_atomic_band_depth_atom_order_invariant():
    d = counterexample_P5()
    perm = counterexample_P5()
    from curvedepth.distributions import AtomicDistribution

    perm = AtomicDistribution(d.values[::-1], d.probs[::-1], d.grid)
    q = const_curve(0.25, d.grid)
    for depth in ("bd", "mbd"):
        a = evaluate_depth(depth, q, d, DepthParams(J=2))
        assert abs(a - evaluate_depth(depth, q, perm, DepthParams(J=2))) <= 1e-12


def test_evaluate_depth_returns_a_float():
    s = constants_sample([0.0, 1.0])
    r = evaluate_depth("h", const_curve(0.0, s.grid), s, DepthParams(h=1.0))
    assert type(r) is float
    assert r == depth_values("h", np.zeros((1, s.grid.m)), s, DepthParams(h=1.0))[0]
