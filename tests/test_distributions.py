import json

import numpy as np
import pytest

from curvedepth.core import (
    Curve,
    InputError,
    ParameterError,
    uniform_grid,
    write_curves_csv,
)
from curvedepth.distributions import (
    AtomicDistribution,
    ContaminationSpec,
    GPSpec,
    Kernel,
    _gp_factor,
    constant_distribution,
    counterexample_P3,
    counterexample_P3_RT,
    counterexample_P5,
    draw_from,
    gpspec_from_json,
    gpspec_to_json,
    mix,
    sample_atomic,
    sample_gp,
)

SE = Kernel("se", variance=1.0, length_scale=0.2)


def default_gp(m=101, kernel=SE):
    return GPSpec(kernel=kernel, grid=uniform_grid(0, 1, m))


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def test_kernel_matrix_exactly_symmetric():
    g = uniform_grid(0, 1, 101)
    for kern in (SE, Kernel("cosine", 1.0, 1.0)):
        K = kern.matrix(g.points)
        assert np.max(np.abs(K - K.T)) == 0.0


def test_kernel_matrix_nearly_psd_before_jitter():
    g = uniform_grid(0, 1, 101)
    for kern in (SE, Kernel("se", 4.0, 0.1), Kernel("cosine", 2.0, 1.0)):
        eig = np.linalg.eigvalsh(kern.matrix(g.points))
        assert eig.min() >= -1e-8 * kern.variance


def test_kernel_stationarity_on_uniform_grid():
    g = uniform_grid(0, 1, 51)
    K = SE.matrix(g.points)
    # entries depend only on the lag |v_i - v_j|
    for k in (1, 5, 20):
        diag = np.diagonal(K, offset=k)
        np.testing.assert_allclose(diag, diag[0], rtol=1e-12)


def test_kernel_curvature_at_zero():
    assert Kernel("se", 1.0, 0.1).curvature_at_zero() == pytest.approx(100.0)
    assert Kernel("cosine", 1.0, 1.0).curvature_at_zero() == pytest.approx(
        4 * np.pi**2
    )


def test_kernel_validation():
    with pytest.raises(ParameterError):
        Kernel("matern", 1.0, 0.2)
    with pytest.raises(ParameterError):
        Kernel("se", -1.0, 0.2)
    with pytest.raises(ParameterError):
        Kernel("se", 1.0, 0.0)


def test_gpspec_rejects_se_lags_that_overflow():
    # 1 / (2 ls^2) is finite at ls = 1e-154, but a lag of 100 squared over
    # 2 ls^2 is not; on the unit interval the same kernel is fine
    tiny = Kernel("se", 1.0, 1e-154)
    with pytest.raises(ParameterError, match="domain of length 100"):
        GPSpec(tiny, uniform_grid(0, 100, 50))
    unit = GPSpec(tiny, uniform_grid(0, 1, 50)).grid
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        assert np.isfinite(tiny.matrix(unit.points)).all()
    GPSpec(Kernel("cosine", 1.0, 1e-154), uniform_grid(0, 100, 50))  # no squared lag


# ---------------------------------------------------------------------------
# GP sampling
# ---------------------------------------------------------------------------


def test_sample_gp_degenerate_variance_returns_mean():
    g = uniform_grid(0, 1, 101)
    mean = Curve(np.sin(2 * np.pi * g.points), g)
    spec = GPSpec(kernel=Kernel("se", 1e-18, 0.2), grid=g, mean=mean)
    s = sample_gp(spec, 1, seed=0)
    assert np.max(np.abs(s.values[0] - mean.values)) < 1e-6


def test_sample_gp_moments():
    s = sample_gp(default_gp(), 2000, seed=0)
    mean = s.values.mean(axis=0)
    var = s.values.var(axis=0)
    assert np.max(np.abs(mean)) < 0.08
    assert np.max(np.abs(var - 1.0)) < 0.15


def test_sample_gp_deterministic_in_seed():
    spec = default_gp()
    _gp_factor.cache_clear()
    a = sample_gp(spec, 5, seed=123)  # factors the kernel matrix
    b = sample_gp(spec, 5, seed=123)  # reads the cached factor
    np.testing.assert_array_equal(a.values, b.values)
    c = sample_gp(spec, 5, seed=124)
    assert not np.array_equal(a.values, c.values)
    assert _gp_factor.cache_info().misses == 1
    L = _gp_factor(spec.kernel, spec.grid)
    assert not L.flags.writeable
    with pytest.raises(ValueError):
        L[0, 0] = 0.0


def test_sample_gp_empirical_covariance_matches_kernel():
    spec = default_gp()
    s = sample_gp(spec, 5000, seed=7)
    K = spec.kernel.matrix(spec.grid.points)
    pairs = [(0, 0), (0, 50), (25, 75), (50, 50), (0, 100)]
    X = s.values - s.values.mean(axis=0)
    for i, j in pairs:
        emp = float(X[:, i] @ X[:, j]) / (s.n - 1)
        assert abs(emp - K[i, j]) < 0.1, f"pair ({i},{j}): {emp} vs {K[i, j]}"


def test_sample_gp_cosine_paths_are_sinusoids():
    g = uniform_grid(0, 1, 101)
    spec = GPSpec(kernel=Kernel("cosine", 1.0, 1.0), grid=g)
    s = sample_gp(spec, 4, seed=3)
    # every path is A cos(2 pi v) + B sin(2 pi v): residual after projecting
    # onto that two-dimensional space is jitter-sized
    basis = np.stack([np.cos(2 * np.pi * g.points), np.sin(2 * np.pi * g.points)])
    coef, *_ = np.linalg.lstsq(basis.T, s.values.T, rcond=None)
    resid = s.values.T - basis.T @ coef
    assert np.max(np.abs(resid)) < 1e-4


def test_sample_gp_rejects_bad_n():
    with pytest.raises(ParameterError):
        sample_gp(default_gp(), 0, seed=0)


def test_sample_gp_size_budget():
    # 10**9 draws on 101 points would hold 1.01e11 values: rejected unallocated
    with pytest.raises(ParameterError, match="lower n or m"):
        sample_gp(default_gp(), 10**9, seed=0)


# ---------------------------------------------------------------------------
# Atomic distributions and the audit witnesses
# ---------------------------------------------------------------------------


def test_counterexample_P3_shape():
    d = counterexample_P3()
    assert d.n_atoms == 2
    levels = sorted(np.unique(d.values).tolist())
    assert levels == [-1.0, 1.0]
    np.testing.assert_array_equal(d.probs, [0.5, 0.5])
    assert d.probs.sum() == 1.0
    # atoms are constant curves
    assert np.ptp(d.values, axis=1).max() == 0.0


def test_counterexample_P3_RT_shape():
    d = counterexample_P3_RT()
    levels = sorted(np.unique(d.values).tolist())
    assert levels == [-1.0, 2.0]
    assert d.probs.sum() == 1.0
    # constants strictly between the atoms lie between them pointwise
    for c in (-0.5, 0.0, 1.5):
        assert np.all(d.values.min(axis=0) < c) and np.all(c < d.values.max(axis=0))


def test_counterexample_P5_shape():
    d = counterexample_P5()
    assert d.n_atoms == 3
    np.testing.assert_allclose(d.probs, 1 / 3)
    np.testing.assert_array_equal(d.values[1], 0.0)
    assert d.values[0].min() == 1.0 and d.values[0].min() > 0
    assert d.values[2].max() == -1.0 and d.values[2].max() < 0
    np.testing.assert_allclose(d.values[0], 1.0 + d.grid.points / 2.0)
    np.testing.assert_allclose(d.values[2], -(1.0 + d.grid.points / 2.0))


def test_atomic_validation():
    g = uniform_grid(0, 1, 3)
    with pytest.raises(InputError):
        AtomicDistribution(np.zeros((2, 3)), np.array([0.5, 0.5]), g)  # duplicate atoms
    with pytest.raises(InputError):
        AtomicDistribution(np.eye(2, 3), np.array([0.7, 0.7]), g)


def test_sample_atomic_hits_all_atoms():
    d = counterexample_P5()
    s = sample_atomic(d, 300, seed=1)
    assert s.n == 300
    matches = (s.values[:, None, :] == d.values[None, :, :]).all(axis=2)
    assert matches.any(axis=1).all()  # every draw is an atom
    assert matches.any(axis=0).all()  # every atom is drawn


# ---------------------------------------------------------------------------
# Contamination mixtures
# ---------------------------------------------------------------------------


def test_mix_epsilon_zero_identical_to_base():
    spec = ContaminationSpec(default_gp(), constant_distribution(50.0, uniform_grid()), 0.0)
    a = mix(spec, 40, seed=11)
    b = draw_from(spec.base, 40, seed=11)
    np.testing.assert_array_equal(a.values, b.values)


def test_mix_epsilon_near_one_all_outliers():
    g = uniform_grid()
    spec = ContaminationSpec(default_gp(), constant_distribution(50.0, g), 1 - 1e-12)
    s = mix(spec, 100, seed=5)
    assert np.all(s.values == 50.0)


def test_mix_outlier_count_in_binomial_interval():
    g = uniform_grid()
    spec = ContaminationSpec(default_gp(), constant_distribution(50.0, g), 0.05)
    s = mix(spec, 2000, seed=9)
    n_out = int(np.sum(np.all(s.values == 50.0, axis=1)))
    assert 60 <= n_out <= 140, n_out


def test_mix_coupling_monotone_in_epsilon():
    g = uniform_grid()
    out = constant_distribution(50.0, g)
    lo = mix(ContaminationSpec(default_gp(), out, 0.02), 500, seed=13)
    hi = mix(ContaminationSpec(default_gp(), out, 0.10), 500, seed=13)
    lo_flags = np.all(lo.values == 50.0, axis=1)
    hi_flags = np.all(hi.values == 50.0, axis=1)
    assert np.all(hi_flags[lo_flags])  # contaminated set grows with epsilon
    clean = ~hi_flags
    np.testing.assert_array_equal(lo.values[clean], hi.values[clean])


def test_mix_reuses_a_given_base_draw():
    spec = ContaminationSpec(default_gp(), constant_distribution(50.0, uniform_grid()), 0.1)
    base = draw_from(spec.base, 60, seed=17)
    a = mix(spec, 60, seed=17, base=base)
    np.testing.assert_array_equal(a.values, mix(spec, 60, seed=17).values)
    with pytest.raises(InputError):
        mix(spec, 59, seed=17, base=base)  # row count
    other = draw_from(default_gp(m=51), 60, seed=17)
    with pytest.raises(InputError):
        mix(spec, 60, seed=17, base=other)  # grid


def test_contamination_epsilon_range():
    with pytest.raises(ParameterError):
        ContaminationSpec(default_gp(), constant_distribution(0.0, uniform_grid()), 1.0)
    # both laws must live on one grid: same size but other points, other size
    for grid in (uniform_grid(0, 2, 101), uniform_grid(0, 1, 51)):
        with pytest.raises(InputError):
            ContaminationSpec(default_gp(), constant_distribution(0.0, grid), 0.1)


# ---------------------------------------------------------------------------
# Serialization round trips
# ---------------------------------------------------------------------------


def test_gpspec_json_round_trip(tmp_path):
    g = uniform_grid(0, 1, 51)
    mean = Curve(np.cos(g.points), g)
    spec = GPSpec(kernel=Kernel("se", 2.0, 0.3), grid=g, mean=mean)
    write_curves_csv(tmp_path / "mean.csv", g, mean.values[None, :])
    obj = gpspec_to_json(spec)
    obj["mean_csv"] = str(tmp_path / "mean.csv")
    obj = json.loads(json.dumps(obj))  # ensure plain-JSON round trip
    spec2 = gpspec_from_json(obj)
    assert spec2.kernel == spec.kernel
    np.testing.assert_array_equal(spec2.grid.points, g.points)
    np.testing.assert_array_equal(spec2.mean.values, mean.values)


def test_gpspec_json_without_mean_needs_grid():
    obj = {"kernel": {"type": "se", "variance": 1.0, "length_scale": 0.2}}
    with pytest.raises(InputError):
        gpspec_from_json(obj)
    spec = gpspec_from_json(obj, grid=uniform_grid(0, 1, 11))
    assert spec.mean is None
    assert spec.kernel.length_scale == 0.2


def test_gpspec_json_bad_kernel():
    with pytest.raises(InputError):
        gpspec_from_json({"kernel": {"type": "se"}}, grid=uniform_grid())
    with pytest.raises(ParameterError):
        gpspec_from_json(
            {"kernel": {"type": "se", "variance": -2.0, "length_scale": 0.2}},
            grid=uniform_grid(),
        )


# ---------------------------------------------------------------------------
# Property-based invariants
# ---------------------------------------------------------------------------

import pytest as _pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedepth.core import read_curves_csv, write_curves_csv

N_FUZZ = 1000


@st.composite
def random_kernel(draw, variance=None):
    ktype = draw(st.sampled_from(("se", "cosine")))
    var = variance if variance is not None else draw(
        st.floats(min_value=0.25, max_value=4.0, allow_nan=False)
    )
    ell = draw(st.floats(min_value=0.05, max_value=2.0, allow_nan=False))
    return Kernel(ktype, var, ell)


@st.composite
def random_grid(draw, min_m=3, max_m=48):
    m = draw(st.integers(min_m, max_m))
    a = draw(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
    length = draw(st.floats(min_value=0.1, max_value=4.0, allow_nan=False))
    return uniform_grid(a, a + length, m)


@settings(max_examples=N_FUZZ, deadline=None)
@given(random_kernel(), random_grid())
def test_fuzz_kernel_matrix_symmetric_and_near_psd(kernel, grid):
    K = kernel.matrix(grid.points)
    # |t| is computed once for both triangles, so asymmetry is exactly zero
    assert np.array_equal(K, K.T)
    eigs = np.linalg.eigvalsh(K)
    assert eigs.min() >= -1e-8 * kernel.variance


@settings(max_examples=N_FUZZ, deadline=None)
@given(
    random_kernel(variance=1.0),
    random_grid(min_m=12, max_m=31),
    st.integers(0, 2**31 - 1),
    st.data(),
)
def test_fuzz_gp_empirical_covariance_matches_kernel(kernel, grid, seed, data):
    sample = sample_gp(GPSpec(kernel, grid), 5000, seed)
    idx = st.integers(0, grid.m - 1)
    pairs = [(data.draw(idx), data.draw(idx)) for _ in range(5)]
    for i, j in pairs:
        emp = float(np.mean(sample.values[:, i] * sample.values[:, j]))
        want = float(kernel(grid.points[i] - grid.points[j]))
        assert abs(emp - want) <= 0.1, (i, j, emp, want)


@_pytest.fixture(scope="module")
def atoms_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("atoms-roundtrip")


@settings(max_examples=N_FUZZ, deadline=None)
@given(
    kind=st.sampled_from(("p3", "p3rt", "p5", "const")),
    grid=random_grid(min_m=3, max_m=30),
    level=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)
def test_fuzz_counterexamples_round_trip_csv(atoms_dir, kind, grid, level):
    make = {
        "p3": lambda: counterexample_P3(grid),
        "p3rt": lambda: counterexample_P3_RT(grid),
        "p5": lambda: counterexample_P5(grid),
        "const": lambda: constant_distribution(level, grid),
    }[kind]
    dist = make()
    path = atoms_dir / "atoms.csv"
    write_curves_csv(path, dist.grid, dist.values)
    g2, vals2 = read_curves_csv(path)
    np.testing.assert_array_equal(g2.points, dist.grid.points)
    np.testing.assert_array_equal(vals2, dist.values)
