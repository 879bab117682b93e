"""The P-5 audit's array operations: envelope, L_delta region, shrink."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedepth.core import Curve, ParameterError, uniform_grid
from curvedepth.distributions import (
    AtomicDistribution,
    counterexample_P3,
    counterexample_P5,
)
from curvedepth.properties import apply_shrink, envelope_of, find_L_delta, make_shrink

# ---------------------------------------------------------------------------
# envelope_of
# ---------------------------------------------------------------------------


def test_envelope_of_two_constants():
    lower, upper = envelope_of(counterexample_P3())
    assert np.all(lower == -1.0)
    assert np.all(upper == 1.0)


def test_envelope_of_single_curve():
    g = uniform_grid(0, 1, 21)
    x = np.sin(3 * g.points)
    lower, upper = envelope_of(AtomicDistribution(x[None, :], np.array([1.0]), g))
    np.testing.assert_array_equal(lower, x)
    np.testing.assert_array_equal(upper, x)


def test_envelope_of_p5_atoms():
    d = counterexample_P5()
    lower, upper = envelope_of(d)
    np.testing.assert_array_equal(lower, d.values[2])
    np.testing.assert_array_equal(upper, d.values[0])


# ---------------------------------------------------------------------------
# find_L_delta
# ---------------------------------------------------------------------------


def step_width_envelope():
    g = uniform_grid(0, 1, 101)
    width = np.where(g.points <= 0.3 + 1e-12, 0.1, 2.0)
    return np.zeros(101), width, g


def test_find_L_delta_threshold():
    lower, upper, g = step_width_envelope()
    mask = find_L_delta(lower, upper, 0.5)
    np.testing.assert_array_equal(mask, g.points <= 0.3 + 1e-12)
    assert g.weights[mask].sum() > 0
    assert g.weights[~mask].sum() > 0


def test_find_L_delta_constant_width_has_no_valid_delta():
    with pytest.raises(ParameterError):
        find_L_delta(np.zeros(11), np.full(11, 2.0), 1.0)


def test_find_L_delta_range_errors():
    lower, upper, _ = step_width_envelope()
    with pytest.raises(ParameterError):
        find_L_delta(lower, upper, 0.05)  # below min width
    with pytest.raises(ParameterError):
        find_L_delta(lower, upper, 2.0)  # at max width


def test_find_L_delta_near_max_leaves_complement():
    lower, upper, g = step_width_envelope()
    mask = find_L_delta(lower, upper, 2.0 - 1e-9)
    assert mask.sum() == (g.points <= 0.3 + 1e-12).sum()
    assert g.weights[~mask].sum() > 0


# ---------------------------------------------------------------------------
# make_shrink / apply_shrink
# ---------------------------------------------------------------------------


def test_apply_shrink_identity():
    g = uniform_grid(0, 1, 11)
    x = Curve(np.sin(g.points), g)
    np.testing.assert_array_equal(apply_shrink(x, np.ones(11)).values, x.values)


def test_apply_shrink_halves_on_region():
    g = uniform_grid(0, 1, 101)
    region = g.points <= 0.5 + 1e-12
    alpha = make_shrink(region, 0.5)
    x = Curve(np.full(101, 2.0), g)
    y = apply_shrink(x, alpha)
    assert np.all(y.values[region] == 1.0)
    assert np.all(y.values[~region] == 2.0)


def test_shrink_composition():
    g = uniform_grid(0, 1, 31)
    region = (g.points > 0.2) & (g.points < 0.8)
    a = make_shrink(region, 0.5)
    b = make_shrink(region, 0.3)
    x = Curve(np.cos(g.points), g)
    np.testing.assert_allclose(
        apply_shrink(apply_shrink(x, a), b).values,
        apply_shrink(x, a * b).values,
        rtol=1e-15,
    )


def test_shrink_validation():
    region = np.array([True, True, False, False, False])
    alpha = make_shrink(region, 0.25)
    assert np.all(alpha[region] == 0.25)
    assert np.all(alpha[~region] == 1.0)
    for factor in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ParameterError):
            make_shrink(region, factor)


# ---------------------------------------------------------------------------
# Invariants (property-based)
# ---------------------------------------------------------------------------

N_FUZZ = 1000


@st.composite
def atoms_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=2, max_value=16))
    vals = draw(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=n * m,
            max_size=n * m,
        )
    )
    atoms = np.unique(np.array(vals).reshape(n, m), axis=0)  # atoms are distinct
    k = atoms.shape[0]
    return AtomicDistribution(atoms, np.full(k, 1.0 / k), uniform_grid(0, 1, m))


@settings(max_examples=N_FUZZ, deadline=None)
@given(atoms_strategy())
def test_fuzz_envelope_bounds_every_curve(dist):
    lower, upper = envelope_of(dist)
    assert np.all(lower[None, :] <= dist.values)
    assert np.all(dist.values <= upper[None, :])


@settings(max_examples=N_FUZZ, deadline=None)
@given(atoms_strategy(), st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
def test_fuzz_L_delta_monotone(dist, t1, t2):
    lower, upper = envelope_of(dist)
    w = upper - lower
    w_min, w_max = float(w.min()), float(w.max())
    if not w_max > w_min:
        return  # constant width: no admissible delta
    d1, d2 = sorted(
        (w_min + t1 * (w_max - w_min) * 0.999, w_min + t2 * (w_max - w_min) * 0.999)
    )
    m1 = find_L_delta(lower, upper, d1)
    m2 = find_L_delta(lower, upper, d2)
    assert np.all(m2[m1])  # mask(d1) subseteq mask(d2)
