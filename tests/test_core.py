import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedepth.core import (
    Curve,
    FunctionalSample,
    Grid,
    InputError,
    l2_norm_rows,
    read_curves_csv,
    trapezoid_weights,
    uniform_grid,
    write_curves_csv,
)

import csv_reference
from curve_distances import l2_distance, sup_distance

# ---------------------------------------------------------------------------
# Hand-computed oracle values
# ---------------------------------------------------------------------------


def test_l2_identity_is_zero():
    g = uniform_grid(0, 1, 101)
    x = Curve(np.sin(2 * np.pi * g.points), g)
    assert l2_distance(x, x) == 0.0


def test_l2_constant_one_vs_zero():
    # integral of 1^2 over [0,1] is 1, so the distance is exactly 1
    g = uniform_grid(0, 1, 101)
    one = Curve(np.ones(101), g)
    zero = Curve(np.zeros(101), g)
    assert abs(l2_distance(one, zero) - 1.0) < 1e-10


def test_l2_constant_two_vs_minus_one():
    g = uniform_grid(0, 1, 101)
    two = Curve(np.full(101, 2.0), g)
    minus = Curve(np.full(101, -1.0), g)
    assert abs(l2_distance(two, minus) - 3.0) < 1e-10


def test_sup_constant_two_vs_minus_one():
    g = uniform_grid(0, 1, 51)
    two = Curve(np.full(51, 2.0), g)
    minus = Curve(np.full(51, -1.0), g)
    assert sup_distance(two, minus) == 3.0


def test_sup_identity_and_ramp():
    g = uniform_grid(0, 1, 101)
    ramp = Curve(g.points.copy(), g)
    zero = Curve(np.zeros(101), g)
    assert sup_distance(ramp, ramp) == 0.0
    assert sup_distance(ramp, zero) == 1.0  # sup attained at v = 1


def test_trapezoid_weights_measure_an_interval():
    # mask true exactly on [0, 0.3]: 0.305 under trapezoid weights
    # (half-weight endpoint at 0, full weights at 0.01..0.30), and in any
    # case within one grid cell of the true measure 0.3
    g = uniform_grid(0, 1, 101)
    measure = g.weights[g.points <= 0.3 + 1e-12].sum()
    assert measure == pytest.approx(0.305, abs=1e-12)
    assert abs(measure - 0.3) <= 0.01


def test_trapezoid_weights_uniform_grid():
    g = uniform_grid(0, 1, 11)
    expected = np.array([0.05] + [0.1] * 9 + [0.05])
    np.testing.assert_allclose(g.weights, expected, rtol=1e-14)
    assert abs(g.weights.sum() - g.length) < 1e-12


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_grid_rejects_non_increasing():
    with pytest.raises(InputError):
        Grid(np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(InputError):
        Grid(np.array([1.0]))


def test_grid_is_its_points():
    pts = np.array([0.0, 0.1, 0.35, 0.4, 1.0])
    g = Grid(pts)
    assert g.weights.tobytes() == trapezoid_weights(pts).tobytes()
    same = Grid(pts.copy())
    assert same == g and hash(same) == hash(g)
    other = Grid(np.array([0.0, 0.1, 0.35, 0.45, 1.0]))
    assert other != g


def test_curve_rejects_nonfinite_and_wrong_length():
    g = uniform_grid(0, 1, 5)
    with pytest.raises(InputError):
        Curve(np.array([0.0, 1.0, np.nan, 0.0, 0.0]), g)
    with pytest.raises(InputError):
        Curve(np.zeros(4), g)


def test_sample_weight_validation():
    g = uniform_grid(0, 1, 3)
    vals = np.zeros((2, 3))
    FunctionalSample(vals, g, weights=np.array([0.5, 0.5]))
    with pytest.raises(InputError):
        FunctionalSample(vals, g, weights=np.array([0.6, 0.6]))
    with pytest.raises(InputError):
        FunctionalSample(vals, g, weights=np.array([1.2, -0.2]))


def test_distance_rejects_grid_mismatch():
    a = uniform_grid(0, 1, 5)
    b = uniform_grid(0, 1, 7)
    with pytest.raises(InputError):
        l2_distance(Curve(np.zeros(5), a), Curve(np.zeros(7), b))
    with pytest.raises(InputError):
        sup_distance(Curve(np.zeros(5), a), Curve(np.zeros(7), b))


def test_immutability():
    g = uniform_grid(0, 1, 5)
    c = Curve(np.zeros(5), g)
    with pytest.raises(ValueError):
        c.values[0] = 1.0
    with pytest.raises(ValueError):
        g.points[0] = -1.0


# ---------------------------------------------------------------------------
# Property-based invariants
# ---------------------------------------------------------------------------

N_FUZZ = 1000

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def grid_and_curves(draw, n_curves=3, max_m=24):
    m = draw(st.integers(min_value=2, max_value=max_m))
    raw = draw(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=m,
            max_size=m,
            unique=True,
        )
    )
    pts = np.sort(np.array(raw, dtype=float))
    if np.any(np.diff(pts) < 1e-9):  # floats unique but too close after sort
        pts = np.arange(m, dtype=float)
    g = Grid(pts)
    curves = []
    for _ in range(n_curves):
        vals = draw(
            st.lists(finite_floats, min_size=m, max_size=m).map(
                lambda v: np.array(v, dtype=float)
            )
        )
        curves.append(Curve(vals, g))
    return g, curves


@settings(max_examples=N_FUZZ, deadline=None)
@given(grid_and_curves())
def test_fuzz_triangle_inequality(gc):
    _, (x, y, z) = gc
    for dist in (l2_distance, sup_distance):
        dxz = dist(x, z)
        dxy = dist(x, y)
        dyz = dist(y, z)
        assert dxz <= dxy + dyz + 1e-9 * (1 + dxy + dyz), (
            f"{dist.__name__}: {dxz} > {dxy} + {dyz}"
        )


@settings(max_examples=N_FUZZ, deadline=None)
@given(grid_and_curves(n_curves=2))
def test_fuzz_l2_bounded_by_sup(gc):
    g, (x, y) = gc
    bound = sup_distance(x, y) * np.sqrt(g.length)
    assert l2_distance(x, y) <= bound + 1e-9 * (1 + bound)


@settings(max_examples=N_FUZZ, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=2,
        max_size=30,
        unique=True,
    )
)
def test_fuzz_trapezoid_weights_sum_to_domain_length(raw):
    pts = np.sort(np.array(raw, dtype=float))
    if np.any(np.diff(pts) < 1e-9):
        pts = np.arange(len(raw), dtype=float)
    g = Grid(pts)
    assert abs(g.weights.sum() - g.length) <= 1e-12 * max(g.length, 1.0)
    assert np.all(g.weights > 0)


@pytest.fixture(scope="module")
def roundtrip_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv-roundtrip")


@settings(max_examples=N_FUZZ, deadline=None)
@given(grid_and_curves())
def test_fuzz_csv_round_trip_bit_exact(roundtrip_dir, gc):
    g, curves = gc
    values = np.stack([c.values for c in curves])
    path = roundtrip_dir / "case.csv"
    write_curves_csv(path, g, values)
    g2, values2 = read_curves_csv(path)
    np.testing.assert_array_equal(g2.points, g.points)
    np.testing.assert_array_equal(values2, values)
    # writing the re-read data reproduces the file byte for byte
    path2 = roundtrip_dir / "case2.csv"
    write_curves_csv(path2, g2, values2)
    assert path.read_bytes() == path2.read_bytes()


def test_l2_norm_rows_matches_scalar_distance():
    rng = np.random.default_rng(7)
    g = uniform_grid(0, 1, 31)
    rows = rng.normal(size=(4, 31))
    base = rng.normal(size=31)
    norms = l2_norm_rows(rows - base, g)
    for i in range(4):
        d = l2_distance(Curve(rows[i], g), Curve(base, g))
        assert norms[i] == pytest.approx(d, rel=1e-12)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def test_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(42)
    g = Grid(np.sort(rng.uniform(0, 1, size=17)))
    values = rng.normal(size=(5, 17))
    path = tmp_path / "curves.csv"
    write_curves_csv(path, g, values)
    g2, values2 = read_curves_csv(path)
    np.testing.assert_array_equal(g2.points, g.points)
    np.testing.assert_array_equal(values2, values)


def test_csv_rejects_nan_unless_sparse(tmp_path):
    g = uniform_grid(0, 1, 4)
    values = np.array([[0.0, np.nan, 1.0, 2.0]])
    path = tmp_path / "sparse.csv"
    write_curves_csv(path, g, values)
    with pytest.raises(InputError):
        read_curves_csv(path)
    g2, values2 = read_curves_csv(path, allow_nan=True)
    assert np.isnan(values2[0, 1])
    np.testing.assert_array_equal(g2.points, g.points)


def test_csv_rejects_ragged_and_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1,2\n1,2\n", encoding="utf-8")
    with pytest.raises(InputError):
        read_curves_csv(path)
    path.write_text("0,1,2\n1,2,fish\n", encoding="utf-8")
    with pytest.raises(InputError):
        read_curves_csv(path)


@pytest.mark.parametrize(
    "text, line",
    [("0,1\n\n1,fish\n", 3), ("0,1\n\n1,2\n \n1,2\n3,x\n4,5\n", 6), ("0,+\n1,2\n", 1)],
)
def test_csv_bad_cell_names_its_file_line(tmp_path, text, line):
    # the same 1-based file line a ragged row's message names, blank
    # lines counted; numpy's own row index skips them and starts at 0
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InputError, match=f"bad.csv:{line}: unparseable cell") as err:
        read_curves_csv(path)
    assert "row" not in str(err.value)


# ---------------------------------------------------------------------------
# CSV reader and writer against the per-cell reference (tests/csv_reference.py)
# ---------------------------------------------------------------------------

# cells the float() grammar accepts, in the spellings a file may hold
GOOD_CELLS = [
    "0", "1", "-1", "+2.5", "-0.0", "0.0", ".5", "5.", "1e-3", "2.5E+2", "-7e0",
    "nan", "NaN", "-nan", "+NAN", "inf", "-inf", "Infinity", "-Infinity",
    "1e500", "-1e500", "1e-400", "5e-324", "-4.9406564584124654e-324",
    "2.2250738585072009e-308", "1.7976931348623157e308", "0.1", "3.14159",
]
# cells it rejects
BAD_CELLS = ["", "fish", "1 2", "--1", "1e", "e5", "0x10", ".", "+", "1;", "nan(1)", "\ufeff1",
             '"1"', "1#"]
PADDING = ["", " ", "  ", "\t", "\xa0", "\u2003"]
BLANK_LINES = ["", " ", "\t ", "\xa0"]
# every line break str.splitlines knows; a file iterator knows only the first three
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]


@st.composite
def cell_texts(draw):
    # Hypothesis draws the bounds of a range often, so the rare kinds sit inside
    kind = draw(st.integers(0, 39))  # about one cell in forty is garbage
    if kind == 20:
        core = draw(st.sampled_from(BAD_CELLS))
    elif kind < 16:
        core = draw(st.sampled_from(GOOD_CELLS))
    elif kind < 30:
        core = "%.17g" % draw(st.floats(allow_nan=False, allow_infinity=False))
    else:
        core = repr(draw(st.floats(width=32, allow_nan=False, allow_infinity=False)))
    return draw(st.sampled_from(PADDING)) + core + draw(st.sampled_from(PADDING))


@st.composite
def csv_texts(draw):
    """Curve-CSV-like texts: mostly well formed, with every kind of damage."""
    m = draw(st.integers(min_value=1, max_value=5))
    if draw(st.integers(0, 3)):  # a valid grid row, else free cells (NaN, garbage, ...)
        grid = [" %.17g" % v for v in sorted(draw(
            st.lists(st.integers(-50, 50), min_size=m, max_size=m, unique=True)
        ))]
    else:
        grid = draw(st.lists(cell_texts(), min_size=m, max_size=m))
    lines = [",".join(grid)]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(BLANK_LINES)))
        width = draw(st.integers(1, 6)) if draw(st.integers(0, 9)) == 5 else m  # ragged
        line = ",".join(draw(st.lists(cell_texts(), min_size=width, max_size=width)))
        lines.append(line + ("," if draw(st.integers(0, 19)) == 10 else ""))
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(BLANK_LINES)))
    breaks = draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=len(lines),
                           max_size=len(lines)))
    return "".join(line + br for line, br in zip(lines, breaks))


def _read_outcome(reader, path, allow_nan):
    """The bits a reader returns, or None when it raises InputError."""
    try:
        grid, values = reader(path, allow_nan=allow_nan)
    except InputError:
        return None
    return grid.points.tobytes(), values.shape, values.tobytes()


@settings(max_examples=N_FUZZ, deadline=None)
@given(csv_texts(), st.booleans())
def test_fuzz_csv_reader_matches_reference_bits(roundtrip_dir, text, allow_nan):
    path = roundtrip_dir / "diff.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = _read_outcome(csv_reference.read_curves_csv, path, allow_nan)
    assert _read_outcome(read_curves_csv, path, allow_nan) == expected, repr(text)


@pytest.mark.parametrize("cell", ["1_0", "١", "１", "1٠"])
def test_csv_reader_rejects_what_only_float_accepts(tmp_path, cell):
    # float() takes digit-group underscores and non-ASCII decimal digits;
    # numpy's parser does not, so such a file is an input error now
    path = tmp_path / "digits.csv"
    path.write_text(f"0,1\n2,{cell}\n", encoding="utf-8")
    csv_reference.read_curves_csv(path)  # accepted there
    with pytest.raises(InputError, match="unparseable cell"):
        read_curves_csv(path)


@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_csv_reader_breaks_lines_like_splitlines(tmp_path, brk):
    # breaks a file iterator does not know still end a row
    path = tmp_path / "breaks.csv"
    path.write_bytes(f"0,1{brk}2,3{brk}{brk}4,5".encode("utf-8"))
    grid, values = read_curves_csv(path)
    assert grid.points.tolist() == [0.0, 1.0]
    assert values.tolist() == [[2.0, 3.0], [4.0, 5.0]]


special_floats = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
     1.7976931348623157e308, np.nan, np.inf, -np.inf, 0.1, 1 / 3]
)


@settings(max_examples=N_FUZZ, deadline=None)
@given(grid_and_curves(), st.data())
def test_fuzz_csv_writer_matches_reference_bytes(roundtrip_dir, gc, data):
    g, curves = gc
    values = np.stack([c.values for c in curves])
    for idx in data.draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, g.m - 1)))):
        values[idx] = data.draw(st.one_of(special_floats, st.floats()))
    ours, ref = roundtrip_dir / "ours.csv", roundtrip_dir / "ref.csv"
    write_curves_csv(ours, g, values)
    csv_reference.write_curves_csv(ref, g, values)
    assert ours.read_bytes() == ref.read_bytes()
