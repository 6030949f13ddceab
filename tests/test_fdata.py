import tracemalloc

import numpy as np
import pytest

from fdbands import (
    Curve,
    FunctionalSample,
    Grid,
    NonFiniteValue,
    NonIncreasingGrid,
    ParseError,
    ShapeMismatch,
    TooFewCurves,
    read_sample_csv,
    validate,
    write_sample_csv,
)


def test_validate_accepts_well_formed_sample():
    sample = FunctionalSample(Grid([0.0, 0.5, 1.0]), [[1, 2, 3], [2, 2, 2], [0, 1, 0]])
    validate(sample)  # should not raise


def test_duplicate_grid_point_rejected():
    with pytest.raises(NonIncreasingGrid):
        Grid([0.0, 0.0, 1.0])


def test_decreasing_grid_rejected():
    with pytest.raises(NonIncreasingGrid):
        Grid([0.0, 0.7, 0.5])


def test_short_grid_rejected():
    with pytest.raises(NonIncreasingGrid):
        Grid([0.3])


def test_nonfinite_grid_rejected():
    with pytest.raises(NonFiniteValue):
        Grid([0.0, np.nan, 1.0])


def test_single_curve_rejected():
    with pytest.raises(TooFewCurves):
        FunctionalSample(Grid([0.0, 1.0]), [[1.0, 2.0]])


def test_nonfinite_value_rejected():
    with pytest.raises(NonFiniteValue):
        FunctionalSample(Grid([0.0, 1.0]), [[1.0, 2.0], [np.inf, 0.0]])


def test_width_mismatch_rejected():
    with pytest.raises(ShapeMismatch):
        FunctionalSample(Grid([0.0, 0.5, 1.0]), [[1.0, 2.0], [3.0, 4.0]])


def test_sample_takes_over_only_a_frozen_array_it_can_own():
    grid = Grid([0.0, 1.0])
    frozen = np.array([[1.0, 2.0], [3.0, 4.0]])
    frozen.setflags(write=False)
    assert FunctionalSample(grid, frozen).values is frozen
    for values in (np.array([[1.0, 2.0], [3.0, 4.0]]), frozen[::-1], frozen.astype(np.float32)):
        vals = FunctionalSample(grid, values).values
        assert not np.shares_memory(vals, values)
        assert vals.dtype == np.float64 and not vals.flags.writeable


def test_curve_invariants():
    grid = Grid([0.0, 0.5, 1.0])
    Curve(grid, [1.0, 2.0, 3.0])
    with pytest.raises(ShapeMismatch):
        Curve(grid, [1.0, 2.0])
    with pytest.raises(NonFiniteValue):
        Curve(grid, [1.0, np.nan, 3.0])


def test_containers_are_immutable():
    sample = FunctionalSample(Grid([0.0, 1.0]), [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        sample.values[0, 0] = 99.0
    with pytest.raises(ValueError):
        sample.grid.points[0] = -1.0


def test_read_sample_csv_basic(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("0,0.5,1\n1,2,3\n2,2,2\n")
    sample = read_sample_csv(path)
    assert sample.n == 2 and sample.t == 3
    assert np.array_equal(sample.grid.points, [0.0, 0.5, 1.0])
    assert np.array_equal(sample.values, [[1.0, 2.0, 3.0], [2.0, 2.0, 2.0]])


def test_read_accepts_scientific_notation(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("0,1e0\n1.5e-3,2E+1\n-1e-10,3\n")
    sample = read_sample_csv(path)
    assert sample.values[0, 1] == 20.0


def test_ragged_row_rejected(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("0,0.5,1\n1,2\n")
    with pytest.raises(ShapeMismatch):
        read_sample_csv(path)


def test_malformed_cell_rejected(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("0,0.5,1\n1,two,3\n")
    with pytest.raises(ParseError):
        read_sample_csv(path)


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    grid = Grid(np.sort(rng.uniform(-3, 11, size=23)))
    values = rng.standard_normal((5, 23)) * 10.0 ** rng.integers(-12, 12, size=(5, 23))
    sample = FunctionalSample(grid, values)
    path = tmp_path / "round.csv"
    write_sample_csv(sample, path)
    back = read_sample_csv(path)
    assert np.array_equal(back.grid.points, sample.grid.points)
    assert np.array_equal(back.values, sample.values)


def test_write_to_bad_path_raises_oserror(tmp_path):
    sample = FunctionalSample(Grid([0.0, 1.0]), [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(OSError):
        write_sample_csv(sample, tmp_path / "no" / "such" / "dir" / "f.csv")
    with pytest.raises(OSError):
        write_sample_csv(sample, "")


def test_round_trip_keeps_extreme_values_bit_exact(tmp_path):
    # tiny, subnormal, negative zero, huge, and 17-digit mantissas
    extremes = [1e-300, 5e-324, -0.0, 1e300, 0.1 + 0.2, 1.0 / 3.0, np.nextafter(1.0, 2.0), -2.5e-308]
    grid = Grid(np.arange(len(extremes), dtype=float))
    sample = FunctionalSample(grid, [extremes, extremes[::-1]])
    path = tmp_path / "extremes.csv"
    write_sample_csv(sample, path)
    back = read_sample_csv(path)
    assert back.values.tobytes() == sample.values.tobytes()  # keeps the sign of -0.0
    assert back.grid.points.tobytes() == sample.grid.points.tobytes()


def test_write_bytes_match_per_value_formatting(tmp_path):
    rng = np.random.default_rng(11)
    grid = Grid(np.linspace(-1.0, 2.0, 7))
    values = rng.standard_normal((4, 7)) * 10.0 ** rng.integers(-300, 300, size=(4, 7))
    values[0, 0] = -0.0
    sample = FunctionalSample(grid, values)
    path = tmp_path / "w.csv"
    write_sample_csv(sample, path)
    rows = [grid.points, *sample.values]
    want = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
    assert path.read_bytes() == want.encode("ascii")


def test_read_skips_blank_lines_and_accepts_crlf(tmp_path):
    path = tmp_path / "s.csv"
    path.write_bytes(b"\r\n0,0.5,1\r\n\r\n   \r\n1,2,3\r\n\t\r\n2,2,2\r\n\r\n")
    sample = read_sample_csv(path)
    assert np.array_equal(sample.grid.points, [0.0, 0.5, 1.0])
    assert np.array_equal(sample.values, [[1.0, 2.0, 3.0], [2.0, 2.0, 2.0]])


def test_hash_is_data_not_a_comment(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("0,0.5,1\n\n1,2,3\n2,2,#3\n")
    with pytest.raises(ParseError, match=r"^line 3: cannot parse '#3'$"):
        read_sample_csv(path)
    path.write_text("0,0.5,1\n# a comment\n1,2,3\n")
    with pytest.raises(ParseError, match=r"^line 2: cannot parse '# a comment'$"):
        read_sample_csv(path)


def test_ragged_row_message_names_the_line(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("0,0.5,1\n1,2,3\n\n4,5\n")
    with pytest.raises(ShapeMismatch, match=r"^line 3: 2 cells, expected 3$"):
        read_sample_csv(path)
    path.write_text("0,0.5,1\n")
    with pytest.raises(ShapeMismatch, match="needs a grid line and at least one curve line"):
        read_sample_csv(path)


def test_undecodable_bytes_are_a_parse_error(tmp_path):
    path = tmp_path / "s.csv"
    path.write_bytes(b"0,0.5,1\n1,2,3\n\xff\xfe")
    with pytest.raises(ParseError):
        read_sample_csv(path)


def test_read_sample_csv_holds_one_n_by_t_array(tmp_path):
    # the curves are parsed straight into the array the sample owns, so the
    # peak stays near its 3.2 MB of values instead of holding a copy as well
    path = tmp_path / "s.csv"
    values = np.random.default_rng(0).standard_normal((1000, 400))
    write_sample_csv(FunctionalSample(Grid(np.linspace(0.0, 1.0, 400)), values), path)
    read_sample_csv(path)
    tracemalloc.start()
    try:
        sample = read_sample_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(sample.values, values)
    assert peak < 4.5e6
