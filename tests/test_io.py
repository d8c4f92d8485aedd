import numpy as np
import pytest

import deblur1d as d


def test_read_vector_basic(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("1.0\n2.5\n-3\n")
    assert d.read_vector_csv(p).tolist() == [1.0, 2.5, -3.0]


def test_read_vector_whitespace_separated(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("1 2\n3\t4\n")
    assert d.read_vector_csv(p).tolist() == [1.0, 2.0, 3.0, 4.0]


def test_read_vector_empty_file(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("")
    assert d.read_vector_csv(p).size == 0


def test_read_vector_reports_offending_line(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("1.0\nok?\n3.0\n")
    with pytest.raises(d.VectorParseError) as err:
        d.read_vector_csv(p)
    assert ":2:" in str(err.value)
    for token in ("nan", "inf", "-Infinity"):
        p.write_text(f"1.0\n2.0\n3.0 {token}\n")
        with pytest.raises(d.VectorParseError) as err:
            d.read_vector_csv(p)
        assert f"{p}:3:" in str(err.value)


def test_read_vector_missing_file(tmp_path):
    with pytest.raises(OSError):
        d.read_vector_csv(tmp_path / "nope.csv")


def test_vector_round_trip_is_bit_exact(tmp_path):
    p = tmp_path / "v.csv"
    values = np.array([0.1, 1 / 3, -1e-300, 7.0, 2**-52, 123456789.123456789])
    d.write_vector_csv(p, values)
    back = d.read_vector_csv(p)
    assert np.array_equal(back, values)


def test_signal_file_round_trip(tmp_path, hat500):
    p = tmp_path / "b.csv"
    d.write_vector_csv(p, hat500.b_noise.values)
    assert np.array_equal(d.read_vector_csv(p), hat500.b_noise.values)


def test_write_table_format(tmp_path):
    p = tmp_path / "t.csv"
    d.write_table_csv(p, ["a", "b"], [[1, 2]])
    assert p.read_text() == "a,b\n1,2\n"


def test_table_round_trip(tmp_path):
    p = tmp_path / "t.csv"
    rows = [[1e-7, 11.25, 43.9], [0.5, 10.3, 0.97]]
    d.write_table_csv(p, ["lambda", "residual_norm", "solution_norm"], rows)
    headers, data = d.read_table_csv(p)
    assert headers == ["lambda", "residual_norm", "solution_norm"]
    assert np.array_equal(data, np.asarray(rows))


def test_read_table_reports_ragged_row(tmp_path):
    p = tmp_path / "t.csv"
    # a short or long row among full ones, and rows all of the wrong width
    for body, lineno in (("1,2\n3\n", 3), ("1,2\n3,4,5\n", 3), ("1\n2\n", 2)):
        p.write_text("a,b\n" + body)
        with pytest.raises(d.VectorParseError, match=f"{p}:{lineno}: row has"):
            d.read_table_csv(p)


def test_write_table_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError):
        d.write_table_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2, 3]])
