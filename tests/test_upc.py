import numpy as np
import pytest

import deblur1d as d

COKE = "049000027679"


def random_codes(count, seed):
    rng = np.random.default_rng(seed)
    return ["".join(str(x) for x in rng.integers(0, 10, size=12)) for _ in range(count)]


def test_digit_table_widths_sum_to_seven():
    assert len(d.DIGIT_PATTERNS) == 10
    for digit, (p1, p2) in d.DIGIT_PATTERNS.items():
        assert sum(p1) == 7 and sum(p2) == 7
        assert p2 == tuple(reversed(p1))
        assert all(1 <= w <= 4 for w in p1)


def test_digit_table_lookup_is_unambiguous():
    seen = {}
    for digit, cols in d.DIGIT_PATTERNS.items():
        for pattern in cols:
            assert seen.setdefault(pattern, digit) == digit
    assert len(seen) == 20


def test_parse_digits():
    assert d.parse_digits(COKE) == (0, 4, 9, 0, 0, 0, 0, 2, 7, 6, 7, 9)
    assert d.parse_digits([0] * 12) == (0,) * 12
    for bad in ("12345", "12345678901a", [1] * 11, [1] * 13, [1] * 11 + [12]):
        with pytest.raises(ValueError):
            d.parse_digits(bad)


def test_encode_digit_zero_pattern():
    pattern = d.encode_upc("000000000000")
    for start in (3, 7, 32, 36):
        assert pattern.widths[start : start + 4] == (3, 2, 1, 1)


def test_encode_structure():
    pattern = d.encode_upc(COKE)
    assert len(pattern.widths) == 59
    assert sum(pattern.widths) == 95
    # first three data groups after the start guard
    assert pattern.widths[3:7] == (3, 2, 1, 1)
    assert pattern.widths[7:11] == (1, 1, 3, 2)
    assert pattern.widths[11:15] == (3, 1, 1, 2)


def test_encoded_patterns_satisfy_all_structural_invariants():
    for code in random_codes(25, 1):
        pattern = d.encode_upc(code)
        assert len(pattern.widths) == 59
        assert sum(pattern.widths) == 95
        assert all(pattern.widths[i] == 1 for i in (0, 1, 2, 27, 28, 29, 30, 31, 56, 57, 58))


def test_bar_pattern_validation():
    good = list(d.encode_upc(COKE).widths)
    bad = good.copy()
    bad[3] += 1
    with pytest.raises(ValueError):
        d.BarPattern(tuple(bad))
    with pytest.raises(ValueError):
        d.BarPattern(tuple(good[:-1]))


def test_pattern_to_signal_start_prefix():
    f = d.pattern_to_signal(d.encode_upc(COKE), 6)
    assert f.grid.n == 570
    expected = [1] * 6 + [0] * 6 + [1] * 6
    assert f.values[:18].tolist() == expected


def test_pattern_to_signal_unit_resolution():
    pattern = d.encode_upc(COKE)
    f = d.pattern_to_signal(pattern, 1)
    assert f.grid.n == 95
    widths = np.asarray(pattern.widths)
    colors = 1.0 - (np.arange(59) % 2)
    assert f.values.tolist() == np.repeat(colors, widths).tolist()


def test_threshold_binary_signal_is_identity():
    f = d.pattern_to_signal(d.encode_upc(COKE), 2)
    bits = d.threshold_signal(f)
    assert bits.points_per_unit == 2
    assert np.array_equal(bits.bits, f.values.astype(np.uint8))


def test_threshold_affine_invariance():
    f = d.pattern_to_signal(d.encode_upc(COKE), 3)
    base = d.threshold_signal(f)
    rng = np.random.default_rng(9)
    for _ in range(5):
        a = float(rng.uniform(0.1, 5.0))
        c = float(rng.uniform(-10, 10))
        scaled = d.Signal(f.grid, a * f.values + c)
        assert np.array_equal(d.threshold_signal(scaled).bits, base.bits)


def test_threshold_errors():
    flat = d.Signal(d.make_grid(95), np.ones(95))
    with pytest.raises(d.DegenerateThresholdError):
        d.threshold_signal(flat)
    odd = d.Signal(d.make_grid(96), np.arange(96, dtype=float))
    with pytest.raises(ValueError):
        d.threshold_signal(odd)


def test_decode_worked_example():
    bits = d.threshold_signal(d.pattern_to_signal(d.encode_upc(COKE), 6))
    result = d.decode_upc(bits)
    assert result.digits_string == COKE
    assert not result.reversed_scan
    assert result.check_digit_ok
    assert len(result.groups) == 12
    # the (1,1,3,2) group in the left half reads as digit 4
    g = result.groups[1]
    assert g.widths == (1, 1, 3, 2) and g.digit == 4 and g.pattern_column == 1
    assert not any(g.repaired for g in result.groups)


@pytest.mark.parametrize("p", [1, 2, 6, 10])
def test_round_trip_random_codes(p):
    for code in random_codes(60, 100 + p):
        bits = d.threshold_signal(d.pattern_to_signal(d.encode_upc(code), p))
        assert d.decode_upc(bits).digits_string == code


def test_single_bit_flip_robustness():
    bits = d.threshold_signal(d.pattern_to_signal(d.encode_upc(COKE), 6))
    base = bits.bits.copy()
    for i in range(570):
        flipped = base.copy()
        flipped[i] ^= 1
        result = d.decode_upc(d.BinaryBarVector(flipped, 6))
        assert result.digits_string == COKE


def test_reversed_vector_decodes_to_remapped_digits():
    bits = d.threshold_signal(d.pattern_to_signal(d.encode_upc(COKE), 6))
    reversed_bits = d.BinaryBarVector(bits.bits[::-1], 6)
    result = d.decode_upc(reversed_bits)
    # widths alone cannot flag the orientation; the advisory check digit can
    assert result.digits_string == COKE[::-1]
    assert not result.check_digit_ok


def test_decode_failure_modes():
    bits = d.threshold_signal(d.pattern_to_signal(d.encode_upc(COKE), 6))
    base = bits.bits.copy()
    # destroy the start guard entirely
    broken = base.copy()
    broken[:18] = 0
    with pytest.raises(d.DecodeError):
        d.decode_upc(d.BinaryBarVector(broken, 6))
    # retry on the reversed vector also fails, flag or not
    with pytest.raises(d.DecodeError):
        d.decode_upc(d.BinaryBarVector(broken, 6), allow_reversed=True)
    # all-black cannot be run-length decoded into 59 bars
    with pytest.raises(d.DecodeError) as err:
        d.decode_upc(d.BinaryBarVector(np.ones(570, dtype=np.uint8), 6))
    assert "59" in str(err.value)


def test_erased_bar_breaks_the_run_count():
    bits = d.threshold_signal(d.pattern_to_signal(d.encode_upc(COKE), 6))
    vals = bits.bits.copy()
    # erase the black bar of digit group 5 entirely (units 44..45): three
    # runs coalesce into one, leaving 57 bars
    vals[264:270] = 0
    with pytest.raises(d.DecodeError) as err:
        d.decode_upc(d.BinaryBarVector(vals, 6))
    assert "57" in str(err.value)


def test_irreparable_group_sum_reports_group_index():
    bits = d.threshold_signal(d.pattern_to_signal(d.encode_upc(COKE), 6))
    vals = bits.bits.copy()
    # grow digit group 6 (units 50..57, widths 2-1-2-2) outward by half a
    # unit on both flanks: its rounded widths become 3-1-2-3, an
    # irreparable sum of 9, while both neighbours still round cleanly
    vals[297:300] = 1  # first bar eats into the middle guard's last bar
    vals[342:345] = 0  # last bar eats into digit group 7's first bar
    with pytest.raises(d.DecodeError) as err:
        d.decode_upc(d.BinaryBarVector(vals, 6))
    assert err.value.group == 6


def test_repair_recovers_a_half_unit_boundary_shift():
    # stretch the black bar of digit group 5 half a unit into the middle
    # guard: the group then rounds to 3-2-1-2 (sum 8) and the repair step
    # walks it back to 3-2-1-1 before lookup
    bits = d.threshold_signal(d.pattern_to_signal(d.encode_upc(COKE), 6))
    vals = bits.bits.copy()
    vals[270:273] = 1
    result = d.decode_upc(d.BinaryBarVector(vals, 6))
    assert result.digits_string == COKE
    assert result.groups[5].repaired
    assert not result.groups[4].repaired


def test_repair_recovers_a_sum_six_group():
    # move the boundary between digit groups 1 and 2 two thirds of a unit
    # right: group 1 rounds to 1-1-3-3 (sum 8), group 2 to 2-1-1-2 (sum 6),
    # and the repair step widens group 2's shrunk first space back to 3
    bits = d.threshold_signal(d.pattern_to_signal(d.encode_upc(COKE), 6))
    vals = bits.bits.copy()
    vals[102:106] = vals[101]
    result = d.decode_upc(d.BinaryBarVector(vals, 6))
    assert result.digits_string == COKE
    g = result.groups[2]
    assert [int(np.floor(u + 0.5)) for u in g.unit_widths] == [2, 1, 1, 2]
    assert g.repaired and g.widths == (3, 1, 1, 2)
    assert result.groups[1].repaired


def test_check_digit():
    assert d.check_digit_valid(COKE)
    assert d.check_digit_valid("000000000000")
    assert not d.check_digit_valid("000000000001")


def test_binary_bar_vector_validation():
    with pytest.raises(ValueError):
        d.BinaryBarVector(np.ones(94), 1)
    with pytest.raises(ValueError):
        d.BinaryBarVector(np.full(95, 2.0), 1)
