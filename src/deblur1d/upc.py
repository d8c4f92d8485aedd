"""UPC-A codec: 12 digits <-> 59-bar pattern <-> binary sample vector.

A UPC-A symbol is 59 alternating black/white bars spanning 95 width units:
a 3-unit start guard (b-w-b), six 7-unit digit groups of four bars each
(w-b-w-b), a 5-unit middle guard (w-b-w-b-w), six more 7-unit groups with
flipped colors (b-w-b-w), and a 3-unit end guard (b-w-b).  Each digit maps
to a width quadruple; the two columns below are mirror images of one
another, and because the color parity flips across the middle guard, the
same column encodes a digit on either half.

Decoding works on a thresholded sample vector with an integer number of
samples per width unit: run-length encode, round each run to whole units,
check the guards, and look the width quadruples up in the table (either
column, so bar widths alone carry the digits).  Two deliberate robustness
steps mirror what a human does with a fuzzy scan: runs that round to zero
width are treated as speckle and merged away, and a digit group whose
widths sum to 6 or 8 gets its worst-rounded width nudged by one before
lookup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blur import Signal
from .errors import DecodeError, DegenerateThresholdError
from .kernels import make_grid

__all__ = [
    "DIGIT_PATTERNS",
    "parse_digits",
    "BarPattern",
    "BinaryBarVector",
    "encode_upc",
    "pattern_to_signal",
    "threshold_signal",
    "decode_upc",
    "check_digit_valid",
    "GroupDiagnostic",
    "DecodeResult",
]

TOTAL_BARS = 59
TOTAL_UNITS = 95

# Width quadruples per digit: (forward column, mirrored column).  Every
# quadruple sums to 7 and no quadruple appears under two digits, so lookup
# over both columns is unambiguous.
DIGIT_PATTERNS = {
    0: ((3, 2, 1, 1), (1, 1, 2, 3)),
    1: ((2, 2, 2, 1), (1, 2, 2, 2)),
    2: ((2, 1, 2, 2), (2, 2, 1, 2)),
    3: ((1, 4, 1, 1), (1, 1, 4, 1)),
    4: ((1, 1, 3, 2), (2, 3, 1, 1)),
    5: ((1, 2, 3, 1), (1, 3, 2, 1)),
    6: ((1, 1, 1, 4), (4, 1, 1, 1)),
    7: ((1, 3, 1, 2), (2, 1, 3, 1)),
    8: ((1, 2, 1, 3), (3, 1, 2, 1)),
    9: ((3, 1, 1, 2), (2, 1, 1, 3)),
}

_LOOKUP = {}
for _digit, _cols in DIGIT_PATTERNS.items():
    for _column, _pattern in enumerate(_cols, start=1):
        _LOOKUP[_pattern] = (_digit, _column)

# Bar index ranges (0-based) of the three fixed-width guard groups.
_START_GUARD = range(0, 3)
_MIDDLE_GUARD = range(27, 32)
_END_GUARD = range(56, 59)


def parse_digits(digits) -> tuple:
    """Normalize a digit string or int sequence to a 12-tuple in 0..9."""
    if isinstance(digits, str):
        text = digits.strip()
        if not text.isdigit():
            raise ValueError(f"digit string must be decimal digits only, got {digits!r}")
        items = [int(c) for c in text]
    else:
        items = [int(d) for d in digits]
    if len(items) != 12:
        raise ValueError(f"a UPC-A code has exactly 12 digits, got {len(items)}")
    if any(not 0 <= d <= 9 for d in items):
        raise ValueError(f"digits must lie in 0..9, got {items}")
    return tuple(items)


@dataclass(frozen=True)
class BarPattern:
    """59 bar widths in units; colors alternate, starting and ending black."""

    widths: tuple

    def __post_init__(self):
        widths = tuple(int(w) for w in self.widths)
        object.__setattr__(self, "widths", widths)
        if len(widths) != TOTAL_BARS:
            raise ValueError(f"expected {TOTAL_BARS} bars, got {len(widths)}")
        if any(not 1 <= w <= 4 for w in widths):
            raise ValueError("bar widths must lie in 1..4 units")
        if sum(widths) != TOTAL_UNITS:
            raise ValueError(f"bar widths must sum to {TOTAL_UNITS}, got {sum(widths)}")
        for guard in (_START_GUARD, _MIDDLE_GUARD, _END_GUARD):
            if any(widths[i] != 1 for i in guard):
                raise ValueError("guard bars must all have width 1")
        for start in _digit_group_starts():
            if sum(widths[start : start + 4]) != 7:
                raise ValueError("each digit group of four bars must sum to 7 units")


def _digit_group_starts():
    left = [3 + 4 * g for g in range(6)]
    right = [32 + 4 * g for g in range(6)]
    return left + right


@dataclass(frozen=True, eq=False)
class BinaryBarVector:
    """Grid-aligned bits (1 = black) with an integer sample count per unit."""

    bits: np.ndarray
    points_per_unit: int

    def __post_init__(self):
        bits = np.asarray(self.bits)
        if bits.ndim != 1 or not np.all((bits == 0) | (bits == 1)):
            raise ValueError("bits must be a 1-d 0/1 vector")
        p = int(self.points_per_unit)
        if p < 1:
            raise ValueError(f"points per unit must be >= 1, got {p}")
        if bits.size != TOTAL_UNITS * p:
            raise ValueError(
                f"bit vector must have {TOTAL_UNITS}*{p} = {TOTAL_UNITS * p} entries, got {bits.size}"
            )
        bits = bits.astype(np.uint8)
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "points_per_unit", p)


def encode_upc(digits) -> BarPattern:
    """Encode 12 digits as the 59-bar width pattern."""
    digits = parse_digits(digits)
    widths = [1, 1, 1]
    for d in digits[:6]:
        widths.extend(DIGIT_PATTERNS[d][0])
    widths.extend([1, 1, 1, 1, 1])
    for d in digits[6:]:
        widths.extend(DIGIT_PATTERNS[d][0])
    widths.extend([1, 1, 1])
    return BarPattern(tuple(widths))


def pattern_to_signal(pattern: BarPattern, points_per_unit: int) -> Signal:
    """Sample the bar pattern as a 0/1 signal, p samples per width unit."""
    p = int(points_per_unit)
    if p < 1:
        raise ValueError(f"points per unit must be >= 1, got {p}")
    colors = 1.0 - (np.arange(TOTAL_BARS) % 2)
    counts = np.asarray(pattern.widths) * p
    values = np.repeat(colors, counts)
    return Signal(make_grid(TOTAL_UNITS * p), values)


def threshold_signal(f: Signal) -> BinaryBarVector:
    """Binarize at the midpoint of the signal's extreme values.

    The cut sits at (min + max)/2 and a sample is black when it lands at or
    above the cut, so any positive-affine rescaling of the signal yields
    the identical bit vector.
    """
    values = f.values
    lo = float(values.min())
    hi = float(values.max())
    if lo == hi:
        raise DegenerateThresholdError("constant signal: min/max threshold undefined")
    if f.grid.n % TOTAL_UNITS != 0:
        raise ValueError(
            f"signal length {f.grid.n} is not a multiple of {TOTAL_UNITS} units"
        )
    tau = 0.5 * (lo + hi)
    return BinaryBarVector(values >= tau, f.grid.n // TOTAL_UNITS)


def check_digit_valid(digits) -> bool:
    """Mod-10 check: 3*(odd positions) + (even positions 2..10) + d12 = 0 mod 10."""
    digits = parse_digits(digits)
    odd = sum(digits[0:11:2])
    even = sum(digits[1:10:2])
    return (3 * odd + even + digits[11]) % 10 == 0


@dataclass(frozen=True)
class GroupDiagnostic:
    """How one digit group was read: raw runs, rounding, repair, table column."""

    index: int
    digit: int
    run_lengths: tuple
    unit_widths: tuple
    widths: tuple
    repaired: bool
    pattern_column: int


@dataclass(frozen=True)
class DecodeResult:
    """Decoded digits plus per-group diagnostics."""

    digits: tuple
    groups: tuple
    reversed_scan: bool
    check_digit_ok: bool

    @property
    def digits_string(self) -> str:
        return "".join(str(d) for d in self.digits)


def _run_lengths(bits: np.ndarray):
    edges = np.flatnonzero(np.diff(bits)) + 1
    starts = np.concatenate(([0], edges))
    ends = np.concatenate((edges, [bits.size]))
    values = bits[starts].astype(int).tolist()
    lengths = (ends - starts).astype(int).tolist()
    return values, lengths


def _merge_speckle(values, lengths, p):
    """Merge away runs that round to zero width (isolated flipped samples)."""
    while len(lengths) > 1:
        tiny = [i for i, ln in enumerate(lengths) if int(np.floor(ln / p + 0.5)) == 0]
        if not tiny:
            break
        i = min(tiny, key=lambda k: (lengths[k], k))
        if 0 < i < len(lengths) - 1:
            lengths[i - 1] += lengths[i] + lengths[i + 1]
            del values[i : i + 2]
            del lengths[i : i + 2]
        else:
            j = 1 if i == 0 else len(lengths) - 2
            lengths[j] += lengths[i]
            del values[i]
            del lengths[i]
    return values, lengths


def _round_width(units: float) -> int:
    w = int(np.floor(units + 0.5))
    return min(4, max(1, w))


def _repair_widths(widths, residuals, group_index):
    total = sum(widths)
    if total == 7:
        return widths, False
    if total not in (6, 8):
        raise DecodeError(
            f"digit group {group_index}: widths {widths} sum to {total}, expected 7",
            group_index,
        )
    # _round_width clamps to 1..4, so some width can always take the step.
    step = 7 - total
    candidates = [i for i, w in enumerate(widths) if 1 <= w + step <= 4]
    i = min(candidates, key=lambda k: (-step * residuals[k], k))
    widths = list(widths)
    widths[i] += step
    return tuple(widths), True


def _decode_runs(bits: np.ndarray, p: int, reversed_scan: bool) -> DecodeResult:
    values, lengths = _run_lengths(bits)
    values, lengths = _merge_speckle(values, lengths, p)
    if len(lengths) != TOTAL_BARS:
        raise DecodeError(f"expected {TOTAL_BARS} bars, found {len(lengths)} runs")
    if values[0] != 1 or values[-1] != 1:
        raise DecodeError("bar pattern must start and end with a black bar")
    unit_widths = [ln / p for ln in lengths]
    rounded = [_round_width(u) for u in unit_widths]
    for name, guard in (("start", _START_GUARD), ("middle", _MIDDLE_GUARD), ("end", _END_GUARD)):
        if any(rounded[i] != 1 for i in guard):
            raise DecodeError(f"{name} guard bars are not all width 1")
    digits = []
    groups = []
    for g, start in enumerate(_digit_group_starts()):
        runs = tuple(lengths[start : start + 4])
        raw = tuple(unit_widths[start : start + 4])
        widths = tuple(rounded[start : start + 4])
        residuals = [raw[i] - widths[i] for i in range(4)]
        widths, repaired = _repair_widths(widths, residuals, g)
        try:
            digit, column = _LOOKUP[widths]
        except KeyError:
            raise DecodeError(
                f"digit group {g}: widths {widths} match no digit pattern", g
            ) from None
        digits.append(digit)
        groups.append(
            GroupDiagnostic(
                index=g,
                run_lengths=runs,
                unit_widths=raw,
                widths=widths,
                repaired=repaired,
                pattern_column=column,
                digit=digit,
            )
        )
    digits = tuple(digits)
    return DecodeResult(
        digits=digits,
        groups=tuple(groups),
        reversed_scan=reversed_scan,
        check_digit_ok=check_digit_valid(digits),
    )


def decode_upc(bits: BinaryBarVector, allow_reversed: bool = False) -> DecodeResult:
    """Decode a thresholded bit vector back to its 12 digits.

    The vector is read in forward orientation.  Note that bar widths alone
    cannot distinguish a forward scan from a reversed one, so a cleanly
    reversed vector decodes "successfully" to the reversed, remapped digit
    string -- the advisory check digit in the result is the tell.  With
    ``allow_reversed``, a failed forward decode is retried on the flipped
    vector and flagged as ``reversed_scan``.
    """
    p = bits.points_per_unit
    try:
        return _decode_runs(bits.bits, p, reversed_scan=False)
    except DecodeError:
        if not allow_reversed:
            raise
        return _decode_runs(bits.bits[::-1], p, reversed_scan=True)
