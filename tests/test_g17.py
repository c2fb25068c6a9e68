"""The trace writer: the block kernel's text is exactly ``'%.17g' % v``, and
``SimTrace.to_csv`` writes the bytes of the row-wise writer it replaced."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lumped_pid.g17 import VALUES, BlockFormatter
from lumped_pid.sim import SimTrace


def row_wise_csv(trace: SimTrace, path) -> None:
    """The reference writer: each row through one ``%.17g`` format."""
    fmt = ",".join(["%.17g"] * len(trace.names)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(trace.names) + "\n")
        fh.writelines(fmt % row for row in zip(*[c.tolist() for c in trace.columns.values()]))


def assert_exact(values) -> None:
    """The kernel's text of ``values``, one per line, is ``'%.17g' % v``."""
    x = np.asarray(values, dtype=np.float64)
    formatter = BlockFormatter(1)
    got = b"".join(formatter(x[i:i + formatter.rows]) for i in range(0, len(x), formatter.rows))
    expected = [("%.17g" % v).encode() for v in x.tolist()]
    assert got.split(b"\n")[:-1] == expected


def ulps_around(values, ulps: int) -> np.ndarray:
    """The finite doubles within ``ulps`` ulps of each of ``values``, both signs."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)[:, None] + np.arange(-ulps, ulps + 1)
    near = bits[bits >= 0].view(np.float64)
    near = near[np.isfinite(near)]
    return np.concatenate([near, -near])


# the double nearest 10**e for every e the doubles reach
POWERS_OF_TEN = [float(f"1e{e}") for e in range(-323, 309)]
# exact ties at the 17th digit: odd multiples of 5**p / 2**(p + 1), at 16
# integer digits and 1 to 15 more; half-even and half-away differ on them
TIES = [1000000000000000.25, 1000000000000000.75, 100000000000000.125, 100000000000000.375,
        *((2 * m + 1) * 5**p / 2**(p + 1) for p in range(1, 16)
          for m in (10**15, 10**15 + 1, 4 * 10**15 + 7, 9 * 10**15 - 3))]


# float64 bit patterns: any 64-bit integer (small ones are subnormals), or a
# sign, an exponent and a mantissa drawn apart, so that every exponent comes up
BIT_PATTERNS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.builds(lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
              st.integers(0, 1), st.integers(0, 2047), st.integers(0, 2**52 - 1)))


class TestExactness:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(BIT_PATTERNS, min_size=1, max_size=300))
    @example([0, 2**63, 0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000001, 1,
              0x000FFFFFFFFFFFFF, 0x0010000000000000, 0x7FEFFFFFFFFFFFFF])
    def test_any_bit_pattern(self, bits):
        # NaN payloads, subnormals, both zeros and infinities all come up
        assert_exact(np.array(bits, dtype=np.uint64).view(np.float64))

    def test_around_every_power_of_ten(self):
        assert_exact(ulps_around(POWERS_OF_TEN, 40))

    def test_notation_switches(self):
        # fixed down to 1e-4 and up to 16 integer digits, exponents beyond
        switches = [1e-5, 1e-4, 1e16, 1e17, 9.9999999999999995e-5, 9.999999999999999e16,
                    99999999999999999.0, 12345678901234567.0, 0.00012345678901234567]
        assert_exact(ulps_around(switches, 40))
        assert_exact([1e17, 1e16, 1e-5, 1e-4])

    def test_three_digit_exponents(self):
        assert_exact(ulps_around([1e-100, 1.5e100, 2.5e-123, 1e250, 1e-250, 1.7976931348623157e308,
                                  2.2250738585072014e-308, 5e-324], 3))

    def test_ties_round_to_even(self):
        assert ("%.17g" % 1000000000000000.25, "%.17g" % 1000000000000000.75) == (
            "1000000000000000.2", "1000000000000000.8")
        assert_exact([*TIES, *(-v for v in TIES)])

    def test_near_ties(self):
        # within the kernel's 1e-6 tie margin of 1/2 at the 17th digit
        assert_exact(ulps_around(TIES, 2))

    @pytest.mark.parametrize("scale", [1e-30, 1e-3, 1.0, 1e3, 1e30])
    def test_normal_values(self, scale):
        assert_exact(np.random.default_rng(0).standard_normal(5000) * scale)


class TestToCsv:
    ROWS = VALUES // 8  # a block's rows for 8 columns

    def trace(self, rows: int, columns: int) -> SimTrace:
        rng = np.random.default_rng(rows * 100 + columns)
        data = {"t": np.arange(rows) * 1e-3}
        for j in range(columns - 1):
            values = rng.standard_normal(rows) * 10.0 ** rng.integers(-8, 8, rows)
            values[rng.random(rows) < 0.3] = 0.0
            data[f"c{j}"] = values
        return SimTrace(data)

    @pytest.mark.parametrize("rows, columns", [(1, 8), (ROWS - 1, 8), (ROWS, 8), (ROWS + 1, 8),
                                               (3 * ROWS + 5, 8), (5000, 1), (1, 1), (0, 3),
                                               (700, 35), (3, VALUES + 3)])
    def test_matches_the_row_wise_writer(self, tmp_path, rows, columns):
        trace = self.trace(rows, columns)
        trace.to_csv(tmp_path / "kernel.csv")
        row_wise_csv(trace, tmp_path / "rows.csv")
        assert (tmp_path / "kernel.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_peak_does_not_grow_with_the_trace(self, tmp_path):
        # a block holds a fixed number of values, so a trace 4x longer is
        # written within the same working memory
        def peak(rows: int) -> int:
            trace = self.trace(rows, 35)
            trace.to_csv(tmp_path / "warm.csv")
            tracemalloc.start()
            try:
                trace.to_csv(tmp_path / "trace.csv")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(3000), peak(12_000)
        assert long < short + 20_000
