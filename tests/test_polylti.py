import cmath
import math
import random

import pytest

from lumped_pid.errors import ConfigError, PoleHitError
from lumped_pid.polylti import (
    MAX_GRID_POINTS,
    Polynomial,
    RationalTransferFunction,
    binomial_poly,
    dc_gain,
    evaluate_at,
    frequency_response,
    log_grid,
    poly_mul,
)


def schoolbook_mul(a, b):
    """Independent oracle: direct double-loop expansion."""
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def repeated_linear_factor(omega, n):
    """Independent oracle for (s+omega)^n: iterated multiplication."""
    acc = [1.0]
    for _ in range(n):
        acc = schoolbook_mul(acc, [omega, 1.0])
    return acc


class TestPolynomial:
    def test_trailing_zeros_stripped(self):
        assert Polynomial([1.0, 2.0, 0.0, 0.0]).coeffs == (1.0, 2.0)

    def test_zero_polynomial(self):
        p = Polynomial([0.0, 0.0])
        assert p.is_zero and p.coeffs == (0.0,)

    def test_no_coefficients_is_the_zero_polynomial(self):
        p = Polynomial([])
        assert p.is_zero and p.coeffs == (0.0,) and p.degree == 0

    def test_horner_evaluation(self):
        p = Polynomial([1.0, -3.0, 2.0])  # 1 - 3s + 2s^2
        assert p(2.0) == 1.0 - 6.0 + 8.0


class TestBinomialPoly:
    def test_pascal_row(self):
        assert binomial_poly(1.0, 3).coeffs == (1.0, 3.0, 3.0, 1.0)

    def test_omega_three_squared(self):
        assert binomial_poly(3.0, 2).coeffs == (9.0, 6.0, 1.0)

    def test_against_iterated_multiplication(self):
        expected = repeated_linear_factor(2.5, 4)
        got = binomial_poly(2.5, 4).coeffs
        for g, e in zip(got, expected):
            assert g == pytest.approx(e, rel=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("omega", [0.3, 1.0, 2.0, 5.0, 17.5])
    def test_matches_fold_of_poly_mul(self, omega, n):
        folded = Polynomial([1.0])
        for _ in range(n):
            folded = poly_mul(folded, Polynomial([omega, 1.0]))
        for g, e in zip(binomial_poly(omega, n).coeffs, folded.coeffs):
            assert g == pytest.approx(e, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            binomial_poly(0.0, 2)
        with pytest.raises(ConfigError):
            binomial_poly(-1.0, 2)
        with pytest.raises(ConfigError, match="^omega: expected a finite number, got inf$"):
            binomial_poly(math.inf, 2)
        with pytest.raises(ConfigError):
            binomial_poly(1.0, 0)


class TestPolyMul:
    def test_identity(self):
        assert poly_mul(Polynomial([1.0]), Polynomial([9.0, 6.0, 1.0])).coeffs == (9.0, 6.0, 1.0)

    def test_linear_factor_squared(self):
        assert poly_mul(Polynomial([3.0, 1.0]), Polynomial([3.0, 1.0])).coeffs == (9.0, 6.0, 1.0)

    def test_random_pair_against_schoolbook(self):
        rng = random.Random(20240605)
        a = [rng.uniform(-3, 3) for _ in range(6)]
        b = [rng.uniform(-3, 3) for _ in range(5)]
        expected = schoolbook_mul(a, b)
        got = poly_mul(Polynomial(a), Polynomial(b)).coeffs
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g == pytest.approx(e, abs=1e-14)

    def test_degree_additivity(self):
        a = Polynomial([1.0, 2.0, 1.0])
        b = Polynomial([4.0, 1.0])
        assert poly_mul(a, b).degree == a.degree + b.degree


class TestEvaluateAt:
    def test_first_order_lag_dc(self):
        g_o = RationalTransferFunction(Polynomial([10.0]), Polynomial([10.0, 1.0]))
        assert evaluate_at(g_o, 0.0) == 1.0 + 0.0j

    def test_zero_at_origin(self):
        g_e = RationalTransferFunction(Polynomial([0.0, 1.0]), Polynomial([10.0, 1.0]))
        assert evaluate_at(g_e, 0.0) == 0.0 + 0.0j

    def test_cross_check_independent_complex_arithmetic(self):
        # G(s) = s / ((s+2)^2 (s+10)) at s = j
        omega, omega_f = 2.0, 10.0
        den = poly_mul(binomial_poly(omega, 2), Polynomial([omega_f, 1.0]))
        tf = RationalTransferFunction(Polynomial([0.0, 1.0]), den)
        s = 1j
        expected = s / ((s + omega) ** 2 * (s + omega_f))
        got = evaluate_at(tf, s)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_conjugate_symmetry(self):
        rng = random.Random(7)
        num = Polynomial([rng.uniform(-2, 2) for _ in range(3)])
        den = Polynomial([rng.uniform(1, 3) for _ in range(4)])
        tf = RationalTransferFunction(num, den)
        for _ in range(25):
            s = complex(rng.uniform(-5, 5), rng.uniform(0.1, 5))
            assert evaluate_at(tf, s.conjugate()) == pytest.approx(
                evaluate_at(tf, s).conjugate(), rel=1e-12
            )

    def test_pole_hit(self):
        tf = RationalTransferFunction(Polynomial([1.0]), Polynomial([1.0, 1.0]))
        with pytest.raises(PoleHitError):
            evaluate_at(tf, -1.0)

    @pytest.mark.parametrize("num,den,s", [
        ([0.0, 1.0], [1e300, 1e300, 1.0], 1e9j),  # den(s) overflows
        ([1e300, 1e300], [1.0, 1.0, 1.0], 1e10j),  # num(s) overflows
        ([1e300], [1e-299, 1.0], 0.0),  # the ratio overflows
        ([1.0], [1.5e308, 1.5e308], 1j),  # |den(s)| overflows, though its parts do not
    ], ids=["den", "num", "ratio", "den_modulus"])
    def test_a_value_past_the_float_range_is_rejected(self, num, den, s):
        tf = RationalTransferFunction(Polynomial(num), Polynomial(den))
        with pytest.raises(ConfigError, match="a value beyond the float range"):
            evaluate_at(tf, s)


class TestDcGain:
    def test_zero_at_origin_exact(self):
        den = poly_mul(binomial_poly(2.0, 2), Polynomial([10.0, 1.0]))
        tf = RationalTransferFunction(Polynomial([0.0, 1.0]), den)
        assert dc_gain(tf) == 0.0

    def test_observer_lag_unity(self):
        tf = RationalTransferFunction(Polynomial([10.0]), Polynomial([10.0, 1.0]))
        assert dc_gain(tf) == 1.0

    def test_repeated_pole_filter_gain(self):
        tf = RationalTransferFunction(Polynomial([1.0]), binomial_poly(2.0, 3))
        assert dc_gain(tf) == pytest.approx(1.0 / 8.0, rel=1e-15)

    def test_infinity_marker(self):
        tf = RationalTransferFunction(Polynomial([1.0]), Polynomial([0.0, 1.0]))
        assert dc_gain(tf) == math.inf

    def test_indeterminate_marker(self):
        tf = RationalTransferFunction(Polynomial([0.0, 1.0]), Polynomial([0.0, 1.0]))
        assert math.isnan(dc_gain(tf))


class TestRationalTransferFunction:
    def test_rejects_zero_denominator(self):
        with pytest.raises(ConfigError):
            RationalTransferFunction(Polynomial([1.0]), Polynomial([0.0]))

    def test_rejects_improper(self):
        with pytest.raises(ConfigError):
            RationalTransferFunction(Polynomial([0.0, 0.0, 1.0]), Polynomial([1.0, 1.0]))


class TestFrequencyResponse:
    def test_phase_range_and_magnitude(self):
        tf = RationalTransferFunction(Polynomial([10.0]), Polynomial([10.0, 1.0]))
        rows = frequency_response(tf, [0.1, 1.0, 10.0, 100.0])
        for r in rows:
            assert r.magnitude >= 0.0
            assert -math.pi < r.phase <= math.pi
        assert rows[0].magnitude > rows[-1].magnitude

    def test_matches_direct_evaluation(self):
        tf = RationalTransferFunction(Polynomial([0.0, 1.0]), Polynomial([10.0, 1.0]))
        [row] = frequency_response(tf, [10.0])
        direct = (10j) / (10j + 10.0)
        assert row.magnitude == pytest.approx(abs(direct), rel=1e-14)
        assert row.phase == pytest.approx(cmath.phase(direct), rel=1e-14)

    def test_requires_ascending_grid(self):
        tf = RationalTransferFunction(Polynomial([1.0]), Polynomial([1.0, 1.0]))
        with pytest.raises(ConfigError):
            frequency_response(tf, [1.0, 0.5])

    def test_log_grid_shape(self):
        grid = log_grid(0.01, 100.0, points_per_decade=10)
        assert grid[0] == pytest.approx(0.01)
        assert grid[-1] == pytest.approx(100.0)
        assert all(b > a for a, b in zip(grid, grid[1:]))

    @pytest.mark.parametrize("points", [0, -5])
    def test_log_grid_needs_a_point_per_decade(self, points):
        with pytest.raises(ConfigError, match="points per decade"):
            log_grid(0.01, 100.0, points_per_decade=points)

    @pytest.mark.parametrize("w_lo,w_hi", [(0.0, 1.0), (-1.0, 1.0), (1.0, 1.0), (2.0, 1.0),
                                           (1.0, math.inf), (math.nan, 1.0)])
    def test_log_grid_needs_finite_increasing_positive_ends(self, w_lo, w_hi):
        with pytest.raises(ConfigError, match="needs finite ends"):
            log_grid(w_lo, w_hi)

    @pytest.mark.parametrize("w_lo,w_hi,points", [(1e-300, 1e300, 50), (0.01, 100.0, 1e308),
                                                  (0.01, 100.0, 10**400)],
                             ids=["ratio", "float_points", "int_points"])
    def test_log_grid_needs_a_finite_point_count(self, w_lo, w_hi, points):
        with pytest.raises(ConfigError, match="point count .* is not finite"):
            log_grid(w_lo, w_hi, points)

    def test_log_grid_holds_at_most_the_point_cap(self):
        # 1e3 to 1e4 at k points per decade is k + 1 points
        assert len(log_grid(1e3, 1e4, MAX_GRID_POINTS - 1)) == MAX_GRID_POINTS
        with pytest.raises(ConfigError, match=f"{MAX_GRID_POINTS + 1} points from 1000 to 10000"):
            log_grid(1e3, 1e4, MAX_GRID_POINTS)
