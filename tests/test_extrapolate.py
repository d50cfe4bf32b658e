"""The extrapolation steps: Richardson, Aitken and Levin u, each on inputs
whose limit is known in closed form."""

import math
from fractions import Fraction

import pytest

from cmtk._extrapolate import aitken, levin_u, richardson_derivative
from cmtk.scalars import EPS


class TestRichardson:
    # central differences of a cubic err by f''' h^2 / 6 exactly, which the
    # Richardson step removes; the spread is a h^2 / 4 for f = a t^3 + ...
    @staticmethod
    def cubic(t):
        if t < 0:
            raise AssertionError(f"called below 0 at {t}")
        return 2 * t**3 - 3 * t + 1

    @pytest.mark.parametrize("x, h", [(1.1, 0.1), (7.0, 1e-3)])
    def test_cubic_exact_to_rounding(self, x, h):
        # rounding of the values of f enters the quotients amplified by 1/h
        rounding = 8 * EPS * max(abs(self.cubic(x - h)), abs(self.cubic(x + h))) / h
        value, spread = richardson_derivative(self.cubic, x, h)
        assert abs(value - (6 * x**2 - 3)) <= rounding
        assert abs(spread - 2 * h**2 / 4) <= rounding

    def test_dyadic_step_is_exact(self):
        assert richardson_derivative(self.cubic, 1.5, 0.25) == (10.5, 0.03125)

    def test_step_cut_at_zero(self):
        # both steps cross 0 and are cut there: the one-sided quotients of a
        # cubic with no t^2 term still give f'(0) exactly
        assert richardson_derivative(self.cubic, 0.0, 0.25) == (-3.0, 0.03125)


class TestAitken:
    def test_geometric_limit(self):
        assert aitken(0.5, 0.75, 0.875) == 1.0

    def test_zero_second_difference_returns_last(self):
        assert aitken(1.0, 2.0, 3.0) == 3.0
        assert aitken(0.25, 0.25, 0.25) == 0.25


class TestLevinU:
    def test_geometric_series_exact(self):
        # S - s_m = a_m x / (1 - x) is (m + 1) a_m times c / (m + 1): the
        # transform's model, so any order >= 1 gives S exactly
        x, n, k = Fraction(1, 3), 4, 3
        tail = [x**m for m in range(n, n + k + 1)]
        last_sum = sum(x**m for m in range(n + k + 1))
        assert levin_u(tail, n, last_sum, 0) == 1 / (1 - x)

    @pytest.mark.parametrize("exact", [True, False])
    def test_vanishing_denominator_returns_none(self, exact):
        # a_m = 1 / (m + 1) makes every weight a polynomial of degree k - 1
        # in j, which the alternating binomial sum annihilates
        n, k = 5, 4
        tail = [Fraction(1, m + 1) for m in range(n, n + k + 1)]
        last_sum = sum(Fraction(1, m + 1) for m in range(n + k + 1))
        if not exact:
            tail, last_sum = [float(a) for a in tail], float(last_sum)
        assert levin_u(tail, n, last_sum, 0 if exact else EPS) is None
