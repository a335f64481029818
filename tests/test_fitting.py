"""Log-log slope fits and flatness ratios."""

import math

import numpy as np
import pytest

from restrictionlab.fitting import FitResult, flatness_factor, loglog_fit


def test_exact_line_slope_one():
    r = loglog_fit([(1.0, 1.0), (2.0, 2.0), (4.0, 4.0)])
    assert r.slope == pytest.approx(1.0, abs=1e-12)
    assert r.max_log_residual == pytest.approx(0.0, abs=1e-12)
    assert r.point_count == 3


def test_exact_power_law_recovered():
    t = [1.0, 2.0, 4.0, 8.0, 16.0]
    r = loglog_fit([(x, x ** (-1.0 / 3.0)) for x in t])
    assert r.slope == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert r.max_log_residual < 1e-12


def test_bent_line_slope_between_and_residual_positive():
    r = loglog_fit([(1.0, 1.0), (2.0, 2.0), (4.0, 3.0)])
    assert 0.5 < r.slope < 1.0
    assert r.max_log_residual > 0.0


def test_intercept_matches_prefactor():
    t = [1.0, 2.0, 4.0, 8.0]
    r = loglog_fit([(x, 5.0 * x**2) for x in t])
    assert math.exp(r.intercept) == pytest.approx(5.0, rel=1e-12)
    assert r.slope == pytest.approx(2.0, abs=1e-12)


def test_fit_requires_three_points():
    with pytest.raises(ValueError, match="at least 3 points"):
        loglog_fit([(1.0, 1.0), (2.0, 2.0)])


def test_fit_rejects_nonpositive_coordinates():
    with pytest.raises(ValueError, match="strictly positive"):
        loglog_fit([(1.0, 1.0), (2.0, 0.0), (4.0, 4.0)])
    with pytest.raises(ValueError, match="strictly positive"):
        loglog_fit([(-1.0, 1.0), (2.0, 2.0), (4.0, 4.0)])


def test_fit_result_is_frozen():
    r = loglog_fit([(1.0, 1.0), (2.0, 2.0), (4.0, 4.0)])
    assert isinstance(r, FitResult)
    with pytest.raises(AttributeError):
        r.slope = 0.0


def test_flatness_factor_basic():
    assert flatness_factor([2.0, 3.0, 4.0]) == pytest.approx(2.0, abs=1e-15)
    # one value is flat by definition: a check on it would pass vacuously
    with pytest.raises(ValueError, match="at least 2 values, got 1"):
        flatness_factor([5.0])


def test_flatness_factor_rejects_nonpositive():
    with pytest.raises(ValueError):
        flatness_factor([1.0, 0.0])
    with pytest.raises(ValueError):
        flatness_factor([])
