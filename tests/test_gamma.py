"""Gamma function: value checks, the Spouge cross-check, pole handling."""

import math

import mpmath as mp
import numpy as np
import pytest

from fracspec.fraccalc import PoleError, gamma, rgamma

from conftest import spouge_gamma


def test_identity_values():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma(2.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)


def test_half_integer():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert gamma(1.5) == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-13)


def test_five_thirds_against_spouge_oracle():
    # frozen from the Spouge oracle at dps=60: 0.9027452929509336234418
    assert gamma(5.0 / 3.0) == pytest.approx(0.9027452929509336, rel=1e-12)
    assert gamma(5.0 / 3.0) == pytest.approx(spouge_gamma(5.0 / 3.0), rel=1e-12)


def test_spouge_cross_check_grid():
    rng = np.random.default_rng(7)
    xs = np.concatenate([np.linspace(0.05, 60.0, 231),
                         rng.uniform(0.05, 60.0, 120)])
    for x in xs:
        ref = spouge_gamma(float(x))
        assert gamma(float(x)) == pytest.approx(ref, rel=1e-12)


def test_reflection_negative_arguments():
    grid = [float(x) for x in np.linspace(-9.9, 0.45, 208)
            if abs(x - round(x)) > 1e-3]
    for x in [-0.5, -1.5, -2.3, -7.7, -0.01] + grid:
        assert gamma(x) == pytest.approx(spouge_gamma(x), rel=1e-11)


def test_poles_raise():
    for x in (0.0, -1.0, -2.0, -17.0):
        with pytest.raises(PoleError):
            gamma(x)


def test_rgamma_zero_at_poles():
    for x in (0.0, -1.0, -5.0):
        assert rgamma(x) == 0.0
    assert rgamma(3.0) == pytest.approx(0.5, rel=1e-13)


def test_rgamma_past_the_range_of_math_gamma():
    # math.gamma overflows past 171.62, where 1/Gamma is a subnormal (0 by
    # x = 200), and underflows to +-0 where 1/Gamma overflows to +-inf
    with mp.workdps(30):
        assert rgamma(171.7) == pytest.approx(float(mp.rgamma(171.7)),
                                              rel=1e-12)
    assert 0.0 < rgamma(171.7) < 2.0**-1022
    assert rgamma(200.0) == 0.0
    assert rgamma(-171.5) == math.inf
    assert rgamma(-180.5) == -math.inf
    for x in (-171.0, -180.0):
        assert rgamma(x) == 0.0
