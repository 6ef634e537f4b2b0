"""Mittag-Leffler evaluation: classical limits, the independent
partial-sum oracle, validity domains and precision-loss behaviour."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracspec import fraccalc
from fracspec.fraccalc import (
    HALF_PI,
    PrecisionLoss,
    _ml_sum,
    certified_floor,
    domain_of_validity,
    frac_cos,
    frac_exp,
    frac_sin,
    mittag_leffler,
)
from fracspec.spectra import NoZeros, ZeroScan, _scan_tol, find_zeros

from conftest import ml_partial_sum_oracle, ml_series_mp


@pytest.mark.parametrize("z", [-2.0, 0.0, 1.0])
def test_exp_limit(z):
    assert mittag_leffler(1.0, 1.0, z) == pytest.approx(math.exp(z), abs=1e-9)


@pytest.mark.parametrize("x", [0.0, 1.0, math.pi])
def test_cos_limit(x):
    assert mittag_leffler(2.0, 1.0, -x * x) == pytest.approx(math.cos(x),
                                                             abs=1e-9)


def test_four_thirds_against_oracle_frozen():
    # frozen from the extended-precision partial-sum oracle (terms < 1e-30):
    # E_{4/3,1}(-1) = 0.37199860915058055
    got = mittag_leffler(4.0 / 3.0, 1.0, -1.0)
    assert got == pytest.approx(0.37199860915058055, abs=1e-9)


@pytest.mark.parametrize("z", [-5.0, -50.0, -120.0])
def test_oracle_deep_cancellation(z):
    ref = ml_partial_sum_oracle(4.0 / 3.0, 1.0, z)
    assert mittag_leffler(4.0 / 3.0, 1.0, z) == pytest.approx(ref, abs=1e-9)


def test_second_parameter_against_oracle():
    ref = ml_partial_sum_oracle(4.0 / 3.0, 5.0 / 3.0, -20.0)
    assert mittag_leffler(4.0 / 3.0, 5.0 / 3.0, -20.0) == pytest.approx(
        ref, abs=1e-9)


def test_vector_matches_scalar():
    zs = np.array([-3.0, -1.0, 0.0, 0.5, 2.0])
    vec = mittag_leffler(1.5, 1.0, zs)
    for z, v in zip(zs, vec):
        assert v == pytest.approx(mittag_leffler(1.5, 1.0, float(z)),
                                  abs=1e-12)


def test_domain_of_validity_classical():
    assert domain_of_validity(1.0, 1.0, 1e-9) >= 30.0


def test_domain_of_validity_four_thirds():
    assert domain_of_validity(4.0 / 3.0, 1.0, 1e-9) >= 50.0


def test_domain_unbounded_for_infinite_tol():
    assert domain_of_validity(1.0, 1.0, math.inf) == math.inf


def test_precision_loss_raised_beyond_domain():
    bound = domain_of_validity(1.0, 1.0, 1e-9)
    with pytest.raises(PrecisionLoss):
        mittag_leffler(1.0, 1.0, -4.0 * bound, tol=1e-9)


def test_relaxed_tolerance_extends_reach():
    bound9 = domain_of_validity(1.0, 1.0, 1e-9)
    z = -1.2 * bound9
    with pytest.raises(PrecisionLoss):
        mittag_leffler(1.0, 1.0, z, tol=1e-9)
    got = mittag_leffler(1.0, 1.0, z, tol=1e-3)
    assert got == pytest.approx(math.exp(z), abs=1e-3)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        mittag_leffler(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        mittag_leffler(1.0, -1.0, 1.0)


# fractional exponential / trig wrappers -------------------------------------


@pytest.mark.parametrize("x", [-1.0, 0.0, 2.0])
def test_frac_exp_classical(x):
    assert frac_exp(1.0, x) == pytest.approx(math.exp(x), abs=1e-9)


def test_frac_exp_at_zero_any_alpha():
    for a in (0.5, 2.0 / 3.0, 0.9, 1.2):
        assert frac_exp(a, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_frac_exp_frozen_oracle_value():
    # frozen: E_{4/3,1}(1) + E_{4/3,5/3}(1) = 3.8676543630849118
    assert frac_exp(2.0 / 3.0, 1.0) == pytest.approx(3.8676543630849118,
                                                     abs=1e-9)


@pytest.mark.parametrize("x", [0.5, 2.0])
def test_frac_trig_classical(x):
    assert frac_cos(1.0, x) == pytest.approx(math.cos(x), abs=1e-9)
    assert frac_sin(1.0, x) == pytest.approx(math.sin(x), abs=1e-9)


def test_frac_sin_odd_frac_cos_even():
    rng = np.random.default_rng(3)
    for a in (0.6, 2.0 / 3.0, 0.9, 1.1):
        for x in rng.uniform(0.1, 3.0, 5):
            assert frac_sin(a, -x) == pytest.approx(-frac_sin(a, x), rel=1e-12)
            assert frac_cos(a, -x) == pytest.approx(frac_cos(a, x), rel=1e-12)


def test_classical_limit_collapse_on_range():
    xs = np.linspace(-10.0, 10.0, 81)
    assert np.max(np.abs(frac_cos(1.0, xs) - np.cos(xs))) < 1e-9
    assert np.max(np.abs(frac_sin(1.0, xs) - np.sin(xs))) < 1e-9
    # exp spans nine decades on the range; 1e-9 relative above 1, absolute
    # below (the deep-negative tail is an even/odd cancellation of O(e^|x|)
    # parts, bounded by the certified budget, not by machine-relative)
    err = np.abs(frac_exp(1.0, xs) - np.exp(xs))
    assert np.max(err / np.maximum(np.exp(xs), 1.0)) < 1e-9


def test_alpha_range_enforced():
    with pytest.raises(ValueError):
        frac_cos(1.6, 1.0)
    with pytest.raises(ValueError):
        frac_sin(0.0, 1.0)


# certified sum: bound property and edge inputs ------------------------------


def test_ml_sum_within_returned_bound(monkeypatch):
    # the certificate picks float64 Horner where its bound meets tol and
    # double-double elsewhere; both must stay within the returned bound
    taken = []
    for name in ("_horner", "dd_horner"):
        def spy(*args, _real=getattr(fraccalc, name), _name=name):
            taken.append(_name)
            return _real(*args)
        monkeypatch.setattr(fraccalc, name, spy)
    branches = set()

    @settings(deadline=None, max_examples=60)
    @given(alpha=st.floats(0.55, 1.5), odd=st.booleans(),
           x=st.floats(1e-3, 31.0), tol_exp=st.floats(-9.0, -3.0))
    @example(alpha=0.8, odd=False, x=0.5, tol_exp=-9.0)   # float64
    @example(alpha=0.8, odd=True, x=12.0, tol_exp=-9.0)   # double-double
    @example(alpha=1.5, odd=True, x=12.0, tol_exp=-9.0)   # near the switch
    # |E| ~ 1e7: rounding alone ~ 1e-9, so the first call raises
    @example(alpha=1.5, odd=False, x=21.0, tol_exp=-9.0)
    def check(alpha, odd, x, tol_exp):
        beta = 1.0 + alpha if odd else 1.0
        z = -((math.pi / 2.0) * x) ** (2.0 * alpha)
        tol = max(10.0 ** tol_exp, 4.0 * certified_floor(2.0 * alpha, beta, -z))
        taken.clear()
        try:
            got, err = _ml_sum(2.0 * alpha, beta, z, tol)
        except PrecisionLoss as exc:
            # only the rounding of a large |E| (alpha > 1) can fail here; the
            # error names the bound, and twice it certifies (as in find_zeros)
            assert tol < exc.bound < math.inf
            tol = 2.0 * exc.bound
            taken.clear()
            got, err = _ml_sum(2.0 * alpha, beta, z, tol)
        branches.add(taken[-1])  # the pass that gave the value
        assert err <= tol
        with mp.workdps(90):
            ref = ml_series_mp(2 * mp.mpf(alpha), mp.mpf(beta), mp.mpf(z))
            assert abs(mp.mpf(got) - ref) <= err

    check()
    assert branches == {"_horner", "dd_horner"}


@settings(deadline=None, max_examples=25)
@given(alpha=st.floats(0.55, 1.5), odd=st.booleans(),
       root=st.integers(0, 7),
       offsets=st.lists(st.floats(-11.0, -3.0), min_size=1, max_size=6),
       far=st.lists(st.floats(0.01, 31.0), max_size=4))
@example(alpha=1.0, odd=False, root=7, offsets=[-8.0, -8.0], far=[])
def test_sign_certified_scan_matches_mpmath(alpha, odd, root, offsets, far):
    # points 10^offset either side of a root have |E| between tol and the
    # float bound, where the float sign may be wrong and the scan must sum
    # again; every sign with |E| > tol must be mpmath's
    kind = "sin" if odd else "cos"
    try:
        scan = find_zeros(kind, alpha, root + 1, 16.0)
    except NoZeros:
        scan = ZeroScan((), False)
    near = [scan.roots[root] + (-1) ** i * 10.0**e
            for i, e in enumerate(offsets)] if scan.complete else []
    xs = np.array(sorted(x for x in near + far if x > 0.0) or [1.0])
    beta = 1.0 + alpha if odd else 1.0
    z = -(HALF_PI * xs) ** (2.0 * alpha)
    tol = _scan_tol(alpha, beta, float(xs[-1]), 1e-9)
    try:
        vs, _ = _ml_sum(2.0 * alpha, beta, z, tol, signs=True)
    except PrecisionLoss as exc:
        assert math.isfinite(exc.bound)
        tol = 2.0 * exc.bound
        vs, _ = _ml_sum(2.0 * alpha, beta, z, tol, signs=True)
    with mp.workdps(90):
        for zi, v in zip(z, vs):
            ref = ml_series_mp(2 * mp.mpf(alpha), mp.mpf(beta), mp.mpf(zi))
            if abs(ref) > tol:
                # the chunk, and a plain call as in root refinement
                one, _ = _ml_sum(2.0 * alpha, beta, float(zi), tol)
                assert np.sign(v) == np.sign(one) == mp.sign(ref), (zi, v, ref)


def test_rounding_to_double_is_certified():
    # e^30 = 1.07e13 is only good to half an ulp (~1e-3) as a double
    with pytest.raises(PrecisionLoss):
        mittag_leffler(1.0, 1.0, 30.0, tol=1e-9)
    with pytest.raises(PrecisionLoss):
        frac_exp(1.0, 25.0, 1e-9)
    with pytest.raises(PrecisionLoss):
        frac_exp(1.0, np.array([1.0, 25.0]), 1e-9)
    assert mittag_leffler(1.0, 1.0, 30.0, tol=1e-2) == pytest.approx(
        math.exp(30.0), abs=1e-2)


_SPECIAL = [
    lambda x: frac_cos(0.8, x),
    lambda x: frac_sin(0.8, x),
    lambda x: frac_exp(0.8, x),
    lambda x: mittag_leffler(1.6, 1.0, x),
]


@pytest.mark.parametrize("fn", _SPECIAL)
def test_empty_array_gives_empty_array(fn):
    out = fn(np.array([]))
    assert isinstance(out, np.ndarray) and out.shape == (0,)


@pytest.mark.parametrize("fn", _SPECIAL)
def test_scalar_gives_float_array_gives_ndarray(fn):
    xs = [-2.5, -0.3, 0.0, 0.7, 3.1]
    scalars = [fn(x) for x in xs]
    assert all(type(v) is float for v in scalars)
    assert type(fn(np.float64(0.7))) is float
    assert type(fn(2)) is float
    for arg in (xs, tuple(xs), np.array(xs)):
        out = fn(arg)
        assert isinstance(out, np.ndarray) and out.shape == (len(xs),)
        assert np.max(np.abs(out - scalars)) <= 1e-9


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fn", _SPECIAL)
def test_non_finite_argument_fails_the_certificate(fn, bad):
    with pytest.raises(PrecisionLoss):
        fn(bad)
    with pytest.raises(PrecisionLoss):
        fn(np.array([0.5, bad]))
