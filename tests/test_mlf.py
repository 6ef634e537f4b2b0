"""Mittag-Leffler evaluation: classical limits, the independent
partial-sum oracle, validity domains and precision-loss behaviour."""

import json
import math
import os
import subprocess
import sys
from array import array
from collections import Counter
from fractions import Fraction
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from fracspec import fraccalc
from fracspec._dd import dd_horner
from fracspec.fraccalc import (
    _COEFF_REL,
    _ERR_UNIT,
    _ROUND_UNIT,
    HALF_PI,
    FracSeries,
    PrecisionLoss,
    caputo_derivative,
    _ml_sum,
    _table,
    _trig,
    frac_cos,
    frac_exp,
    frac_sin,
    mittag_leffler,
)
from fracspec.spectra import (
    SCAN_STEP,
    NoZeros,
    ZeroScan,
    _brackets,
    _refine,
    find_zeros,
    radial_ground,
)

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


def test_precision_loss_raised_beyond_domain():
    # E_{1,1}(-z) = e^-z certifies 1e-9 up to |z| of about 48.25
    mittag_leffler(1.0, 1.0, -48.0, tol=1e-9)
    with pytest.raises(PrecisionLoss):
        mittag_leffler(1.0, 1.0, -4.0 * 48.25, tol=1e-9)


def test_relaxed_tolerance_extends_reach():
    z = -1.2 * 48.25
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


@settings(deadline=None, max_examples=60)
@given(alpha=st.floats(0.5, 1.5), x=st.floats(-30.0, 12.0),
       tol=st.sampled_from([1e-6, 1e-9]))
@example(alpha=0.8, x=-30.0, tol=1e-9)
def test_frac_exp_within_tol_of_the_series(alpha, x, tol):
    # the certificate covers the sum at the rounded argument z; the
    # reference takes that z and the exact alpha n, not fl(alpha n)
    try:
        got = frac_exp(alpha, x, tol)
    except PrecisionLoss:
        reject()
    z = math.copysign(abs(x) ** alpha, x)
    with mp.workdps(60):
        want = ml_series_mp(mp.mpf(alpha), mp.mpf(1), mp.mpf(z))
    assert abs(got - want) <= tol


def test_frac_exp_deep_negative_axis():
    assert abs(frac_exp(1.0, -25.0) - math.exp(-25.0)) <= 1e-12


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
    # below (the deep-negative tail is an alternating sum whose terms reach
    # O(e^|x|), bounded by the certified budget, not by machine-relative)
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
    # |E| ~ 1e7: rounding alone ~ 1e-9, so the bound reached exceeds tol
    @example(alpha=1.5, odd=False, x=21.0, tol_exp=-9.0)
    def check(alpha, odd, x, tol_exp):
        beta = 1.0 + alpha if odd else 1.0
        z = -((math.pi / 2.0) * x) ** (2.0 * alpha)
        # the tolerance of root refinement in find_zeros: 10^tol_exp, or
        # twice the bound the sign-certified sum reached when that exceeds it
        tol = 10.0 ** tol_exp
        _, reached = _ml_sum(2.0 * alpha, beta, z, tol, signs=True)
        if reached > tol:
            tol = 2.0 * reached
        taken.clear()
        got, err = _ml_sum(2.0 * alpha, beta, z, tol)
        branches.add(taken[-1])  # the pass that gave the value
        assert err <= tol
        with mp.workdps(90):
            ref = ml_series_mp(2 * mp.mpf(alpha), mp.mpf(beta), mp.mpf(z))
            assert abs(mp.mpf(got) - ref) <= err

    check()
    assert branches == {"_horner", "dd_horner"}


def _plain_horner(coeffs, z):
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


_B = fraccalc._HORNER_BLOCK
_L = fraccalc._BLOCKED_POINTS


@pytest.mark.parametrize("size", [0, 1, _L + 1, _B - 1, _B, _B + 1,
                                  3 * _B + 5])
def test_blocked_horner_is_bitwise_the_plain_loop(size):
    # Python floats and arrays of fewer than two points or more than
    # _BLOCKED_POINTS keep the plain rule's roundings; arrays in between are
    # covered by the two properties below
    rng = np.random.default_rng(size)
    coeffs = rng.standard_normal(40).tolist()
    z = rng.uniform(-1.5, 1.5, size)
    for zs in (z, z.reshape(-1, 1)):
        got, want = fraccalc._horner(coeffs, zs), _plain_horner(coeffs, zs)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    got = fraccalc._horner(coeffs, 0.7)
    assert type(got) is float and got == _plain_horner(coeffs, 0.7)


@settings(deadline=None, max_examples=40)
@given(a=st.floats(0.5, 3.0), odd=st.booleans(), n=st.integers(2, 300),
       m=st.integers(0, _L), reach=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
@example(a=1.5, odd=False, n=4, m=2, reach=1.0, seed=0)  # 6 + 5J = 2N + 3
@example(a=0.5, odd=True, n=300, m=_L, reach=1.0, seed=1)
@example(a=2.0, odd=False, n=2, m=0, reach=0.5, seed=2)
def test_blocked_horner_within_the_float_bound_of_the_exact_sum(a, odd, n, m,
                                                                reach, seed):
    # the blocked sum passes each term through at most 6 + 5J <= 2N + 3
    # roundings, so on an ML table at z <= 0 it stays within (2N + 3) u
    # sum|c_n z^n| of the exact rational sum of its float coefficients.
    # Like the float pass of _ml_sum it reads normal coefficients only (a
    # subnormal one rounds absolutely); |z| <= 100^a keeps every term finite.
    # The largest |z| and 15 others are checked exactly; the invariance
    # property below shows a value does not depend on the rest of its array
    tab = fraccalc._RatioTable(a, 1.0 + a / 2 if odd else 1.0)
    tab.extend(n)
    while tab.hi[n] < fraccalc._MIN_NORMAL:
        n -= 1
    coeffs = tab.hi[:n + 1]
    rng = np.random.default_rng(seed)
    z = -rng.uniform(0.0, reach * 100.0**a, m)
    got = fraccalc._horner(coeffs, z)
    assert got.shape == z.shape
    picks = {int(np.argmax(-z)), *rng.integers(0, m, 15).tolist()} if m else ()
    exact_c = [Fraction(c) for c in coeffs]
    for i in picks:
        x = Fraction(float(z[i]))
        value = mass = Fraction(0)
        for c in reversed(exact_c):
            value, mass = value * x + c, mass * abs(x) + c
        bound = (2 * n + 3) * Fraction(_ROUND_UNIT) * mass
        assert abs(Fraction(float(got[i])) - value) <= bound


@settings(deadline=None, max_examples=40)
@given(n=st.integers(0, 200), rows=st.integers(1, 64), m=st.integers(1, 64),
       cut=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(n=40, rows=1, m=2, cut=0.5, seed=0)       # halves of one point
@example(n=40, rows=1, m=3, cut=0.5, seed=2)       # one point and two
@example(n=40, rows=64, m=64, cut=0.25, seed=1)    # the limit, 4,096 points
def test_blocked_horner_is_split_and_reshape_invariant(n, rows, m, cut, seed):
    # a value depends on its own point only: bitwise the same in the whole
    # array, in either half of it and in its raveled copy; a point alone,
    # as a 1-point array, sums as its Python float does
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(n + 1).tolist()
    z = rng.uniform(-3.0, 3.0, (rows, m))
    whole = fraccalc._horner(coeffs, z)
    flat = fraccalc._horner(coeffs, z.ravel())
    assert whole.shape == z.shape and whole.tobytes() == flat.tobytes()
    k = int(cut * z.size)
    for zs, want in ((z.ravel()[:k], flat[:k]), (z.ravel()[k:], flat[k:])):
        if zs.size == 1:
            want = np.array([fraccalc._horner(coeffs, float(zs[0]))])
        assert fraccalc._horner(coeffs, zs).tobytes() == want.tobytes()


def test_blocked_horner_leaves_an_overflowing_power_to_the_plain_loop():
    # z^4 overflows past 1.3e77: a zero coefficient times z^3 = inf would
    # read nan where the plain rule gives the constant
    z = np.array([1e103, 2.0, -1e80, math.nan])
    for coeffs in ([1.0, 0.0], [0.5, 1e-300, 0.0, 0.0, 0.0, 1e-320]):
        got, want = fraccalc._horner(coeffs, z), _plain_horner(coeffs, z)
        assert got.tobytes() == want.tobytes()


@settings(deadline=None, max_examples=30)
@given(zs=st.lists(st.floats(-400.0, 400.0), min_size=1, max_size=12))
def test_double_double_sum_of_one_point_equals_its_array_sum(zs):
    # a chunk re-sums a few weak points one at a time (as Python floats),
    # bitwise as the array pass would
    hi, lo = _table(1.6, 1.0).dd(80)
    whi, wlo = dd_horner(hi, lo, np.array(zs))
    for i, zi in enumerate(zs):
        for one in (zi, np.float64(zi)):
            h, l = dd_horner(hi, lo, one)
            assert (float(h).hex(), float(l).hex()) == (whi[i].hex(),
                                                        wlo[i].hex())


@pytest.mark.parametrize("few", [1, 5, 38])
def test_weak_points_resum_alike_singly_and_as_an_array(few):
    # cos at alpha 0.75 on scaled x in [20, 24] takes the float pass and
    # every point is weak: 60 go through one array pass, `few` plus the
    # largest |z| (the same sizing) one at a time; either way each value is
    # bitwise the double-double sum of its point
    z = -(HALF_PI * np.linspace(20.0, 24.0, 60)) ** 1.5
    tab = _table(1.5, 1.0)
    n, _, _ = fraccalc._positive_series(tab, float(np.max(np.abs(z))), 1e-12)
    assert tab.hi[n] >= fraccalc._MIN_NORMAL
    whi, wlo = dd_horner(*tab.dd(n), z)
    every, _ = _ml_sum(1.5, 1.0, z, 1e-9, signs=True)
    assert [v.hex() for v in every] == [v.hex() for v in whi + wlo]
    idx = list(range(few)) + [59]
    some, _ = _ml_sum(1.5, 1.0, z[idx], 1e-9, signs=True)
    assert [v.hex() for v in some] == [every[i].hex() for i in idx]


@pytest.mark.parametrize("near", [2, 30])
def test_certified_sums_take_arrays_of_any_shape(near):
    # `near` points within 1e-11 of each of the first three roots leave their
    # float sign open; a signs call sums them again, singly (below 40) or in
    # one pass, a value call keeps their float sums.  Either way a 2-D or 3-D
    # array gives bitwise the values of its raveled copy
    def points(kind):
        roots = np.array(find_zeros(kind, 0.9, 3, 8.0).roots) * HALF_PI
        return np.concatenate([roots + 1e-11 * (k / near - 0.5)
                               for k in range(near)]
                              + [np.linspace(0.3, 9.0, 30)])

    x_cos, x_sin = points("cos"), points("sin")
    m = x_cos.size
    for f, flat in ((lambda x: frac_cos(0.9, x), x_cos),
                    (lambda x: frac_sin(0.9, x), x_sin),
                    (lambda z: mittag_leffler(1.8, 1.0, z), -x_cos ** 1.8),
                    (lambda x: _trig(0.9, x, 1e-9, False, signs=True)[0], x_cos)):
        want = [v.hex() for v in f(flat)]
        for shape in ((m // 6, 6), (2, 3, m // 6)):
            got = f(flat.reshape(shape))
            assert got.shape == shape
            assert [v.hex() for v in got.ravel()] == want


def test_only_signs_and_lone_floats_resum_weak_values(monkeypatch):
    # at the first three cos roots of alpha 0.9 every float value lies within
    # the float bound, which meets tol: a value call keeps the float sums of
    # an array, bound and all; a signs call sums each again in double-double,
    # and so does a lone float, whose sign Brent's refinement reads
    z = -(np.array(find_zeros("cos", 0.9, 3, 8.0).roots) * HALF_PI) ** 1.8
    passes, dd = [], fraccalc.dd_horner

    def counted_dd(hi, lo, z):
        passes.append(np.ndim(z))
        return dd(hi, lo, z)

    monkeypatch.setattr(fraccalc, "dd_horner", counted_dd)
    val, bound = _ml_sum(1.8, 1.0, z, 1e-9)
    assert passes == [] and np.all(np.abs(val) <= bound) and bound <= 1e-9
    sig, sig_bound = _ml_sum(1.8, 1.0, z, 1e-9, signs=True)
    assert passes == [0, 0, 0] and sig_bound == bound
    assert np.all(np.abs(val - sig) <= bound)
    for x in z:
        passes.clear()
        _ml_sum(1.8, 1.0, float(x), 1e-9)
        assert passes == [0]


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
    # the chunk sized at 1e-9, its roots refined at the tolerance find_zeros
    # takes from the bound reached
    vs, reached = _ml_sum(2.0 * alpha, beta, z, 1e-9, signs=True)
    assert reached < math.inf
    tol = 1e-9 if reached <= 1e-9 else 2.0 * reached
    with mp.workdps(90):
        for zi, v in zip(z, vs):
            ref = ml_series_mp(2 * mp.mpf(alpha), mp.mpf(beta), mp.mpf(zi))
            if abs(ref) > tol:
                # the chunk, and a plain call as in root refinement
                one, _ = _ml_sum(2.0 * alpha, beta, float(zi), tol)
                assert np.sign(v) == np.sign(one) == mp.sign(ref), (zi, v, ref)


def _mass_to_relative(tab, zabs, rel):
    """sum_{n<=N} zabs^n / Gamma(alpha n + beta) in plain double, N the first
    n >= 3 with t_n <= t_{n-1}/2 and t_n <= rel * sum: how the earlier chunk
    rule sized its positive series."""
    t = prev = s = 0.0
    for n in range(10**4):
        if n + 1 >= len(tab.ratio):
            tab.extend(2 * n + 4)
        t = tab.hi[0] if n == 0 else t * zabs / tab.ratio[n - 1]
        s += t
        if n >= 3 and t <= 0.5 * prev and t <= rel * s:
            return s
        prev = t
    raise AssertionError("the positive series did not stop")


def _find_zeros_earlier_rule(kind, alpha, count, x_max, xtol=1e-10,
                             eval_tol=1e-9):
    """find_zeros under its earlier chunk rule, kept as a reference: each
    chunk at tol = max(eval_tol, 4 _ERR_UNIT sum|t_n|), the positive series
    sized at the chunk's end to 1e-16 relative, and summed again at twice
    the bound reached when that exceeds tol; roots refined at that tol."""
    odd = kind == "sin"
    f = frac_sin if odd else frac_cos
    tab = _table(2.0 * alpha, 1.0 + alpha if odd else 1.0)
    roots, x0, prev = [], SCAN_STEP, None
    while x0 <= x_max and len(roots) < count:
        xs = x0 + SCAN_STEP * np.arange(400)
        xs = xs[xs <= x_max + 0.5 * SCAN_STEP]
        z = (HALF_PI * xs[-1]) ** (2.0 * alpha)
        mass = _mass_to_relative(tab, z, 1e-16)
        tol = max(eval_tol, 4.0 * _ERR_UNIT * mass)
        vs, reached = _trig(alpha, HALF_PI * xs, tol, odd, signs=True)
        if not reached <= tol:
            tol = 2.0 * reached
            vs, _ = _trig(alpha, HALF_PI * xs, tol, odd, signs=True)
        if prev is not None:
            xs = np.concatenate(([prev[0]], xs))
            vs = np.concatenate(([prev[1]], vs))
        for i in _brackets(vs)[:count - len(roots)]:
            g = lambda x: float(f(alpha, HALF_PI * x, tol))
            roots.append(_refine(g, float(xs[i]), float(xs[i + 1]),
                                 float(vs[i]), float(vs[i + 1]), xtol))
        prev = float(xs[-1]), float(vs[-1])
        x0 = prev[0] + SCAN_STEP
    return tuple(roots)


@pytest.mark.parametrize("kind", ["cos", "sin"])
def test_find_zeros_matches_the_earlier_chunk_rule(kind):
    # sizing every chunk at eval_tol and refining within the bound it
    # reached leaves these scans bitwise as they were
    for alpha in [round(0.55 + 0.05 * k, 2) for k in range(20)]:
        want = _find_zeros_earlier_rule(kind, alpha, 12, 28.0)
        if not want:
            with pytest.raises(NoZeros):
                find_zeros(kind, alpha, 12, 28.0)
            continue
        scan = find_zeros(kind, alpha, 12, 28.0)
        assert scan.roots == want, alpha
        assert scan.complete == (len(want) == 12)


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


@pytest.mark.parametrize("alpha, beta", [(math.nan, 1.0), (1.0, math.nan),
                                         (math.inf, 1.0), (1.0, math.inf)])
def test_non_finite_parameter_is_named(alpha, beta):
    # nan passes an `<= 0` guard; the parameter is named before any sum
    name = "beta" if math.isfinite(alpha) else "alpha"
    with pytest.raises(ValueError, match=f"finite {name} > 0"):
        mittag_leffler(alpha, beta, 0.5)


# --- large-argument branch (1/2 < alpha <= 1) ------------------------------------


def _trig_mp(alpha: float, odd: bool, x: float):
    """frac_sin (odd) or frac_cos at x from the series in mpmath, 120 digits
    carried past the cancellation of its terms (the largest near e^|x|)."""
    with mp.workdps(120 + int(abs(x) / 2.3)):
        a, t = mp.mpf(alpha), abs(mp.mpf(x))
        if odd:
            return mp.sign(x) * t**a * ml_series_mp(2 * a, 1 + a, -t ** (2 * a))
        return ml_series_mp(2 * a, mp.mpf(1), -t ** (2 * a))


@settings(deadline=None, max_examples=40)
@given(alpha=st.floats(0.5, 1.0, exclude_min=True), odd=st.booleans(),
       tol=st.sampled_from([1e-6, 1e-9, 1e-11]), u=st.floats(0.0, 1.0),
       sign=st.sampled_from([-1.0, 1.0]))
@example(alpha=1.0, odd=False, tol=1e-11, u=1.0, sign=1.0)
@example(alpha=0.8, odd=True, tol=1e-6, u=0.0, sign=-1.0)  # series certifies
@example(alpha=0.51, odd=False, tol=1e-9, u=0.0, sign=1.0)  # m = 0.063
def test_large_argument_branch_within_its_bound(alpha, odd, tol, u, sign):
    # |x| in [t0, 200], against the series in mpmath; where the series
    # certifies too, the two agree within 2 tol
    t0 = fraccalc._far(alpha, odd, tol)[0]
    if t0 > 200.0:
        reject()
    x = sign * (t0 + u * (200.0 - t0))
    val, bound = _trig(alpha, x, tol, odd)
    assert abs(val - _trig_mp(alpha, odd, x)) <= bound <= tol
    try:
        ml, _ = _ml_sum(2.0 * alpha, 1.0 + alpha if odd else 1.0,
                        -abs(x) ** (2.0 * alpha), tol)
    except PrecisionLoss:
        return
    assert abs(val - (sign * abs(x) ** alpha * ml if odd else ml)) <= 2.0 * tol


def test_only_calls_wholly_past_t0_take_the_branch(monkeypatch):
    t0 = fraccalc._far(0.8, False, 1e-9)[0]
    calls = []
    real = fraccalc._ml_sum
    monkeypatch.setattr(fraccalc, "_ml_sum",
                        lambda *args: calls.append(args) or real(*args))
    frac_cos(0.8, 1.5 * t0)
    frac_cos(0.8, np.array([-2.0 * t0, t0]))
    assert not calls
    frac_cos(0.8, np.array([2.0 * t0, 0.99 * t0]))
    frac_cos(0.8, 0.99 * t0)
    assert len(calls) == 2


@pytest.mark.parametrize("tol", [1e10, 1e300])
def test_a_loose_tolerance_keeps_t0_away_from_zero(tol):
    # t0 of tol = 1 (about 1.42 at alpha 0.8): below it the series sums,
    # where t^-a of the branch would overflow
    assert fraccalc._far(0.8, False, tol)[0] == fraccalc._far(0.8, False, 1.0)[0]
    vals = frac_cos(0.8, np.array([1e-203, 1e-3]), tol)
    assert vals == pytest.approx([1.0, 1.0], abs=1e-3)


@pytest.mark.parametrize("alpha", [0.6, 0.75, 0.85, 0.95])
def test_a_loose_tolerance_sizes_the_series_as_tol_one(alpha):
    # a floor of tol * 1e-3 would cut the series at terms of 1e7 for tol
    # 1e10, far above values near 1 (up to 8.7e5 off); the floor caps at 1e-3
    x = np.linspace(0.0, 19.9, 100)
    ref = frac_cos(alpha, x, 1e-9)
    for tol in (1e3, 1e10):
        assert np.max(np.abs(frac_cos(alpha, x, tol) - ref)) <= 1e-3


@pytest.mark.parametrize("kind, first", [("cos", 1), ("sin", 2)])
def test_classical_roots_exact_out_to_200(kind, first):
    scan = find_zeros(kind, 1.0, 100, 200.0)
    assert scan.complete
    exact = first + 2.0 * np.arange(100)
    assert np.max(np.abs(np.array(scan.roots) - exact)) <= 1e-9


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, [25.0, math.inf],
                               [math.nan, 25.0], [25.0, math.nan]])
@pytest.mark.parametrize("fn", [frac_cos, frac_sin])
def test_large_argument_branch_refuses_non_finite(fn, x):
    with pytest.raises(PrecisionLoss):
        fn(0.8, x)


@pytest.mark.parametrize("fn, x", [(frac_cos, 2.5e5),
                                   (frac_sin, np.array([3e5, 4e5]))])
def test_large_argument_branch_refuses_past_its_rounding(fn, x):
    # at alpha = 1 the pair's rounding, about 40 |x| u, passes 1e-9 near
    # |x| = 2.25e5, so the branch's own bound refuses the call
    with pytest.raises(PrecisionLoss) as info:
        fn(1.0, x)
    message = str(info.value)
    assert f"{fn.__name__}(1)" in message
    assert float(message.rsplit("bound ", 1)[1]) > 1e-9


# --- coefficient tables ----------------------------------------------------------


@pytest.mark.parametrize("key", [(1.6, 1.0), (1.6, 1.8), (2.8, 1.0)])
def test_one_sized_build_equals_a_grown_table(monkeypatch, key):
    # extend(n) builds the float columns exactly up to index n, dd(n) the
    # double-double columns, and no entry depends on how the table grew
    # ((2.8, 1.0) leaves the range of math.gamma at index 60); each table
    # builds each fixed-point entry once, its lookahead for ratio[n] included
    built = []
    rgamma_fixed = fraccalc._rgamma_fixed

    def counting(a, b, ks):
        built.extend(ks)
        return rgamma_fixed(a, b, ks)

    monkeypatch.setattr(fraccalc, "_rgamma_fixed", counting)
    one = fraccalc._RatioTable(*key)
    one.extend(90)
    grown = fraccalc._RatioTable(*key)
    for n in (0, 1, 2, 5, 17, 40, 41, 89, 90):
        grown.extend(n)
        assert len(grown.ratio) == len(grown.hi) == n + 1
        if n in (5, 41):
            grown.dd(n - 3)
    for col in ("ratio", "hi"):
        assert getattr(one, col).tobytes() == getattr(grown, col).tobytes()
    one.dd(90)
    grown.dd(90)
    for col in ("dhi", "dlo"):
        assert getattr(one, col).tobytes() == getattr(grown, col).tobytes()
    assert Counter(built) == {k: 2 for k in range(max(built) + 1)}


def _mp_columns(alpha, beta, n):
    """(hi, lo, ratio) to index n from 50-digit mpmath at the exact
    arguments alpha k + beta."""
    with mp.workdps(50):
        gs = [mp.gamma(mp.mpf(alpha) * k + mp.mpf(beta)) for k in range(n + 2)]
        rs = [1 / g for g in gs[:-1]]
        hi = [float(r) for r in rs]
        return (hi, [float(r - h) for r, h in zip(rs, hi)],
                [float(g1 / g0) for g0, g1 in zip(gs, gs[1:])])


@pytest.mark.parametrize("key", [(1.6, 1.0), (0.7, 1.35), (2.8, 1.0)])
def test_double_double_columns_equal_a_fresh_50_digit_build(key):
    tab = fraccalc._RatioTable(*key)
    dhi, dlo = tab.dd(90)
    hi, lo, ratio = _mp_columns(*key, 90)
    assert dhi.tobytes() == array("d", hi).tobytes()
    assert dlo.tobytes() == array("d", lo).tobytes()
    # past the range of math.gamma the float columns come from the same build
    past = [k for k in range(91) if key[0] * (k + 1) + key[1] >= 171.0]
    assert all(tab.hi[k] == hi[k] and tab.ratio[k] == ratio[k] for k in past)
    assert len(past) == (31 if key[0] == 2.8 else 0)


def _exact(v) -> Fraction:
    """An mpf as an exact fraction."""
    man, exp = v.man_exp
    return Fraction(man) * Fraction(2) ** exp


class _Column(list):
    """A table column taken to hold `start` earlier entries: it keeps only
    those appended, so a build can start at any index without the others."""

    def __init__(self, start):
        super().__init__()
        self.start = start

    def __len__(self):
        return self.start + super().__len__()


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(1e-6, 3.0), beta=st.floats(1e-3, 60.0),
       x0=st.floats(0.0, 600.0), count=st.integers(1, 6))
@example(alpha=0.37, beta=0.2, x0=0.0, count=3)  # m = 0, then 1
@example(alpha=1e-6, beta=1e-3, x0=0.0, count=2)  # m = 0 throughout
@example(alpha=2.0, beta=1.0, x0=95.0, count=6)  # both sides of x = 100
@example(alpha=1.0, beta=0.5, x0=0.0, count=4)  # half-integers
@example(alpha=0.5, beta=0.5, x0=0.0, count=20)  # integers and halves to 10
@example(alpha=0.5, beta=0.5, x0=90.0, count=20)  # integers and halves 90-99.5
@example(alpha=0.25, beta=0.25, x0=97.0, count=20)  # quarters to halves across 100
@example(alpha=0.9, beta=0.5, x0=170.0, count=6)  # into the subnormals
@example(alpha=3.0, beta=60.0, x0=600.0, count=2)  # 1/Gamma below them
@example(alpha=2.0, beta=1.0, x0=0.0, count=6)  # e = 0: odd x, y = 0
@example(alpha=0.1, beta=0.03, x0=99.5, count=6)  # m = 100 from 99.53, then 101
@example(alpha=0.1, beta=0.03, x0=199.5, count=8)  # m = 200, then mpmath from 200.03
@example(alpha=2.0, beta=1.0, x0=195.0, count=6)  # both sides of x = 200, e = 0
@example(alpha=0.7, beta=1e-30, x0=5.0, count=6)  # beta = n/2^147: y past 2^-136
def test_fixed_point_entries_equal_the_50_digit_build(alpha, beta, x0, count):
    # each entry of a build from index k0 on, its float columns included,
    # equals the 50-digit build's (one gamma per entry, then float()); where
    # that value is subnormal, float() of an mpf rounds twice, so there the
    # entry equals the correctly rounded value of a 120-digit gamma
    k0 = int(max(x0 - beta, 0.0) / alpha)
    tab = fraccalc._RatioTable(alpha, beta)
    tab.dhi, tab.dlo, tab.hi, tab.ratio = (_Column(k0) for _ in range(4))
    tab._build_fixed(k0 + count - 1)
    for i in range(count):
        k = k0 + i
        with mp.workdps(50):
            g0, g1 = (mp.gamma(mp.mpf(alpha) * j + mp.mpf(beta)) for j in (k, k + 1))
            r = 1 / g0
            hi50 = float(r)
            want = {"dhi": hi50, "dlo": float(r - hi50), "hi": hi50,
                    "ratio": float(g1 / g0)}
        with mp.workdps(120):
            q = _exact(1 / mp.gamma(mp.mpf(alpha) * k + mp.mpf(beta)))
        hi = float(q)
        exact = {"dhi": hi, "dlo": float(q - Fraction(hi)), "hi": hi}
        for col, v in want.items():
            if abs(v) < 2.0**-1022:
                v = exact[col]
            got = getattr(tab, col)[i]
            assert got == v, (col, k, alpha * k + beta, got, v)


def test_a_zero_sweep_builds_every_table_as_in_50_digits(monkeypatch):
    # cos and sin at 27 alphas over [0.55, 1.2], 6 roots to x 16, and the
    # deep probes at alpha 1 (30 roots to x 65): every double-double entry,
    # and every float entry past the range of math.gamma, of every table
    # built equals a fresh 50-digit build
    monkeypatch.setattr(fraccalc, "_TABLES", {})
    for alpha in np.linspace(0.55, 1.2, 27).tolist():
        for kind in ("cos", "sin"):
            try:
                find_zeros(kind, alpha, 6, 16.0)
            except NoZeros:
                pass
    for kind in ("cos", "sin"):
        try:
            find_zeros(kind, 1.0, 30, 65.0)
        except (ValueError, PrecisionLoss):  # beyond the certifiable range
            pass
    built = [t for t in fraccalc._TABLES.values() if len(t.dhi)]
    assert sum(len(t.dhi) for t in built) > 1000
    for tab in built:
        n = len(tab.dhi) - 1
        hi, lo, ratio = _mp_columns(tab.alpha, tab.beta, n)
        assert tab.dhi.tobytes() == array("d", hi).tobytes()
        assert tab.dlo.tobytes() == array("d", lo).tobytes()
        past = [k for k in range(len(tab.ratio))
                if tab.alpha * (k + 1) + tab.beta >= 171.0]
        assert all(tab.hi[k] == hi[k] and tab.ratio[k] == ratio[k] for k in past)


@pytest.mark.parametrize("y", [Fraction(-1, 2), Fraction(-1, 4), Fraction(0),
                               Fraction(1, 4), Fraction(1, 2)])
def test_taylor_coefficients_reproduce_rgamma(monkeypatch, y):
    # the stored coefficients are mpmath's 43 at 2^-140, computed afresh on
    # an empty cache, which _centred(1) holds at 2^-148; the build's
    # 1/Gamma(1 + y) on |y| <= 1/2, by its own Horner rule over them, is
    # within len(coeffs) 2^-136 relative of mp.rgamma
    from mpmath.libmp import gammazeta

    monkeypatch.setattr(gammazeta, "gamma_taylor_cache", {})
    coeffs = fraccalc._centred(1)
    want, cwp = gammazeta.gamma_taylor_coefficients(fraccalc._WP)
    assert (coeffs, cwp) == (tuple(c << fraccalc._CWP - 140 for c in want), 140)
    yf, p = int(y * 2**fraccalc._WP), 0
    for c in coeffs:
        p = c + (yf * p >> fraccalc._WP)
    with mp.workdps(60):
        ref = mp.rgamma(1 + mp.mpf(y.numerator) / y.denominator)
        bound = len(coeffs) * mp.mpf(2) ** -fraccalc._WP * ref
        assert abs(mp.mpf(p) / mp.mpf(2) ** fraccalc._CWP - ref) <= bound
        # and the build's values at x = 1 + y, from 1/2 to 3/2, integers and
        # halves included: all by the Taylor path (r > 1, s = 0)
        (p, r, s), = fraccalc._rgamma_fixed(1.0, float(1 + y), [0])
        assert r > 1 and s == 0
        assert abs(mp.mpf(p) / r - ref) <= bound


def _centred_bound(m):
    """The documented relative bound of Horner's rule over _centred(m), in
    2^-148: 2^8 for the file's series (2^7.7 measured), and 2 sqrt(k) for
    each level k's floors, of its recurrence or of the Horner pass."""
    return 256 + 4 * sum(math.sqrt(k) for k in range(1, m + 1))


_DYADIC_Y = st.integers(0, 160).flatmap(  # (e, yn), y = yn / 2^e in [-1/2, 1/2]
    lambda e: st.tuples(st.just(e), st.integers(-(1 << e >> 1), 1 << e >> 1)))


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 200), ey=_DYADIC_Y)
@example(m=1, ey=(11, 1023))  # near y = 1/2, where the file's series is worst
@example(m=2, ey=(1, -1))  # y = -1/2 at m = 2, where 1/(1 + y) is 2
@example(m=191, ey=(1, 1))  # the worst level measured
@example(m=200, ey=(1, 1))
@example(m=200, ey=(1, -1))
@example(m=137, ey=(160, 3**100))  # y needs 159 bits
def test_centred_series_within_its_bound(m, ey):
    # Horner's rule over _centred(m), as the build runs it, is within the
    # documented bound of Gamma(m)/Gamma(m + y), at most 2^-135 (m = 200);
    # the series keep the file's 43 terms to m = 31 and grow to 50 by 200
    e, yn = ey
    coeffs, p = fraccalc._centred(m), 0
    for c in coeffs:
        p = c + (yn * p >> e)
    with mp.workdps(60):
        y = mp.mpf(yn) / mp.mpf(2) ** e
        ref = mp.gamma(m) / mp.gamma(m + y)
        err = abs(mp.mpf(p) / mp.mpf(2) ** fraccalc._CWP - ref)
        assert err <= _centred_bound(m) * mp.mpf(2) ** -148 * ref
    assert _centred_bound(200) < 2**13
    assert len(fraccalc._centred(m - 1)) <= len(coeffs) <= 50
    assert {k: len(fraccalc._centred(k)) for k in (1, 31, 32, 100, 200)} == {
        1: 43, 31: 43, 32: 44, 100: 48, 200: 50}
    with open(os.path.join(os.path.dirname(fraccalc.__file__), "data",
                           "rgamma_taylor.json")) as fh:
        assert fraccalc._centred(1) == tuple(c << 8 for c in json.load(fh))


@pytest.mark.parametrize("cached", [170, 400])
def test_entries_do_not_depend_on_mpmaths_coefficient_cache(monkeypatch, cached):
    # gamma_taylor_coefficients(136) computes 43 coefficients afresh, but
    # shifts 44 down, with other last bits, from a higher precision mpmath
    # has cached (mp.gamma at 30-50 digits leaves one); the build never reads
    # them (the function raises during both builds): the tables of a zero
    # sweep (cos and sin at 27 alphas, to x 90) are bitwise the same
    from mpmath.libmp import gammazeta

    coefficients = gammazeta.gamma_taylor_coefficients

    def refuse(prec):
        raise AssertionError(f"the build read mpmath's coefficients at {prec} bits")

    def build():
        fraccalc._centred.cache_clear()
        monkeypatch.setattr(gammazeta, "gamma_taylor_coefficients", refuse)
        tabs = []
        for alpha in np.linspace(0.55, 1.2, 27).tolist():
            for beta in (1.0, 1.0 + alpha):
                tabs.append(fraccalc._RatioTable(2.0 * alpha, beta))
                tabs[-1].dd(int(90.0 / (2.0 * alpha)))
        monkeypatch.setattr(gammazeta, "gamma_taylor_coefficients", coefficients)
        return [getattr(t, c).tobytes() for t in tabs
                for c in ("ratio", "hi", "dhi", "dlo")]

    monkeypatch.setattr(gammazeta, "gamma_taylor_cache", {})
    fresh = build()
    assert len(coefficients(fraccalc._WP)[0]) == 43
    monkeypatch.setattr(gammazeta, "gamma_taylor_cache", {})
    coefficients(cached)
    assert len(coefficients(fraccalc._WP)[0]) == 44
    shifted = build()
    assert fresh == shifted


def test_entries_far_below_the_float_range_build_small_integers():
    # 1/Gamma(x) is near 2^-2.9e10 at x = 1e9: the build keeps mpmath's
    # exponent apart from its mantissa (whole, the integers took about 3.6
    # GB each), so this returns at once, as the 50-digit build did
    assert mittag_leffler(0.5, 1e9, 1.0) == 0.0
    tab = fraccalc._RatioTable(1e10, 1.0)
    tab.dd(3)  # Gamma(1e10 k + 1) / Gamma(1) overflows from k = 1 on
    assert list(tab.dhi) == list(tab.hi) == [1.0, 0.0, 0.0, 0.0]
    assert list(tab.dlo) == [0.0] * 4 and list(tab.ratio) == [math.inf] * 4
    # and where Gamma's exponent is large but finite, as the 50-digit build
    for key in ((0.5, 1e8), (150.0, 1.0), (138.0, 30.0)):
        tab = fraccalc._RatioTable(*key)
        dhi, dlo = tab.dd(4)
        hi, lo, ratio = _mp_columns(*key, 4)
        assert (list(dhi), list(dlo)) == (hi, lo)
        past = [k for k in range(5) if key[0] * (k + 1) + key[1] >= 171.0]
        assert all(tab.hi[k] == hi[k] and tab.ratio[k] == ratio[k] for k in past)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(-2**200, 2**200), d=st.integers(1, 2**200),
       s=st.integers(-1400, 1400))
@example(n=1, d=1, s=1024)  # overflows
@example(n=2**53 - 1, d=1, s=971)  # rounds up to 2^1024
@example(n=-3, d=1, s=-1076)  # rounds to -0.0
@example(n=1, d=3, s=-1074)  # subnormal
@example(n=0, d=1, s=1400)  # zero, far above the range
def test_quot_rounds_as_float_of_a_fraction(n, d, s):
    # correctly rounded, as Fraction's int / int; past the float range
    # 0.0 with n's sign or inf, as float() of an mpf; and at once for any s
    try:
        want = float(Fraction(n, d) * Fraction(2) ** s)
    except OverflowError:
        want = math.copysign(math.inf, n)
    got = fraccalc._quot(n, d, s)
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
    assert fraccalc._quot(n or 1, d, s - 10**12) == math.copysign(0.0, n or 1)
    assert fraccalc._quot(abs(n) + 1, d, s + 10**12) == math.inf


_BETA = st.one_of(st.sampled_from(["1", "1+alpha"]), st.floats(0.1, 3.0))


def _beta(alpha, beta):
    return {"1": 1.0, "1+alpha": 1.0 + alpha}.get(beta, beta)


@settings(max_examples=80, deadline=None)
@given(alpha=st.floats(0.05, 3.0, exclude_min=True), beta=_BETA,
       at=st.floats(0.0, 1.0))
@example(alpha=0.36, beta=0.36 + 1.0, at=1.0)  # 1.4e-13 without correction
def test_float_columns_lie_within_the_coefficient_error(alpha, beta, at):
    # hi from math.gamma, corrected for the rounding of its argument, is
    # within _COEFF_REL of 1/Gamma at the exact argument alpha k + beta, and
    # ratio = hi[k]/hi[k+1] within twice that plus one rounding
    beta = _beta(alpha, beta)
    k = int(at * ((171.0 - beta) / alpha - 1.0))
    while k and alpha * (k + 1) + beta >= 171.0:
        k -= 1
    tab = fraccalc._RatioTable(alpha, beta)
    tab.extend(k)
    with mp.workdps(60):
        c0, c1 = (1 / mp.gamma(mp.mpf(alpha) * j + mp.mpf(beta))
                  for j in (k, k + 1))
        assert abs(tab.hi[k] - c0) <= _COEFF_REL * c0
        assert (abs(tab.ratio[k] - c0 / c1)
                <= (2 * _COEFF_REL + _ROUND_UNIT) * c0 / c1)


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(0.5, 3.0), beta=_BETA, x=st.floats(0.0, 12.0),
       sign=st.sampled_from([-1.0, -1.0, 1.0]),
       tol=st.sampled_from([1e-12, 1e-9, 1e-6]))
def test_float_pass_lies_within_its_bound(alpha, beta, x, sign, tol):
    # the float64 Horner pass over math.gamma coefficients (no double-double
    # column built) against 90-digit mpmath at the exact arguments
    beta = _beta(alpha, beta)
    z = sign * x ** alpha
    with mock.patch.object(fraccalc, "_TABLES", {}):
        try:
            val, bound = _ml_sum(alpha, beta, z, tol)
        except PrecisionLoss:
            reject()
        if len(fraccalc._TABLES[alpha, beta].dhi):
            reject()
    with mp.workdps(90):
        ref = ml_series_mp(mp.mpf(alpha), mp.mpf(beta), mp.mpf(z))
        assert abs(val - ref) <= bound <= tol


def test_float_only_readers_build_no_double_double_columns(monkeypatch):
    # series coefficients, the Caputo map and the radial recurrence read the
    # float columns only; radial_ground at alpha 1.4 reads 2.8 * 66 + 1 >=
    # 171, where every column, the double-double one included, is built in
    # fixed point.  Only entries at x >= 200 import mpmath: not the zeros,
    # the equivalent potential, the radii or radial_ground at alpha 1.4 (x
    # up to 186), but a (2.8, 1) table read to index 80 (x up to 225)
    monkeypatch.setattr(fraccalc, "_TABLES", {})
    caputo_derivative(FracSeries.cosine(0.8))
    radial_ground(3, 2.0 / 3.0)
    assert len(fraccalc._TABLES) == 2
    assert all(len(t.dhi) == 0 for t in fraccalc._TABLES.values())
    radial_ground(3, 1.4)
    assert len(fraccalc._TABLES[(2.8, 1.0)].dhi) == 66
    code = ("import sys\n"
            "import numpy as np\n"
            "from fracspec.charmfit import QuarkMasses, radius_box, radius_sphere\n"
            "from fracspec.fraccalc import FracSeries, caputo_derivative\n"
            "from fracspec.spectra import equivalent_potential, find_zeros, radial_ground\n"
            "caputo_derivative(FracSeries.cosine(0.8))\n"
            "radial_ground(3, 2.0 / 3.0)\n"
            "find_zeros('cos', 0.8, 6, 16.0)\n"
            "equivalent_potential(0.9, 3.0, 40, np.linspace(-0.95, 0.95, 161))\n"
            "radius_box(2452.2, QuarkMasses(), 2.0 / 3.0)\n"
            "radius_sphere(2452.2, QuarkMasses(), 2.0 / 3.0)\n"
            "radial_ground(3, 1.4)\n"
            "assert 'mpmath' not in sys.modules\n"
            "from fracspec.fraccalc import _RatioTable\n"
            "_RatioTable(2.8, 1.0).dd(80)\n"
            "assert 'mpmath' in sys.modules\n")
    src = os.path.dirname(os.path.dirname(fraccalc.__file__))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 1.5, exclude_min=True), st.booleans(),
       st.floats(-3.0, 3.5).map(lambda u: 10.0**u),
       st.sampled_from([1e-12, 1e-6]), st.lists(st.floats(0.0, 1.0), max_size=3))
@example(0.6, False, 0.0, 1e-12, [])
@example(0.05, False, 0.5**0.1, 1e-12, [0.5])
def test_growth_never_changes_a_series(alpha, sine, zabs, floor, earlier):
    # the certified loop alone sizes the series: (N, mass, last), floats
    # neither nan nor -0.0, so equal means bitwise equal, is the same on a
    # fresh table, on one built well past N, and on one grown by sums at
    # smaller |z|; a fresh table ends at most one step past N
    key = 2.0 * alpha, 1.0 + alpha if sine else 1.0
    fresh = fraccalc._RatioTable(*key)
    result = fraccalc._positive_series(fresh, zabs, floor)
    if not fresh.ratio:
        reject()  # refused before building (test_term_cap_*)
    n = result[0]
    assert n <= len(fresh.ratio) - 1 <= n + fraccalc._GROW
    warm = fraccalc._RatioTable(*key)
    warm.extend(n + 5 * fraccalc._GROW)
    grown = fraccalc._RatioTable(*key)
    for f in sorted(earlier):
        fraccalc._positive_series(grown, f * zabs, floor)
    for tab in (warm, grown):
        assert fraccalc._positive_series(tab, zabs, floor) == result


def _record_terms(monkeypatch) -> dict:
    """Fresh tables, and the largest term count each one's sums read."""
    monkeypatch.setattr(fraccalc, "_TABLES", {})
    read = {}
    positive_series = fraccalc._positive_series

    def recording(tab, zabs, floor):
        n, mass, last = positive_series(tab, zabs, floor)
        read[tab.alpha, tab.beta] = max(read.get((tab.alpha, tab.beta), 0), n)
        return n, mass, last

    monkeypatch.setattr(fraccalc, "_positive_series", recording)
    return read


def test_zero_scan_builds_only_what_its_sums_read(monkeypatch):
    read = _record_terms(monkeypatch)
    find_zeros("cos", 0.8, 6, 16.0)
    tab = fraccalc._TABLES[1.6, 1.0]
    assert 0 <= len(tab.ratio) - 1 - read[1.6, 1.0] <= fraccalc._GROW


def test_term_cap_rejects_before_building(monkeypatch):
    # Gamma(0.1 (n+1) + 1)/Gamma(0.1 n + 1) reaches 2|z| only near n = 63,000
    _record_terms(monkeypatch)
    with pytest.raises(PrecisionLoss, match="bound reached inf"):
        frac_cos(0.05, 4.0 * HALF_PI)
    assert len(fraccalc._TABLES[0.1, 1.0].ratio) <= 4
    # the ratio at the cap bounds every ratio read (Gamma is log-convex), so
    # above half of it no term halves its predecessor in exact arithmetic;
    # the cap rejects |z| unbuilt only while the terms stay normal doubles
    tab = fraccalc._RatioTable(0.1, 1.0)
    m = 0.1 * fraccalc._MAX_TERMS + 1.0
    half = 0.5 * math.exp(math.lgamma(m + 0.1) - math.lgamma(m))
    normal = math.exp((math.lgamma(m) - 700.0) / fraccalc._MAX_TERMS)
    assert half < 0.9 < normal
    assert fraccalc._positive_series(tab, 1.01 * normal, 1e-12)[1] == math.inf
    assert len(tab.ratio) == 0
    n, mass, _ = fraccalc._positive_series(tab, 0.95 * half, 1e-12)
    assert math.isfinite(mass) and n <= fraccalc._MAX_TERMS


@pytest.mark.parametrize("zabs", [0.9, 0.94])
def test_term_cap_keeps_series_that_stop_in_the_subnormals(zabs):
    # between half the cap ratio and the normal range the terms sink into
    # the subnormals, where rounding stops the loop with a tail near 1e-323
    n, mass, last = fraccalc._positive_series(fraccalc._RatioTable(0.1, 1.0),
                                              zabs, 1e-12)
    assert n <= fraccalc._MAX_TERMS and last < fraccalc._MIN_NORMAL
    with mp.workdps(30):
        ref = float(ml_series_mp(0.1, 1, mp.mpf(zabs)))
    assert mass == pytest.approx(ref, rel=1e-12)


def test_term_cap_leaves_a_warm_table_as_it_was():
    # E_{1,1}(-5000) needs far more than _MAX_TERMS terms: a table warmed at
    # |z| = 5 is read to its end, then refused without a build
    mittag_leffler(1.0, 1.0, -5.0)
    tab = fraccalc._TABLES[1.0, 1.0]
    sizes = len(tab.ratio), len(tab.hi), len(tab.dhi)
    with pytest.raises(PrecisionLoss, match="bound reached inf"):
        mittag_leffler(1.0, 1.0, -5000.0)
    assert (len(tab.ratio), len(tab.hi), len(tab.dhi)) == sizes


def test_term_cap_keeps_a_slow_cosine():
    # cos(0.05, 0.5) = E_{0.1,1}(-0.5^0.1), |z| = 0.933
    with mp.workdps(30):
        ref = float(ml_series_mp(0.1, 1, -mp.mpf(0.5) ** mp.mpf(0.1)))
    assert frac_cos(0.05, 0.5) == pytest.approx(ref, abs=1e-9)
