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


def test_domain_below_one_is_bisected():
    # E_{0.1,1} certifies up to |z| ~ 0.945 (fails at 0.95), short of |z| = 1
    bound = domain_of_validity(0.1, 1.0, 1e-9)
    assert 0.93 <= bound < 0.95
    mittag_leffler(0.1, 1.0, -bound, tol=1e-9)  # certifies, no PrecisionLoss


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


# --- coefficient tables ----------------------------------------------------------


@pytest.mark.parametrize("key", [(1.6, 1.0), (1.6, 1.8)])
def test_one_sized_build_equals_a_grown_table(key):
    # extend(n) builds exactly up to index n, and no entry depends on how
    # the table grew
    one = fraccalc._RatioTable(*key)
    one.extend(90)
    grown = fraccalc._RatioTable(*key)
    for n in (0, 1, 2, 5, 17, 40, 41, 89, 90):
        grown.extend(n)
        assert len(grown.ratio) == len(grown.hi) == len(grown.lo) == n + 1
    for col in ("ratio", "hi", "lo"):
        assert getattr(one, col).tobytes() == getattr(grown, col).tobytes()


class _SizeProbe(fraccalc._RatioTable):
    """A table that records the index a build asks for, and builds nothing."""
    __slots__ = ("asked",)

    def extend(self, n):
        self.asked = n


@pytest.mark.parametrize("alpha", [1.2, 1.8, 2.8])
@pytest.mark.parametrize("shift", [0.0, 0.5])
def test_one_build_covers_the_terms_read(alpha, shift):
    # the lgamma estimate asks for at least the term count the float loop
    # reaches, and for at most two pads more
    tab = fraccalc._RatioTable(alpha, 1.0 + shift * alpha)
    tab.extend(700)
    for zabs in (0.0, 0.5, 3.0, 30.0, 300.0):
        for floor, rel in ((1e-12, 0.0), (1e-6, 0.0), (0.0, 1e-16)):
            n, mass, _ = fraccalc._positive_series(tab, zabs, floor, rel)
            assert math.isfinite(mass)
            probe = _SizeProbe(tab.alpha, tab.beta)
            assert fraccalc._grow(probe, zabs, floor, rel)
            assert n <= probe.asked <= n + 2 * fraccalc._PAD


def _record_terms(monkeypatch) -> dict:
    """Fresh tables, and the largest term count each one's sums read."""
    monkeypatch.setattr(fraccalc, "_TABLES", {})
    read = {}
    positive_series = fraccalc._positive_series

    def recording(tab, zabs, floor, rel=0.0):
        n, mass, last = positive_series(tab, zabs, floor, rel)
        read[tab.alpha, tab.beta] = max(read.get((tab.alpha, tab.beta), 0), n)
        return n, mass, last

    monkeypatch.setattr(fraccalc, "_positive_series", recording)
    return read


def test_zero_scan_builds_only_what_its_sums_read(monkeypatch):
    read = _record_terms(monkeypatch)
    find_zeros("cos", 0.8, 6, 16.0)
    tab = fraccalc._TABLES[1.6, 1.0]
    assert 0 <= len(tab.ratio) - 1 - read[1.6, 1.0] <= fraccalc._PAD


def test_term_cap_rejects_before_building(monkeypatch):
    # Gamma(0.1 (n+1) + 1)/Gamma(0.1 n + 1) reaches 2|z| only near n = 63,000
    _record_terms(monkeypatch)
    with pytest.raises(ValueError, match="representable amplitude range"):
        find_zeros("cos", 0.05, 1, 16.0)
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


def test_term_cap_keeps_a_slow_cosine():
    # cos(0.05, 0.5) = E_{0.1,1}(-0.5^0.1), |z| = 0.933
    with mp.workdps(30):
        ref = float(ml_series_mp(0.1, 1, -mp.mpf(0.5) ** mp.mpf(0.1)))
    assert frac_cos(0.05, 0.5) == pytest.approx(ref, abs=1e-9)
