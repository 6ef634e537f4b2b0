"""Zero finding, well spectra, radial ground state, equivalent potential."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from fracspec import spectra
from fracspec.fraccalc import HALF_PI, AlphaContext, frac_cos, frac_sin
from fracspec.spectra import (
    SCAN_STEP,
    CutoffTooSmall,
    NoZeros,
    _brackets,
    _refine,
    equivalent_potential,
    find_zeros,
    free_energy,
    radial_ground,
    spherical_ground_energy,
    well_energy_nd,
    well_states_1d,
)

from conftest import ml_series_mp

CTX = AlphaContext(alpha=1.0, hbar_c=197.327, mc2=1400.0)


# --- zeros -------------------------------------------------------------------


def test_classical_roots_are_integers():
    cos_roots = find_zeros("cos", 1.0, 4, 12.0)
    sin_roots = find_zeros("sin", 1.0, 4, 12.0)
    assert np.allclose(cos_roots.roots, [1.0, 3.0, 5.0, 7.0], atol=1e-8)
    assert np.allclose(sin_roots.roots, [2.0, 4.0, 6.0, 8.0], atol=1e-8)


def test_first_cos_root_two_thirds():
    # published scaled location 1.1648
    r = find_zeros("cos", 2.0 / 3.0, 1, 6.0)[0]
    assert r == pytest.approx(1.1648, abs=1e-3)


def test_no_zeros_below_half():
    with pytest.raises(NoZeros):
        find_zeros("cos", 0.45, 1, 20.0)
    with pytest.raises(NoZeros):
        find_zeros("sin", 0.45, 1, 20.0)


def test_finite_zero_set_flagged():
    # for 1/2 < alpha < 1 only finitely many zeros exist
    scan = find_zeros("cos", 0.6, 10, 25.0)
    assert not scan.complete
    assert 1 <= len(scan) < 10


def test_zero_interlacing():
    for alpha in (0.9, 1.0, 1.1):
        cos_roots = find_zeros("cos", alpha, 4, 14.0).roots
        sin_roots = find_zeros("sin", alpha, 4, 14.0).roots
        merged = sorted([(r, "c") for r in cos_roots]
                        + [(r, "s") for r in sin_roots])
        kinds = [k for _, k in merged]
        assert all(a != b for a, b in zip(kinds, kinds[1:]))
        assert kinds[0] == "c"


def test_root_monotone_in_alpha():
    # for a fixed index the root location falls steeply as alpha grows
    # toward 1 (the plotted collapse); the exact curve has a shallow ~0.7%
    # minimum near alpha ~ 0.92 and rises gently beyond, so strict descent
    # is asserted on the sub-unit branch only
    alphas = (0.6, 0.7, 0.8, 0.9)
    firsts = [find_zeros("cos", a, 1, 8.0)[0] for a in alphas]
    assert all(x > y for x, y in zip(firsts, firsts[1:]))
    seconds = [find_zeros("cos", a, 2, 12.0)[1] for a in (0.8, 0.9, 1.0)]
    assert all(x > y for x, y in zip(seconds, seconds[1:]))
    sin_firsts = [find_zeros("sin", a, 1, 8.0)[0] for a in (0.8, 0.9, 1.0)]
    assert all(x > y for x, y in zip(sin_firsts, sin_firsts[1:]))


@pytest.mark.parametrize("kind", ["cos", "sin"])
@pytest.mark.parametrize("alpha", [1.3, 1.4, 1.5])
def test_roots_where_the_amplitude_is_large(kind, alpha):
    # for alpha > 1 the amplitude grows like exp(cos(pi/2a) x): near scaled
    # x = 24 it is ~1e8, and rounding such values to double exceeds the
    # 1e-9 scan tolerance without moving any sign change
    f = frac_cos if kind == "cos" else frac_sin
    scan = find_zeros(kind, alpha, 12, 30.0)
    assert scan.complete and len(scan) == 12
    assert all(a < b for a, b in zip(scan, scan[1:]))
    d = 1e-7
    for r in scan:
        assert f(alpha, HALF_PI * (r - d)) * f(alpha, HALF_PI * (r + d)) < 0.0
    states = well_states_1d(alpha, 20, 1.0, AlphaContext(alpha))
    assert len(states) == 20


def test_bad_arguments():
    with pytest.raises(ValueError):
        find_zeros("tan", 0.9, 1, 5.0)
    with pytest.raises(ValueError):
        find_zeros("cos", 0.9, 0, 5.0)
    # lengths and temperatures must be finite and positive, named in the error
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite x_max > 0"):
            find_zeros("cos", 0.9, 1, bad)
        with pytest.raises(ValueError, match="finite a > 0"):
            well_states_1d(0.9, 2, bad, CTX)
        with pytest.raises(ValueError, match="finite r0 > 0"):
            spherical_ground_energy(3, 0.9, bad, CTX)
        with pytest.raises(ValueError, match="finite T > 0"):
            equivalent_potential(0.9, bad, 4, [0.0])


# --- 1D well -----------------------------------------------------------------


def test_classical_well_energies_quadratic():
    states = well_states_1d(1.0, 5, 1.0, CTX)
    # e_n ~ (n+1)^2 for the standard well
    e = np.array([s.energy for s in states])
    ratio = e / e[0]
    assert np.allclose(ratio, [(n + 1) ** 2 for n in range(5)], rtol=1e-9)
    assert [s.parity for s in states] == ["even", "odd", "even", "odd", "even"]


def test_energies_strictly_increasing():
    for alpha in (0.8, 1.0, 1.1):
        states = well_states_1d(alpha, 6, 0.8, CTX)
        e = [s.energy for s in states]
        assert all(x < y for x, y in zip(e, e[1:]))


def test_boundary_condition():
    for alpha in (0.9, 1.0, 1.1):
        for st in well_states_1d(alpha, 4, 1.3, CTX):
            assert abs(st.psi(st.a)) < 1e-8
            assert abs(st.psi(-st.a)) < 1e-8


def test_localization_toward_origin_below_one():
    # alpha < 1 square-well states concentrate near x = 0 relative to alpha=1
    st09 = well_states_1d(0.9, 6, 1.0, CTX)[5]
    st10 = well_states_1d(1.0, 6, 1.0, CTX)[5]
    xs = np.linspace(0.0, 1.0, 400)
    p09 = np.abs(st09.psi(xs))
    p10 = np.abs(st10.psi(xs))
    outer = xs > 0.6
    assert p09[outer].max() < p10[outer].max()


# --- N-dimensional well --------------------------------------------------------


def test_nd_separability():
    e1 = well_states_1d(0.9, 1, 0.7, CTX)[0].energy
    e3 = well_energy_nd(0.9, [0, 0, 0], [0.7, 0.7, 0.7], CTX)
    assert e3 == pytest.approx(3.0 * e1, rel=1e-10)


def test_nd_classical_value():
    # hbar^2 pi^2 / (8 m a^2) per axis for the standard well ground state
    a = 1.0
    e = well_energy_nd(1.0, [0], [a], CTX)
    expected = (CTX.hbar_c * math.pi / 2.0) ** 2 / (2.0 * CTX.mc2 * a * a)
    assert e == pytest.approx(expected, rel=1e-9)


def _no_root_search(*args, **kwargs):
    raise AssertionError("root search ran before the arguments were checked")


@pytest.mark.parametrize("indices, half_widths, name", [
    ([-1, 1], [1.0, 1.0], "indices"),
    ([0, 1.0], [1.0, 1.0], "indices"),
    ([True], [1.0], "indices"),
    ([], [], "non-empty"),
    ([0, 1], [1.0], "equal length"),
    ([0, 1], [1.0, math.nan], r"half_widths\[1\]"),
    ([0], [0.0], r"half_widths\[0\]"),
    ([0], [math.inf], r"half_widths\[0\]"),
], ids=["negative-index", "float-index", "bool-index", "empty", "unequal",
        "nan-width", "zero-width", "inf-width"])
def test_nd_bad_arguments_fail_before_the_root_search(monkeypatch, indices,
                                                      half_widths, name):
    # a negative index would read the root list from its end
    monkeypatch.setattr(spectra, "find_zeros", _no_root_search)
    with pytest.raises(ValueError, match=name):
        well_energy_nd(0.9, indices, half_widths, CTX)


@pytest.mark.parametrize("n", [0, -1])
def test_state_count_below_one_fails_before_the_root_search(monkeypatch, n):
    monkeypatch.setattr(spectra, "find_zeros", _no_root_search)
    with pytest.raises(ValueError, match="count >= 1"):
        well_states_1d(0.9, n, 1.0, CTX)
    with pytest.raises(ValueError, match="n_states >= 1"):
        equivalent_potential(0.9, 3.0, n, [0.0])


def test_nd_charm_box_consistency():
    # the <00> composite: zero point from the solved box half-width restores
    # the composite mass
    from fracspec.charmfit import QuarkMasses, radius_box

    quarks = QuarkMasses()
    a, _ = radius_box(2452.2, quarks, 2.0 / 3.0)
    ctx = AlphaContext(alpha=2.0 / 3.0, hbar_c=197.327, mc2=quarks.m_c_c2)
    e0 = well_energy_nd(2.0 / 3.0, [0, 0, 0], [a, a, a], ctx)
    assert 2.0 * quarks.m_d_c2 + quarks.m_c_c2 + e0 == pytest.approx(
        2452.2, abs=0.01)


# --- free energy -----------------------------------------------------------------


def test_free_energy_zero_momentum():
    assert free_energy(0.9, 0.0, CTX) == 0.0


def test_free_energy_classical():
    k = 2.0
    expected = (CTX.hbar_c * k) ** 2 / (2.0 * CTX.mc2)
    assert free_energy(1.0, k, CTX) == pytest.approx(expected, rel=1e-12)


def test_free_energy_consistent_with_well():
    alpha, a = 2.0 / 3.0, 0.9
    st = well_states_1d(alpha, 1, a, CTX)[0]
    assert free_energy(alpha, st.k0 / a, CTX) == pytest.approx(st.energy,
                                                               rel=1e-10)


# --- radial ground state ----------------------------------------------------------


def test_radial_classical_is_sinc():
    rg = radial_ground(3, 1.0)
    assert rg.coeffs[1] == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert rg.coeffs[2] == pytest.approx(1.0 / 120.0, rel=1e-12)
    assert rg.first_zero == pytest.approx(math.pi, abs=1e-10)


def test_radial_two_thirds_first_zero():
    # computed location of the first zero of the printed recurrence;
    # the published scaled figure (3.1652) is not a zero of this series --
    # see the acceptance suite for the faithful published-value check
    rg = radial_ground(3, 2.0 / 3.0)
    assert rg.first_zero_scaled == pytest.approx(3.65230, abs=1e-4)
    assert abs(rg.g(rg.first_zero)) < 1e-9


def test_radial_coefficients_positive_alternating():
    rg = radial_ground(3, 0.8)
    assert rg.coeffs[0] == 1.0
    assert all(c > 0 for c in rg.coeffs[:20])
    # signs alternate in the series as written
    vals = rg.g(np.array([0.0]))
    assert vals[0] == pytest.approx(1.0)


def test_radial_no_zeros():
    with pytest.raises(NoZeros):
        radial_ground(3, 0.45)


def test_spherical_energy_classical():
    # e0 = (hbar pi / r0)^2 / (2 m)
    r0 = 1.2
    e = spherical_ground_energy(3, 1.0, r0, CTX)
    expected = (CTX.hbar_c * math.pi / r0) ** 2 / (2.0 * CTX.mc2)
    assert e == pytest.approx(expected, rel=1e-9)


def test_spherical_energy_monotone_in_r0():
    es = [spherical_ground_energy(3, 2.0 / 3.0, r0, CTX)
          for r0 in (0.8, 1.0, 1.3)]
    assert es[0] > es[1] > es[2]


# --- equivalent potential -----------------------------------------------------------


def test_equivalent_potential_constant_at_alpha_one():
    grid = np.linspace(-0.95, 0.95, 191)
    pairs = equivalent_potential(1.0, 100.0, 40, grid)
    x = np.array([p[0] for p in pairs])
    v = np.array([p[1] for p in pairs])
    inner = np.abs(x) <= 0.7
    rho = np.exp(-v[inner])
    assert rho.std() / rho.mean() < 1e-3


def test_equivalent_potential_linear_below_one():
    grid = np.linspace(-0.95, 0.95, 191)
    pairs = equivalent_potential(0.9, 12.0, 18, grid)
    x = np.array([p[0] for p in pairs])
    v = np.array([p[1] for p in pairs])
    inner = np.abs(x) <= 0.8
    xa, y = np.abs(x[inner]), v[inner]
    A = np.vstack([xa, np.ones_like(xa)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    r2 = 1.0 - (resid**2).sum() / ((y - y.mean()) ** 2).sum()
    assert r2 >= 0.9
    assert coef[0] > 0.0  # rising, confining shape


def test_equivalent_potential_symmetric():
    grid = np.linspace(-0.9, 0.9, 121)
    pairs = equivalent_potential(0.9, 12.0, 18, grid)
    v = np.array([p[1] for p in pairs])
    assert np.max(np.abs(v - v[::-1])) < 1e-10


def test_equivalent_potential_cutoff_guard():
    grid = np.linspace(-0.9, 0.9, 31)
    with pytest.raises(CutoffTooSmall):
        equivalent_potential(1.0, 100.0, 6, grid)


# --- root refinement ----------------------------------------------------------


def _bracket_case(kind, alpha):
    """(double f, mpmath f, xtol) on the scaled axis for one root kind."""
    if kind == "radial":
        coeffs = radial_ground(3, alpha).coeffs
        signed = np.array(coeffs) * (-1.0) ** np.arange(len(coeffs))

        def f(x):
            w = (HALF_PI * np.asarray(x, float)) ** (2.0 * alpha)
            return np.polynomial.polynomial.polyval(w, signed)

        def f_mp(x):
            w = (mp.pi / 2 * x) ** (2 * mp.mpf(alpha))
            return mp.fsum((-w) ** n * mp.mpf(c) for n, c in enumerate(coeffs))

        return f, f_mp, 1e-12
    trig = frac_cos if kind == "cos" else frac_sin
    beta = 1.0 if kind == "cos" else 1.0 + alpha

    def f_mp(x):
        return ml_series_mp(2 * mp.mpf(alpha), mp.mpf(beta),
                            -(mp.pi / 2 * x) ** (2 * mp.mpf(alpha)))

    return (lambda x: trig(alpha, HALF_PI * np.asarray(x, float))), f_mp, 1e-10


@pytest.mark.parametrize("kind,alpha", [
    (kind, alpha)
    for alpha in (0.6, 2.0 / 3.0, 0.9, 1.0, 1.3)
    for kind in ("cos", "sin", "radial")
    if kind != "sin" or alpha > 0.74  # frac_sin has no zero below ~0.736
])
def test_refine_brent_contract(kind, alpha):
    f, f_mp, xtol = _bracket_case(kind, alpha)
    xs = SCAN_STEP * np.arange(1, 600)
    vs = f(xs)
    i = int(np.nonzero(vs[:-1] * vs[1:] < 0.0)[0][0])
    a, b = float(xs[i]), float(xs[i + 1])
    seen = []

    def counted(x):
        assert a <= x <= b
        seen.append(x)
        return float(f(x))

    root = _refine(counted, a, b, float(vs[i]), float(vs[i + 1]), xtol)
    with mp.workdps(40):
        ref = mp.findroot(f_mp, (mp.mpf(a), mp.mpf(b)), solver="anderson")
    assert a <= root <= b
    assert abs(root - float(ref)) <= xtol
    assert len(seen) <= 8


@pytest.mark.parametrize("kind,alpha", [("cos", 0.805),
                                        ("sin", 0.8207599226733026)])
def test_roots_of_small_slope_within_xtol(kind, alpha):
    # the last roots of a finite zero set have slopes ~0.02, where float64
    # rounding certified to 1e-9 alone can move a sign change by > 2e-10;
    # values whose sign the float bound leaves open are summed again
    f = frac_cos if kind == "cos" else frac_sin
    beta = 1.0 if kind == "cos" else 1.0 + alpha
    for r in find_zeros(kind, alpha, 6, 16.0).roots:
        with mp.workdps(40):
            ref = mp.findroot(lambda x: ml_series_mp(
                2 * mp.mpf(alpha), mp.mpf(beta),
                -(mp.pi / 2 * x) ** (2 * mp.mpf(alpha))), mp.mpf(r))
        assert abs(r - float(ref)) <= 1e-10
        d = 2e-10
        assert f(alpha, HALF_PI * (r - d)) * f(alpha, HALF_PI * (r + d)) < 0.0


@pytest.mark.parametrize("vs,want", [
    ([1.0, -1.0, -2.0], [0]),
    ([1.0, 0.0, -1.0], [0]),
    ([1.0, -0.0, 1.0], [0]),
    ([-1.0, 0.0, 0.0, 2.0], [0]),
    ([1.0, -1.0, 0.0, 2.0], [0, 1]),
])
def test_root_on_a_scan_point_is_bracketed_once(vs, want):
    assert _brackets(np.array(vs)).tolist() == want


def test_scan_beyond_the_amplitude_range_raises_without_warning():
    # alpha > 1 has no large-argument branch: the series runs out of range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="representable"):
            find_zeros("cos", 1.2, 400, 500.0)


def test_scan_to_500_at_alpha_0_6_finds_the_one_root():
    # the large-argument branch certifies the whole scan: one cos root, and
    # no sign change from x = 13 to 500
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan = find_zeros("cos", 0.6, 6, 500.0)
        with pytest.raises(NoZeros):
            find_zeros("sin", 0.6, 6, 500.0)
    assert scan.roots == pytest.approx((1.39688,), abs=1e-5)
    assert not scan.complete


def test_find_zeros_keeps_a_root_on_a_scan_point(monkeypatch):
    # values of exactly 0.0 at the scan points 1, 3 and 5, which a
    # sign-product test alone drops
    monkeypatch.setattr(spectra, "_trig", lambda alpha, x, tol, odd, signs:
                        (np.round(np.cos(x), 12), 0.0))
    scan = find_zeros("cos", 1.0, 3, 6.0)
    assert scan.roots == pytest.approx((1.0, 3.0, 5.0), abs=1e-12)


@pytest.mark.parametrize("f,root", [
    (lambda x: -1.0 if x < 0.3141592653589793 else 1.0, 0.3141592653589793),
    (lambda x: (x - 0.3) ** 3, 0.3),
])
def test_refine_hostile_bracket_falls_back_to_bisection(f, root):
    a, b, xtol = -1.0, 2.0, 1e-10
    seen = []

    def counted(x):
        assert a <= x <= b
        seen.append(x)
        return f(x)

    got = _refine(counted, a, b, f(a), f(b), xtol)
    assert a <= got <= b
    assert abs(got - root) <= xtol
    assert len(seen) < 200
