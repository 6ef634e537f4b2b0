"""Caputo series calculus and the fractional integral / scalar product."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspec import angular, charmfit, fraccalc, spectra
from fracspec.fraccalc import (
    AlphaContext,
    DegenerateNorm,
    FracSeries,
    QUAD_TOL,
    QuadratureFailure,
    caputo_derivative,
    expectation,
    frac_cos,
    frac_integral,
    gamma,
    rl_nodes,
    scalar_product,
    sym_integral,
)

from conftest import spouge_gamma_mp

ALPHAS = (0.5, 2.0 / 3.0, 0.9, 1.0, 1.1)


# --- Caputo derivative on series ---------------------------------------------


def test_derivative_of_constant_vanishes():
    const = FracSeries(alpha=0.7, coeffs=(3.5,))
    d = caputo_derivative(const)
    assert all(c == 0.0 for c in d.coeffs)
    assert d.eval(1.3) == 0.0


@pytest.mark.parametrize("alpha", ALPHAS)
def test_monomial_rule_exact(alpha):
    # coefficient map must equal Gamma(1+na)/Gamma(1+(n-1)a) to 1e-12,
    # compared against an independent high-precision ratio
    with mp.workdps(50):
        am = mp.mpf(alpha)
        for n in range(1, 41):
            mono = FracSeries.monomial(alpha, n)
            d = caputo_derivative(mono)
            ref = float(spouge_gamma_mp(1 + n * am)
                        / spouge_gamma_mp(1 + (n - 1) * am))
            assert d.coeffs[n - 1] == pytest.approx(ref, rel=1e-12)
            assert all(c == 0.0 for i, c in enumerate(d.coeffs) if i != n - 1)


def test_derivative_of_sine_is_cosine_coefficientwise():
    for alpha in ALPHAS:
        for k in (1.0, 2.5, -1.5):
            s = FracSeries.sine(alpha, k=k)
            d = caputo_derivative(s)
            c = FracSeries.cosine(alpha, k=k)
            scale = math.copysign(abs(k) ** alpha, k)
            for b, a in zip(d.coeffs, c.coeffs):
                if a == 0.0:
                    assert b == 0.0
                else:
                    assert b == pytest.approx(scale * a, rel=1e-12)


def test_derivative_of_cosine_is_minus_sine_coefficientwise():
    alpha, k = 0.8, 1.7
    d = caputo_derivative(FracSeries.cosine(alpha, k=k))
    s = FracSeries.sine(alpha, k=k)
    scale = abs(k) ** alpha
    for b, a in zip(d.coeffs, s.coeffs):
        if a == 0.0:
            assert b == 0.0
        else:
            assert b == pytest.approx(-scale * a, rel=1e-12)


def test_second_derivative_identity():
    # D D cos(a, kx) = -|k|^(2a) cos(a, kx), coefficient-wise
    for alpha in (2.0 / 3.0, 0.9, 1.1):
        k = 1.3
        c = FracSeries.cosine(alpha, k=k)
        dd = caputo_derivative(caputo_derivative(c))
        scale = abs(k) ** (2.0 * alpha)
        for b, a in zip(dd.coeffs, c.coeffs):
            if a == 0.0:
                assert b == 0.0
            else:
                assert b == pytest.approx(-scale * a, rel=1e-12)


def test_parity_flips():
    alpha = 0.75
    assert caputo_derivative(FracSeries.cosine(alpha)).parity == "odd"
    assert caputo_derivative(FracSeries.sine(alpha)).parity == "even"
    assert caputo_derivative(FracSeries.exponential(alpha)).parity == "none"


def test_parity_is_read_from_the_coefficients():
    assert FracSeries(alpha=0.7, coeffs=(3.5, 0.0, -1.0)).parity == "even"
    assert FracSeries(alpha=0.7, coeffs=(0.0, 2.0, 0.0, 1.0)).parity == "odd"
    assert FracSeries(alpha=0.7, coeffs=(1.0, 2.0)).parity == "none"
    for n in range(4):
        assert FracSeries.monomial(0.7, n).parity == ("odd" if n % 2 else "even")


def test_series_eval_matches_ml_functions():
    alpha, k = 0.9, 1.2
    c = FracSeries.cosine(alpha, k=k)
    for x in (-2.0, -0.3, 0.0, 0.7, 2.5):
        assert c.eval(x) == pytest.approx(frac_cos(alpha, k * x), abs=1e-10)


def _fsum_eval(series, x):
    """The series at scalar x summed term by term with math.fsum, and the
    sum of the |terms|."""
    u = series.k * x
    s = math.copysign(1.0, u) if u != 0.0 else 0.0
    terms = [(a if n == 0 else 0.0) if u == 0.0
             else a * s**n * abs(u) ** (n * series.alpha)
             for n, a in enumerate(series.coeffs) if a != 0.0]
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_series_eval_matches_fsum_reference(alpha):
    xs = [-3.0, -0.7, 0.0, 0.4, 1.0, 2.5]
    for make in (FracSeries.cosine, FracSeries.sine, FracSeries.exponential):
        series = make(alpha, k=1.3)
        values = series.eval(np.array(xs))
        assert isinstance(values, np.ndarray) and values.shape == (len(xs),)
        for x, v in zip(xs, values):
            ref, mass = _fsum_eval(series, x)
            scalar = series.eval(x)
            assert type(scalar) is float
            assert abs(scalar - ref) <= 1e-13 * mass, (make, x)
            assert abs(v - ref) <= 1e-13 * mass, (make, x)


def test_series_validation():
    with pytest.raises(ValueError):
        FracSeries(alpha=2.0, coeffs=(1.0,))


@pytest.mark.parametrize("make, name", [
    (lambda: FracSeries.monomial(0.7, -1), "n"),
    (lambda: FracSeries.monomial(0.7, 0.5), "n"),
], ids=["negative-n", "fractional-n"])
def test_series_counts_are_checked(make, name):
    # an IndexError and a TypeError before they were
    with pytest.raises(ValueError, match=f"integer {name} >= "):
        make()


# --- fractional integral ------------------------------------------------------


def test_integral_of_constant():
    for alpha in (0.5, 2.0 / 3.0, 1.0, 1.3):
        for a in (0.5, 1.0, 2.0):
            got = frac_integral(lambda u: np.ones_like(u), alpha, a)
            assert got == pytest.approx(a**alpha / gamma(1.0 + alpha),
                                        rel=1e-10)


def test_integral_monomial_closed_form():
    # RL integral of u^(2/3) at alpha=2/3, endpoint 1:
    # Gamma(1+a)/Gamma(1+2a) = 0.75820213223413392 (frozen from the
    # Spouge-oracle beta identity)
    got = frac_integral(lambda u: u ** (2.0 / 3.0), 2.0 / 3.0, 1.0)
    assert got == pytest.approx(0.75820213223413392, rel=1e-8)


@settings(deadline=None, max_examples=100)
@given(alpha=st.floats(0.55, 1.5), a=st.floats(0.3, 2.0),
       beta=st.floats(0.0, 3.0))
def test_integral_of_power_matches_closed_form(alpha, a, beta):
    # I^alpha[u^beta](a) = Gamma(beta+1)/Gamma(beta+alpha+1) a^(beta+alpha):
    # power singularities at u = 0 and, for alpha != 1, in u(s) at u = a
    with mp.workdps(30):
        b, al = mp.mpf(beta), mp.mpf(alpha)
        want = float(mp.gamma(b + 1) / mp.gamma(b + al + 1)
                     * mp.mpf(a) ** (b + al))
    tol = fraccalc.QUAD_TOL
    assert frac_integral(lambda u: u**beta, alpha, a) \
        == pytest.approx(want, rel=tol)
    assert sym_integral(lambda u: np.abs(u) ** beta, alpha, a) \
        == pytest.approx(2.0 * want, rel=tol)


def test_integral_linearity_and_positivity():
    alpha, a = 0.7, 1.5
    f = lambda u: np.cos(u) ** 2
    g = lambda u: u
    i_f = frac_integral(f, alpha, a)
    i_g = frac_integral(g, alpha, a)
    i_comb = frac_integral(lambda u: 2.0 * f(u) - 3.0 * g(u), alpha, a)
    assert i_comb == pytest.approx(2.0 * i_f - 3.0 * i_g, rel=1e-8)
    assert i_f > 0.0
    assert frac_integral(lambda u: np.abs(np.sin(7 * u)), alpha, a) > 0.0


def test_integral_classical_limit():
    got = frac_integral(np.sin, 1.0, math.pi)
    assert got == pytest.approx(2.0, rel=1e-9)


def test_rl_nodes_match_adaptive():
    alpha, a = 2.0 / 3.0, 0.9
    u, w = rl_nodes(alpha, a, 64)
    f = lambda x: np.exp(-x) * (1.0 + x**2)
    assert float(np.dot(w, f(u))) == pytest.approx(
        frac_integral(f, alpha, a), rel=1e-9)


def _quadratures(f):
    """Every quadrature entry point as a function of a, integrand f."""
    return {
        "frac_integral": lambda a: frac_integral(f, 0.7, a),
        "sym_integral": lambda a: sym_integral(f, 0.7, a),
        "scalar_product": lambda a: scalar_product(f, f, 0.7, a),
        "expectation": lambda a: expectation(f, f, f, 0.7, a),
    }


def test_integral_invalid_endpoint():
    # rejected, by name, before any integrand call (nan used to evaluate
    # 4,095 panels, inf to warn)
    f, seen = _counted(np.cos)
    for a in (-1.0, 0.0, math.nan, math.inf, -math.inf):
        for run in _quadratures(f).values():
            with pytest.raises(ValueError, match="finite a > 0"):
                run(a)
        with pytest.raises(ValueError, match="finite a > 0"):
            rl_nodes(0.7, a, 4)
    assert seen[0] == 0


@pytest.mark.parametrize("integral", [frac_integral, sym_integral])
def test_integrand_shape_is_named(integral):
    for f, shape in ((lambda u: 1.0, r"\(\)"),
                     (lambda u: np.ones(3), r"\(3,\)"),
                     (lambda u: u[:-1], r"\(\d+,\)"),
                     (lambda u: np.ones((1, 2, len(u))), r"\(1, 2, \d+\)")):
        with pytest.raises(ValueError, match=rf"shape {shape}, expected "
                                             r"\((\d+),\) or \(k, \1\)"):
            integral(f, 0.7, 1.0)


def test_integral_stall_raises(monkeypatch):
    # oscillation far beyond any sane panel budget, alone or in a stack
    monkeypatch.setattr(fraccalc, "MAX_PANELS", 512)
    for f in (lambda u: np.cos(5e7 * u),
              lambda u: np.stack([np.cos(u), np.cos(5e7 * u)])):
        with pytest.raises(QuadratureFailure):
            frac_integral(f, 0.7, 1.0)


@pytest.mark.parametrize("integral", [frac_integral, sym_integral])
def test_non_finite_integrand_is_rejected_at_once(integral):
    # on the first level, by count and before any numpy warning
    nan_at_max = lambda u: np.where(u == u.max(), np.nan, 1.0)
    for f, count in ((lambda u: np.where(u < 0.3, np.inf, 1.0), r"[1-9]\d*"),
                     (nan_at_max, "1"),
                     (lambda u: np.stack([np.ones_like(u), nan_at_max(u)]),
                      "1")):
        g, seen = _counted(f)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^integrand returned "
                                                 rf"{count} non-finite values"):
                integral(g, 0.7, 1.0)
        assert seen[0] == 1


# --- level-wise refinement against the depth-first loop -----------------------


ROOT, FIRST_LEVEL = ((0.0, 1.0),), ((0.0, 0.5), (0.5, 1.0))


def _depth_first(f, alpha, a, panels, tol=1e-8, max_depth=28,
                 max_panels=4096):
    """The depth-first adaptive loop that level-wise refinement replaced:
    two integrand calls per panel (32 and 16 Gauss-Legendre points), the
    same accept test and limits, in the same variable t of the graded map
    s = a^alpha t^2 (3 - 2t), started at `panels`, the 2^d panels of one
    level d of the bisection tree of [0, 1] (ROOT or FIRST_LEVEL).
    Returns (value, levels evaluated)."""
    smax = a**alpha
    jac = 6.0 * smax / gamma(alpha + 1.0)

    def g(t):
        s = smax * t * t * (3.0 - 2.0 * t)
        u = np.clip(a - s ** (1.0 / alpha), 0.0, a)
        return np.asarray(f(u), float) * (jac * t * (1.0 - t))

    xs, ws = np.polynomial.legendre.leggauss(32)
    xs2, ws2 = np.polynomial.legendre.leggauss(16)

    def panel(lo, hi):
        h, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
        v32 = h * float(np.dot(ws, g(mid + h * xs)))
        v16 = h * float(np.dot(ws2, g(mid + h * xs2)))
        return v32, abs(v32 - v16)

    first = len(panels).bit_length() - 1
    stack = [(lo, hi, *panel(lo, hi), first) for lo, hi in panels]
    scale = max(sum(abs(p[2]) for p in stack), 1e-300)
    acc, n_panels, deepest = 0.0, len(panels), first
    while stack:
        lo, hi, val, e, depth = stack.pop()
        deepest = max(deepest, depth)
        if e <= tol * max(scale, abs(val)) * 0.5 or e <= 1e-16 * scale:
            acc += val
            continue
        if depth >= max_depth or n_panels >= max_panels:
            raise QuadratureFailure("stalled")
        mid = 0.5 * (lo + hi)
        vl, el = panel(lo, mid)
        vr, er = panel(mid, hi)
        n_panels += 2
        stack.append((lo, mid, vl, el, depth + 1))
        stack.append((mid, hi, vr, er, depth + 1))
        scale = max(scale, abs(acc) + abs(val))
    return acc, deepest + 1 - first


def _counted(f):
    """f wrapped to count its calls and points: (wrapped, [calls, points])."""
    seen = [0, 0]

    def wrapped(u):
        seen[0] += 1
        seen[1] += np.size(u)
        return f(u)

    return wrapped, seen


def _well_state_sq(alpha, index):
    from fracspec.spectra import well_states_1d

    st = well_states_1d(alpha, index + 1, 1.0, AlphaContext(alpha))[index]
    return lambda u: st.psi(u) ** 2


def _cos_sin(u):
    from fracspec.fraccalc import frac_sin

    return frac_cos(0.8, 1.1 * u) * frac_sin(0.8, 0.7 * u)


# (name, integrand factory, alpha, endpoint, over [-a, a] via sym_integral)
QUAD_CASES = [
    ("smooth", lambda: lambda u: np.exp(-u) * (1.0 + u**2), 2.0 / 3.0, 0.9,
     False),
    ("abs_sin", lambda: lambda u: np.abs(np.sin(7 * u)), 0.7, 1.5, False),
    ("cos5_alpha1", lambda: lambda u: np.cos(5 * u), 1.0, 1.0, False),
    ("cos0_sq_085", lambda: _well_state_sq(0.85, 0), 0.85, 1.0, True),
    ("sin1_sq_09", lambda: _well_state_sq(0.9, 1), 0.9, 1.0, True),
    ("cos4_sq_095", lambda: _well_state_sq(0.95, 4), 0.95, 1.0, True),
    ("sin5_sq_095", lambda: _well_state_sq(0.95, 5), 0.95, 1.0, True),
    ("cos_sin_odd", lambda: _cos_sin, 0.8, 1.0, True),
    ("cos_sin_one_sided", lambda: _cos_sin, 0.8, 1.0, False),
]


@pytest.mark.parametrize("name,make,alpha,a,sym", QUAD_CASES,
                         ids=[c[0] for c in QUAD_CASES])
def test_level_wise_matches_depth_first(name, make, alpha, a, sym):
    f = make()
    ref_f, ref_seen = _counted(f)
    ref_g = (lambda u: ref_f(u) + ref_f(-u)) if sym else ref_f
    want, levels = _depth_first(ref_g, alpha, a, FIRST_LEVEL)
    root_g = (lambda u: f(u) + f(-u)) if sym else f
    want_root, levels_root = _depth_first(root_g, alpha, a, ROOT)
    got_f, seen = _counted(f)
    got = (sym_integral if sym else frac_integral)(got_f, alpha, a)
    # the same panels: the same points, one call of f per level
    assert seen[1] == ref_seen[1]
    assert seen[0] == levels <= 28
    # the first-level start never takes more levels than the root start
    assert seen[0] <= levels_root
    if want == 0.0:  # vanishing integral: absolute, against the scale of f
        scale = _depth_first(lambda u: np.abs(f(u)), alpha, a, FIRST_LEVEL)[0]
        assert abs(got) <= 1e-16 * scale
        assert abs(got - want_root) <= QUAD_TOL * scale
    else:
        assert got == pytest.approx(want, rel=1e-13)
        assert abs(got - want_root) <= QUAD_TOL * abs(want_root)


def test_level_wise_stall_evaluates_no_more_panels(monkeypatch):
    monkeypatch.setattr(fraccalc, "MAX_PANELS", 512)
    f = lambda u: np.cos(5e7 * u)
    ref_f, ref_seen = _counted(f)
    with pytest.raises(QuadratureFailure):
        _depth_first(ref_f, 0.7, 1.0, FIRST_LEVEL, max_panels=512)
    got_f, seen = _counted(f)
    with pytest.raises(QuadratureFailure):
        frac_integral(got_f, 0.7, 1.0)
    assert seen[1] % 48 == 0  # 32 + 16 points per panel
    assert 0 < seen[1] <= ref_seen[1]
    assert seen[0] <= 28


# --- scalar product / expectation ---------------------------------------------


def test_orthogonality_cos_sin():
    # odd integrand over the symmetric interval vanishes under du^alpha
    alpha = 0.8
    from fracspec.fraccalc import frac_sin

    val = scalar_product(lambda u: frac_cos(alpha, 1.1 * u),
                         lambda u: frac_sin(alpha, 0.7 * u), alpha, 1.0)
    assert abs(val) < 1e-10


def test_even_integrand_doubles():
    alpha, a = 0.75, 1.2
    f = lambda u: np.cos(u) ** 2
    assert sym_integral(f, alpha, a) == pytest.approx(
        2.0 * frac_integral(f, alpha, a), rel=1e-9)


def test_expectation_identity_is_one():
    alpha = 0.7
    f = lambda u: frac_cos(alpha, u)
    assert expectation(lambda u: np.ones_like(u), f, f, alpha, 1.0) \
        == pytest.approx(1.0, rel=1e-9)


def test_expectation_position_vanishes_by_parity():
    # ground state of the symmetric well at alpha=1: <x> = 0
    f = lambda u: np.cos(math.pi * u / 2.0)
    assert abs(expectation(lambda u: u, f, f, 1.0, 1.0)) < 1e-10


def test_expectation_degenerate_norm():
    # <cos|sin> = 0 by parity, so expectation against it must refuse
    from fracspec.fraccalc import frac_sin

    alpha = 0.8
    f = lambda u: frac_cos(alpha, u)
    g = lambda u: frac_sin(alpha, u)
    with pytest.raises(DegenerateNorm):
        expectation(lambda u: u, f, g, alpha, 1.0)


# --- one pass for norm and expectation value ---------------------------------


class _CountedState:
    """A well state whose psi counts its calls; st.psi == st.psi holds for
    its bound methods as for WellState's."""

    def __init__(self, alpha, index, count=8):
        from fracspec.spectra import well_states_1d

        self.state = well_states_1d(alpha, count, 1.0,
                                    AlphaContext(alpha))[index]
        self.calls = 0

    def psi(self, u):
        self.calls += 1
        return self.state.psi(u)


def _count_levels(monkeypatch):
    """Route frac_integral through a wrapper counting its integrand calls,
    one per refinement level: returns [levels]."""
    levels, real = [0], fraccalc.frac_integral

    def counting(f, *args, **kwargs):
        def g(u):
            levels[0] += 1
            return f(u)

        return real(g, *args, **kwargs)

    monkeypatch.setattr(fraccalc, "frac_integral", counting)
    return levels


# states that still take two levels for the norm and the expectation when
# the refinement starts at the first level of the bisection tree
@pytest.mark.parametrize("alpha,index", [(0.85, 9), (0.9, 12), (0.95, 16)])
def test_psi_called_once_per_level(monkeypatch, alpha, index):
    state = _CountedState(alpha, index, count=24)
    op = lambda u: np.abs(u) ** alpha
    for run in (lambda: scalar_product(state.psi, state.psi, alpha, 1.0),
                lambda: expectation(op, state.psi, state.psi, alpha, 1.0)):
        levels = _count_levels(monkeypatch)
        state.calls = 0
        run()
        assert state.calls == levels[0] > 1


@pytest.mark.parametrize("alpha", [0.9, 0.95])
def test_low_states_take_one_level(monkeypatch, alpha):
    # the norm and <|x|^alpha> of each of the first eight well states are
    # accepted on the two first-level panels, in one integrand call
    op = lambda u: np.abs(u) ** alpha
    for index in range(8):
        state = _CountedState(alpha, index)
        for run in (lambda: scalar_product(state.psi, state.psi, alpha, 1.0),
                    lambda: expectation(op, state.psi, state.psi, alpha,
                                        1.0)):
            levels = _count_levels(monkeypatch)
            run()
            assert levels[0] == 1, index


def test_scalar_product_of_f_with_itself_is_bitwise_the_product():
    for alpha, index in ((0.6, 0), (0.8, 4), (0.95, 5), (1.0, 7)):
        state = _CountedState(alpha, index)
        g = lambda u: state.state.psi(u)  # not == state.psi: called as well
        assert scalar_product(state.psi, state.psi, alpha, 1.0) \
            == sym_integral(lambda u: state.psi(u) * g(u), alpha, 1.0)


@settings(deadline=None, max_examples=40)
@given(data=st.data(), alpha=st.floats(0.55, 1.0),
       op=st.sampled_from(["one", "abs_pow", "square"]))
def test_expectation_matches_two_separate_integrals(data, alpha, op):
    from fracspec.spectra import well_states_1d

    # state index 0-7: below alpha ~0.75 fewer than 8 states exist
    states = well_states_1d(alpha, 8, 1.0, AlphaContext(alpha))
    psi = states[data.draw(st.integers(0, len(states) - 1))].psi
    o = {"one": np.ones_like, "abs_pow": lambda u: np.abs(u) ** alpha,
         "square": np.square}[op]
    num = sym_integral(lambda u: psi(u) * o(u) * psi(u), alpha, 1.0)
    den = sym_integral(lambda u: psi(u) * psi(u), alpha, 1.0)
    assert expectation(o, psi, psi, alpha, 1.0) == pytest.approx(num / den,
                                                                 rel=1e-8)


@pytest.mark.parametrize("name,make,alpha,a,sym", QUAD_CASES,
                         ids=[c[0] for c in QUAD_CASES])
def test_identical_rows_are_bitwise_the_single_run(name, make, alpha, a, sym):
    f = make()
    integral = sym_integral if sym else frac_integral
    want = integral(f, alpha, a)
    got = integral(lambda u: np.stack([f(u), f(u)]), alpha, a)
    assert isinstance(want, float) and got.shape == (2,)
    assert got[0] == want and got[1] == want


def test_alpha_context_validation():
    AlphaContext(alpha=2.0 / 3.0, hbar_c=197.327, mc2=1400.0)
    with pytest.raises(ValueError):
        AlphaContext(alpha=0.0)
    with pytest.raises(ValueError):
        AlphaContext(alpha=0.7, hbar_c=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite hbar_c > 0"):
            AlphaContext(alpha=0.7, hbar_c=bad)
        with pytest.raises(ValueError, match="finite mc2 > 0"):
            AlphaContext(alpha=0.7, mc2=bad)


# --- cached Gauss-Legendre node sets -------------------------------------------


def test_gauss_legendre_nodes_are_cached_and_read_only():
    xs, ws = fraccalc._gauss_legendre(128)
    assert fraccalc._gauss_legendre(128)[0] is xs
    with pytest.raises(ValueError):
        xs[0] = 0.0
    with pytest.raises(ValueError):
        ws[0] = 0.0
    ref = np.polynomial.legendre.leggauss(128)
    assert xs.tobytes() == ref[0].tobytes() and ws.tobytes() == ref[1].tobytes()


def test_cached_nodes_leave_rl_nodes_and_radii_bitwise(monkeypatch):
    quarks = charmfit.QuarkMasses()
    calls = [lambda: rl_nodes(0.8, 1.7, 128),
             lambda: charmfit.radius_box(2452.2, quarks, 0.7, n_nodes=24),
             lambda: charmfit.radius_sphere(2452.2, quarks, 0.7, n_nodes=24)]
    cached = [np.asarray(f()).tobytes() for f in calls]
    monkeypatch.setattr(fraccalc, "_gauss_legendre",
                        np.polynomial.legendre.leggauss)
    monkeypatch.setattr(charmfit, "_gauss_legendre",
                        np.polynomial.legendre.leggauss)
    assert [np.asarray(f()).tobytes() for f in calls] == cached


# --- integer arguments -------------------------------------------------------


_P = charmfit.TABLE2_ROWS[0]


@pytest.mark.parametrize("name, least, call", [
    ("j", 1, lambda v: angular.c_value("c2", 0.7, v)),
    ("n", 0, lambda v: angular.euler_eigenvalue(0.7, v)),
    ("m", 0, lambda v: angular.lz_eigenvalue(0.7, v)),
    ("j", 0, lambda v: angular.j2_eigenvalue(0.7, v, "c0")),
    ("N", 2, lambda v: spectra.radial_ground(v, 0.9)),
    ("j", 0, lambda v: charmfit.mass_model(_P, v, 0)),
    ("m", 0, lambda v: charmfit.mass_model(_P, 3, v)),
    ("n", 1, lambda v: rl_nodes(0.7, 1.0, v)),
], ids=["c_value.j", "euler_eigenvalue.n", "lz_eigenvalue.m",
        "j2_eigenvalue.j", "radial_ground.N", "mass_model.j", "mass_model.m",
        "rl_nodes.n"])
@pytest.mark.parametrize("kind", ["fractional", "bool", "below"])
def test_integer_arguments_are_checked_by_name(name, least, call, kind):
    # 2.5 and True were truncated or taken as 1 (mass_model(p, 1.5, 0)
    # returned the <10> mass); a value below the least allowed raises too
    v = {"fractional": 2.5, "bool": True, "below": least - 1}[kind]
    with pytest.raises(ValueError, match=f"integer {name} >= {least}, got"):
        call(v)
