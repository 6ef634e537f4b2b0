"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Three sub-criteria are known to be unattainable because the published
numbers are internally inconsistent with the published formulas (full
analysis in LEDGER.md):

* criterion 3 for the alpha-optimized parameter rows: the published mass
  table was generated at more alpha digits than printed; at the printed
  3-decimal alpha the c1/c2/0.681 columns drift up to ~8 MeV at high j
  (alpha-rounding sensitivity alone is +-5 MeV there, far above the 0.5 MeV
  gate).  The alpha = 2/3 row, which has no alpha rounding, passes.
* criterion 6, radial first zero: the printed radial recurrence has its
  first zero at 3.65230*(pi/2); the published 3.1652*(pi/2) is not a zero
  of that series (g there is 0.037, with no sign change anywhere near).
* criterion 7, sphere chain: the published r0 = 1.08 fm is inconsistent
  with the published root and energy formula (they give 0.9725 fm), and
  with the computed root the chain gives r0 = 1.1222 fm, <r> = 0.3444 fm.

Those checks are implemented faithfully and left red rather than loosened.
"""

import math

import numpy as np

from fracspec import angular, su3fact
from fracspec.charmfit import (
    FitParams,
    QuarkMasses,
    TABLE2_ROWS,
    TABLE3_PRINTED,
    alpha_from_multiplet,
    fit,
    mass_model,
    predict,
    radius_box,
    radius_sphere,
    two_state_solve,
)
from fracspec.fraccalc import (
    FracSeries,
    caputo_derivative,
    frac_cos,
    frac_sin,
    scalar_product,
)
from fracspec.spectra import equivalent_potential, find_zeros, radial_ground

from conftest import spouge_gamma_mp

HALF_PI = math.pi / 2.0


def report(name: str, ok: bool, detail: str = "") -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    return ok


# ---------------------------------------------------------------------------
# Criterion 1: eigenvalue-table reproduction.
# ---------------------------------------------------------------------------


def test_criterion1_table1():
    rows = angular.table1_report()
    clean = ("lz_23", "lz_068", "j2c0_1", "j2c0_23", "j2c0_068")
    worst = max(abs(r[f"{c}_dev"]) for r in rows for c in clean)
    ok = worst <= 1e-4
    spot = (abs(rows[2]["lz_23"] - 1.460998) <= 1e-4
            and abs(rows[2]["j2c0_068"] - 3.663108) <= 1e-4
            and abs(rows[6]["lz_068"] - 2.953417) <= 1e-4)
    tension = all(np.isfinite(r["j2c1_065_dev"]) and np.isfinite(r["j2c2_065_dev"])
                  for r in rows)
    assert report("criterion 1: eigenvalue table columns <= 1e-4",
                  ok and spot, f"worst dev {worst:.2e}")
    assert report("criterion 1: c1/c2(0.65) deviation report generated",
                  tension)


# ---------------------------------------------------------------------------
# Criterion 2: alpha extraction from the multiplets.
# ---------------------------------------------------------------------------


def test_criterion2_alpha_extraction(bundled_dataset):
    by = {(s.j, s.m): s.mass_exp for s in bundled_dataset}
    ratio_chi = (by[(2, 2)] - by[(2, 0)]) / (by[(2, 1)] - by[(2, 0)])
    a_chi = alpha_from_multiplet(by[(2, 0)], by[(2, 1)], by[(2, 2)])
    ratio_psi = (by[(3, 2)] - by[(3, 0)]) / (by[(3, 1)] - by[(3, 0)])
    a_psi = alpha_from_multiplet(by[(3, 0)], by[(3, 1)], by[(3, 2)])
    ok = (abs(ratio_chi - 1.478) <= 0.007 and abs(a_chi - 0.680) <= 0.006
          and abs(ratio_psi - 1.44) <= 0.09 and abs(a_psi - 0.65) <= 0.08)
    assert report("criterion 2: multiplet ratios and alpha windows", ok,
                  f"chi {ratio_chi:.4f}->{a_chi:.4f}, "
                  f"psi {ratio_psi:.4f}->{a_psi:.4f}")


# ---------------------------------------------------------------------------
# Criterion 3: direct mass evaluation against the published table.
# ---------------------------------------------------------------------------


def test_criterion3_exact_alpha_row(bundled_dataset):
    worst = max(abs(mass_model(TABLE2_ROWS[0], j, m) - vals[0])
                for (j, m), vals in TABLE3_PRINTED.items())
    assert report("criterion 3: alpha=2/3 row within 0.5 MeV", worst <= 0.5,
                  f"worst {worst:.3f} MeV")


def test_criterion3_published_masses_at_printed_alpha(bundled_dataset):
    """KNOWN RED: published masses are only reproducible with alpha digits
    beyond the printed three decimals (analysis in LEDGER.md)."""
    worst = 0.0
    for i, row in enumerate(TABLE2_ROWS):
        for (j, m), vals in TABLE3_PRINTED.items():
            worst = max(worst, abs(mass_model(row, j, m) - vals[i]))
    ok = worst <= 0.5
    report("criterion 3: all parameter rows within 0.5 MeV at printed alpha",
           ok, f"worst {worst:.2f} MeV (alpha-print rounding alone moves "
               f"high-j masses by ~5 MeV)")
    m50_c1 = mass_model(TABLE2_ROWS[2], 5, 0)
    m50_c2 = mass_model(TABLE2_ROWS[3], 5, 0)
    report("criterion 3: <50> values at printed alpha",
           abs(m50_c1 - 4957.54) <= 0.5 and abs(m50_c2 - 4969.07) <= 0.5,
           f"c1 {m50_c1:.2f} vs 4957.54, c2 {m50_c2:.2f} vs 4969.07")
    assert ok, (
        f"published mass table not reproducible at printed-alpha precision "
        f"(worst deviation {worst:.2f} MeV; see LEDGER.md)"
    )


# ---------------------------------------------------------------------------
# Criterion 4: fit recovery.
# ---------------------------------------------------------------------------


def test_criterion4_fit_recovery(bundled_dataset):
    res = fit(bundled_dataset, 0.681, "c0")
    pub = TABLE2_ROWS[1]
    devs = {a: abs(getattr(res.params, a) - getattr(pub, a))
            for a in ("m0c2", "kappa", "B1", "B2", "B3", "delta_tau")}
    params_ok = max(devs.values()) <= 2.0
    budget = 2.02 + 0.1  # the published all-state dm of this row
    resid_ok = (res.diagnostics["dm_published_abs"] <= budget
                or res.diagnostics["dm_published_rms"] <= budget)
    scan = fit(bundled_dataset, "scan", "c0")
    scan_ok = abs(scan.params.alpha - 0.681) <= 0.005
    assert report("criterion 4: parameters within 2 MeV", params_ok,
                  f"worst {max(devs.values()):.2f} MeV")
    assert report("criterion 4: residual within published budget", resid_ok,
                  f"mean-abs {res.diagnostics['dm_published_abs']:.3f} "
                  f"<= {budget:.2f}")
    assert report("criterion 4: alpha-scan minimiser", scan_ok,
                  f"alpha* = {scan.params.alpha:.4f}")


# ---------------------------------------------------------------------------
# Criterion 5: predictions.
# ---------------------------------------------------------------------------


def test_criterion5_predictions(bundled_dataset):
    by = {(s.j, s.m): s for s in bundled_dataset}
    alpha = alpha_from_multiplet(by[(2, 0)].mass_exp, by[(2, 1)].mass_exp,
                                 by[(2, 2)].mass_exp)
    p0 = FitParams(0, 1, 0, 0, 0, 0, alpha=alpha)
    m33, e33 = predict(p0, 3, 3, dataset=bundled_dataset, with_interval=True)
    m33_ok = abs(m33 - 4268.0) <= 22.0 and abs(4259.0 - m33) <= e33
    m0, kap = two_state_solve(by[(1, 0)].mass_exp, by[(2, 0)].mass_exp, 0.680)
    solve_ok = abs(m0 - 2455.0) <= 3.0 and abs(kap - 262.4) <= 0.9
    assert report("criterion 5: <33> interpolation", m33_ok,
                  f"{m33:.1f} +- {e33:.1f} MeV")
    assert report("criterion 5: two-state solve", solve_ok,
                  f"m0c2 {m0:.1f}, kappa {kap:.2f}")


# ---------------------------------------------------------------------------
# Criterion 6: zeros.
# ---------------------------------------------------------------------------


def test_criterion6_trig_zeros():
    r0 = find_zeros("cos", 2.0 / 3.0, 1, 6.0)[0]
    cos_ok = abs(r0 - 1.1648) <= 1e-3
    cr = find_zeros("cos", 1.0, 4, 10.0).roots
    sr = find_zeros("sin", 1.0, 4, 10.0).roots
    int_ok = (max(abs(r - (2 * i + 1)) for i, r in enumerate(cr)) <= 1e-8
              and max(abs(r - (2 * i + 2)) for i, r in enumerate(sr)) <= 1e-8)
    assert report("criterion 6: first cos(2/3) zero at 1.1648*(pi/2)",
                  cos_ok, f"{r0:.6f}")
    assert report("criterion 6: alpha=1 zeros integer to 1e-8", int_ok)


def test_criterion6_radial_first_zero_published_value():
    """KNOWN RED: the printed radial recurrence's first zero is at
    3.65230*(pi/2); the published 3.1652*(pi/2) is not a zero of the series
    (g(4.9715) = 0.037 with no nearby sign change)."""
    rg = radial_ground(3, 2.0 / 3.0)
    got = rg.first_zero_scaled
    ok = abs(got - 3.1652) <= 1e-3
    report("criterion 6: radial N=3 alpha=2/3 first zero at 3.1652*(pi/2)",
           ok, f"computed {got:.5f}*(pi/2)")
    assert ok, (
        f"first zero of the printed recurrence is {got:.5f}*(pi/2), "
        f"not 3.1652*(pi/2); see LEDGER.md"
    )


def test_criterion6_published_zero_is_reached_at_alpha_0_71129():
    """The published 3.1652*(pi/2) is the first zero of the printed radial
    recurrence at alpha = 0.71129, not at 2/3 (LEDGER.md)."""
    lo, hi = 0.70, 0.72  # the first zero falls with alpha: 3.2719, 3.0891
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        if radial_ground(3, mid).first_zero_scaled > 3.1652:
            lo = mid
        else:
            hi = mid
    assert report("criterion 6: first zero 3.1652*(pi/2) reached at alpha "
                  "0.71129", abs(lo - 0.71129) <= 1e-4, f"alpha = {lo:.6f}")


# ---------------------------------------------------------------------------
# Criterion 7: size estimates.
# ---------------------------------------------------------------------------


def test_criterion7_box_radius():
    a, r = radius_box(2452.2, QuarkMasses(), 2.0 / 3.0)
    ok = abs(a - 0.81) <= 0.01 and abs(r - 0.32) <= 0.01
    assert report("criterion 7: box half-width and <r>", ok,
                  f"a = {a:.4f} fm, <r> = {r:.4f} fm")


def test_criterion7_sphere_published_values():
    """KNOWN RED: the published sphere numbers are mutually inconsistent
    with the published formulas; the computed chain gives r0 = 1.1222 fm and
    <r> = 0.3444 fm."""
    r0, r = radius_sphere(2452.2, QuarkMasses(), 2.0 / 3.0)
    _, r_box = radius_box(2452.2, QuarkMasses(), 2.0 / 3.0)
    r0_ok = abs(r0 - 1.08) <= 0.01
    r_ok = abs(r - 0.33) <= 0.01
    agree_ok = abs(r - r_box) <= 0.02
    report("criterion 7: sphere r0 = 1.08 +- 0.01 fm", r0_ok,
           f"computed {r0:.4f} fm")
    report("criterion 7: sphere <r> = 0.33 +- 0.01 fm", r_ok,
           f"computed {r:.4f} fm")
    report("criterion 7: box/sphere <r> agree within 0.02 fm", agree_ok,
           f"|{r:.4f} - {r_box:.4f}| = {abs(r - r_box):.4f}")
    assert r0_ok and r_ok and agree_ok, (
        "sphere chain cannot reproduce the published values from the "
        "published formulas; see LEDGER.md"
    )


# ---------------------------------------------------------------------------
# Criterion 8: factorization checks.
# ---------------------------------------------------------------------------


def test_criterion8_factorization():
    cliff = su3fact.clifford_check()
    cliff_ok = len(cliff) == 27 and all(c["pass"] for c in cliff)
    triple = su3fact.triple_product_check()
    assert report("criterion 8: 27 extended-Clifford triples <= 1e-12",
                  cliff_ok,
                  f"worst {max(c['max_abs_deviation'] for c in cliff):.2e}")
    assert report("criterion 8: triple product collapses, cross terms <= 1e-12",
                  triple["pass"], f"worst {triple['max_abs_deviation']:.2e}")
    assert report("criterion 8: exponent identities exact",
                  triple["exponent_identities"]["pass"])


# ---------------------------------------------------------------------------
# Criterion 9: property suites.
# ---------------------------------------------------------------------------


def test_criterion9_caputo_properties():
    import mpmath as mp

    ok = True
    with mp.workdps(50):
        for alpha in (0.5, 2.0 / 3.0, 0.9, 1.0, 1.1):
            am = mp.mpf(alpha)
            for n in range(1, 41):
                d = caputo_derivative(FracSeries.monomial(alpha, n))
                ref = float(spouge_gamma_mp(1 + n * am)
                            / spouge_gamma_mp(1 + (n - 1) * am))
                if abs(d.coeffs[n - 1] - ref) > 1e-12 * ref:
                    ok = False
    assert report("criterion 9: monomial rule exact to 1e-12 (n <= 40)", ok)

    alpha, k = 0.8, 1.4
    ds = caputo_derivative(FracSeries.sine(alpha, k=k))
    c = FracSeries.cosine(alpha, k=k)
    scale = abs(k) ** alpha
    dev_sin = max(abs(b - scale * a) for b, a in zip(ds.coeffs, c.coeffs))
    dd = caputo_derivative(caputo_derivative(c))
    dev_cos2 = max(abs(b + abs(k) ** (2 * alpha) * a)
                   for b, a in zip(dd.coeffs, c.coeffs))
    assert report("criterion 9: derivative identities coefficient-wise",
                  dev_sin <= 1e-12 and dev_cos2 <= 1e-12,
                  f"devs {dev_sin:.2e}, {dev_cos2:.2e}")


def test_criterion9_equivalent_potential():
    grid = np.linspace(-0.95, 0.95, 191)
    pairs = equivalent_potential(1.0, 100.0, 40, grid)
    x = np.array([p[0] for p in pairs])
    v = np.array([p[1] for p in pairs])
    rho = np.exp(-v[np.abs(x) <= 0.7])
    flat_ok = rho.std() / rho.mean() < 1e-3

    pairs = equivalent_potential(0.9, 12.0, 18, grid)
    x = np.array([p[0] for p in pairs])
    v = np.array([p[1] for p in pairs])
    sel = np.abs(x) <= 0.8
    xa, y = np.abs(x[sel]), v[sel]
    A = np.vstack([xa, np.ones_like(xa)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    r2 = 1.0 - (resid**2).sum() / ((y - y.mean()) ** 2).sum()
    assert report("criterion 9: potential constant at alpha=1", flat_ok,
                  f"std/mean {rho.std() / rho.mean():.2e}")
    assert report("criterion 9: potential linear in |x| at alpha=0.9",
                  r2 >= 0.9, f"R^2 = {r2:.3f}")


def test_criterion9_orthogonality():
    val = scalar_product(lambda u: frac_cos(0.8, 1.2 * u),
                         lambda u: frac_sin(0.8, 0.9 * u), 0.8, 1.0)
    assert report("criterion 9: cos/sin orthogonal under du^alpha",
                  abs(val) < 1e-8, f"integral {val:.2e}")
