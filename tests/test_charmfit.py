"""Charmonium dataset, mass model, fits, predictions and size estimates."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracspec import charmfit
from fracspec.angular import j2_eigenvalue, lz_eigenvalue
from fracspec.charmfit import (
    CharmState,
    DuplicateState,
    FitParams,
    MissingB,
    NegativeZeroPoint,
    OutOfRange,
    ParseError,
    QuarkMasses,
    RankDeficient,
    TABLE2_ROWS,
    alpha_from_multiplet,
    default_dataset,
    fit,
    load_dataset,
    mass_model,
    predict,
    radius_box,
    radius_sphere,
    table3_report,
    two_state_solve,
)
from fracspec.fraccalc import HALF_PI, frac_cos
from fracspec.spectra import find_zeros, radial_ground

QUARKS = QuarkMasses()


# --- dataset -------------------------------------------------------------------


def test_bundled_dataset(bundled_dataset):
    assert len(bundled_dataset) == 11
    assert max(s.j for s in bundled_dataset) == 4
    by = {(s.j, s.m): s for s in bundled_dataset}
    assert by[(0, 0)].mass_exp == pytest.approx(2452.2)
    assert by[(4, 0)].mass_exp == pytest.approx(4415.0)


def test_empty_file_is_empty_dataset(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text("  \n")
    assert load_dataset(p) == []


def test_duplicate_state_rejected(tmp_path):
    p = tmp_path / "dup.json"
    p.write_text(json.dumps([
        {"name": "a", "j": 2, "m": 1, "mass_mev": 3510.6},
        {"name": "b", "j": 2, "m": 1, "mass_mev": 3511.0},
    ]))
    with pytest.raises(DuplicateState):
        load_dataset(p)


def test_parse_error_carries_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('[{"name": "a", "j": 1,\n  BROKEN\n]')
    with pytest.raises(ParseError) as err:
        load_dataset(p)
    assert "line" in str(err.value)


def test_invalid_record_rejected(tmp_path):
    p = tmp_path / "bad2.json"
    p.write_text(json.dumps([{"name": "a", "j": 1, "m": 2,
                              "mass_mev": 3000.0}]))
    with pytest.raises(ParseError):
        load_dataset(p)


@pytest.mark.parametrize("field,value", [("j", "2"), ("m", True)])
def test_non_integer_label_rejected(tmp_path, field, value):
    # int() would read "2" as 2 and true as 1
    rec = {"name": "a", "j": 2, "m": 1, "mass_mev": 3510.6, field: value}
    p = tmp_path / "label.json"
    p.write_text(json.dumps([rec]))
    with pytest.raises(ParseError):
        load_dataset(p)


def test_env_override(tmp_path, monkeypatch):
    p = tmp_path / "alt.json"
    p.write_text(json.dumps([{"name": "only", "j": 1, "m": 0,
                              "mass_mev": 3000.0}]))
    monkeypatch.setenv("FRACSPEC_DATA", str(p))
    ds = default_dataset()
    assert len(ds) == 1 and ds[0].name == "only"


# --- mass model ------------------------------------------------------------------


def test_mass_model_ground_is_offset():
    p = TABLE2_ROWS[1]
    assert mass_model(p, 0, 0) == pytest.approx(p.m0c2, abs=1e-12)


def test_mass_model_published_examples():
    # <11> under the optimized-c0 row and <21> under the alpha=2/3 row
    assert mass_model(TABLE2_ROWS[1], 1, 1) == pytest.approx(3096.92, abs=0.5)
    assert mass_model(TABLE2_ROWS[0], 2, 1) == pytest.approx(3513.89, abs=0.5)


def test_mass_model_missing_b():
    p = TABLE2_ROWS[1]
    with pytest.raises(MissingB):
        mass_model(p, 4, 1)
    with pytest.raises(MissingB):
        predict(p, 5, 2)
    assert mass_model(p, 4, 0) > mass_model(p, 3, 0)


# --- alpha extraction ---------------------------------------------------------------


def test_alpha_from_chi_triplet():
    a = alpha_from_multiplet(3415.2, 3510.6, 3556.3)
    assert a == pytest.approx(0.680, abs=0.006)


def test_alpha_from_psi_triplet():
    a = alpha_from_multiplet(3770.0, 4040.0, 4160.0)
    assert a == pytest.approx(0.65, abs=0.08)


def test_alpha_equal_spacing_is_one():
    a = alpha_from_multiplet(3000.0, 3100.0, 3200.0)
    assert a == pytest.approx(1.0, abs=1e-9)


def test_alpha_out_of_range():
    with pytest.raises(OutOfRange):
        alpha_from_multiplet(3000.0, 3100.0, 3500.0)  # ratio 5 unattainable


# --- two-state solve ------------------------------------------------------------------


def test_two_state_published_window():
    m0, kap = two_state_solve(2979.6, 3415.2, 0.680)
    assert m0 == pytest.approx(2455.0, abs=3.0)
    assert kap == pytest.approx(262.4, abs=0.9)


def test_two_state_degenerate():
    m0, kap = two_state_solve(3000.0, 3000.0, 0.7)
    assert kap == 0.0
    assert m0 == pytest.approx(3000.0)


def test_two_state_classical_hand_solve():
    # alpha=1: J2 = 2 and 6; hand-solved 2x2 system
    m0, kap = two_state_solve(3000.0, 3400.0, 1.0)
    assert kap == pytest.approx(100.0, rel=1e-12)
    assert m0 == pytest.approx(2800.0, rel=1e-12)


# --- least squares ---------------------------------------------------------------------


def test_fit_recovers_published_row(bundled_dataset):
    res = fit(bundled_dataset, 0.681, "c0")
    pub = TABLE2_ROWS[1]
    assert res.params.m0c2 == pytest.approx(pub.m0c2, abs=2.0)
    assert res.params.kappa == pytest.approx(pub.kappa, abs=2.0)
    assert res.params.B1 == pytest.approx(pub.B1, abs=2.0)
    assert res.params.B2 == pytest.approx(pub.B2, abs=2.0)
    assert res.params.B3 == pytest.approx(pub.B3, abs=2.0)
    assert res.params.delta_tau == pytest.approx(pub.delta_tau, abs=2.0)


def test_fit_interpolates_singly_supported_state(bundled_dataset):
    res = fit(bundled_dataset, 0.681, "c0")
    assert abs(res.residuals[(1, 1)]) < 1e-9


def test_fit_residual_budget(bundled_dataset):
    res = fit(bundled_dataset, 0.681, "c0")
    assert res.diagnostics["dm_published_abs"] <= 2.02 + 0.1
    for key in ("dm_m0_rms", "dm_all_rms", "dm_m0_abs", "dm_all_abs"):
        assert np.isfinite(res.diagnostics[key])


def test_fit_scan_minimizer(bundled_dataset):
    res = fit(bundled_dataset, "scan", "c0")
    assert res.params.alpha == pytest.approx(0.681, abs=0.005)


def test_fit_scan_other_models_near_published(bundled_dataset):
    assert fit(bundled_dataset, "scan", "c1").params.alpha == pytest.approx(
        0.647, abs=0.005)
    assert fit(bundled_dataset, "scan", "c2").params.alpha == pytest.approx(
        0.649, abs=0.005)


def test_fit_optimality_against_perturbations(bundled_dataset):
    res = fit(bundled_dataset, 0.681, "c0")
    states = sorted(bundled_dataset, key=lambda s: (s.j, s.m))
    base = np.array([res.params.m0c2, res.params.kappa, res.params.B1,
                     res.params.B2, res.params.B3, res.params.delta_tau])

    def rms(vec):
        p = FitParams(*vec, alpha=0.681, c_model="c0")
        r = [mass_model(p, s.j, s.m) - s.mass_exp for s in states]
        return math.sqrt(np.mean(np.square(r)))

    best = rms(base)
    rng = np.random.default_rng(11)
    for _ in range(100):
        assert rms(base + rng.normal(0.0, 2.0, 6)) >= best - 1e-9


def test_fit_scale_covariance(bundled_dataset):
    s = 1.7
    scaled = [CharmState(st.name, st.j, st.m, st.mass_exp * s,
                         st.mass_err) for st in bundled_dataset]
    r1 = fit(bundled_dataset, 0.681, "c0")
    r2 = fit(scaled, 0.681, "c0")
    for attr in ("m0c2", "kappa", "B1", "B2", "B3", "delta_tau"):
        assert getattr(r2.params, attr) == pytest.approx(
            s * getattr(r1.params, attr), rel=1e-9)


def test_fit_rank_deficient():
    tiny = [CharmState("x", 0, 0, 2452.2), CharmState("y", 1, 0, 2979.6)]
    with pytest.raises(RankDeficient):
        fit(tiny, 0.68, "c0")


def test_fit_exact_column_dependence_is_rank_deficient(bundled_dataset):
    # with <31> the only j = 3 state, the B3 column (l(alpha, 1) = 1) equals
    # the delta_tau column: every parameter has a supporting state, yet a
    # pseudo-inverse would return a minimum-norm answer
    ds = [s for s in bundled_dataset if (s.j, s.m) not in ((3, 0), (3, 2), (3, 3))]
    A = charmfit._design_matrix([(s.j, s.m) for s in ds], [0.68], "c0")[0]
    assert np.array_equal(A[:, 4], A[:, 5]) and A[:, 4].any()
    with pytest.raises(RankDeficient, match="singular"):
        fit(ds, 0.68, "c0")


def test_fit_fewer_states_than_parameters(bundled_dataset):
    five = [s for s in bundled_dataset
            if (s.j, s.m) in ((0, 0), (1, 1), (2, 1), (3, 0), (3, 1))]
    for alpha in (0.68, "scan"):
        with pytest.raises(RankDeficient, match="5 states"):
            fit(five, alpha, "c0")


def test_rank_guard_catches_every_pinv_truncation(bundled_dataset, monkeypatch):
    # design matrices U diag(s) V^T with cond_2 spread around lstsq's cutoff
    # 1/(M eps): wherever the pseudo-inverse would drop a singular value the
    # solve must raise, and it must not below cutoff/6 (the Frobenius bound
    # is at most 6 cond_2 for six columns)
    n_states = len(bundled_dataset)
    cutoff = n_states * np.finfo(float).eps
    rng = np.random.default_rng(3)
    raised = truncated = 0
    for _ in range(600):
        U = np.linalg.qr(rng.normal(size=(n_states, 6)))[0]
        V = np.linalg.qr(rng.normal(size=(6, 6)))[0]
        cond = 10.0 ** rng.uniform(12.0, 16.0)
        s = np.r_[1.0, cond ** -rng.uniform(0.0, 1.0, 4), 1.0 / cond]
        A = (U * s * 10.0 ** rng.uniform(-3.0, 3.0)) @ V.T
        monkeypatch.setattr(charmfit, "_design_matrix", lambda *args: A[None])
        sv = np.linalg.svd(A, compute_uv=False)
        try:
            charmfit._solve(bundled_dataset, [0.7], "c0")
        except RankDeficient:
            raised += 1
            assert sv[0] / sv[-1] > 0.9 / (6.0 * cutoff)
        else:
            assert sv[-1] >= cutoff * sv[0]
        truncated += sv[-1] < cutoff * sv[0]
    assert raised >= truncated > 100


@pytest.mark.parametrize("step", [0.0, -1e-3, math.nan, math.inf, -math.inf])
def test_fit_scan_step_must_be_finite_and_positive(bundled_dataset, step):
    for alpha in ("scan", 0.68):
        with pytest.raises(ValueError, match="scan_step"):
            fit(bundled_dataset, alpha, "c0", scan_step=step)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), alphas=st.lists(st.floats(0.41, 1.5), min_size=1,
                                       max_size=6),
       c_model=st.sampled_from(["c0", "c1", "c2"]))
def test_batched_solve_matches_per_alpha_lstsq(bundled_dataset, data, alphas,
                                               c_model):
    states = sorted(bundled_dataset, key=lambda s: (s.j, s.m))
    pick = data.draw(st.sets(st.sampled_from(range(len(states))), min_size=6))
    jitter = data.draw(st.lists(st.floats(-50.0, 50.0), min_size=len(states),
                                max_size=len(states)))
    states = [dataclasses.replace(s, mass_exp=s.mass_exp + dm)
              for i, (s, dm) in enumerate(zip(states, jitter)) if i in pick]
    y = np.array([s.mass_exp for s in states])
    A = charmfit._design_matrix([(s.j, s.m) for s in states], alphas, c_model)
    assume(all(np.linalg.matrix_rank(a) == 6 for a in A))
    p, res = charmfit._solve(states, alphas, c_model)
    for a, p_a, res_a in zip(A, p, res):
        # equilibrated columns: plain lstsq itself misses the 50-digit
        # residuals by up to 1.3e-9 MeV near alpha = 1.5 (QR: 2e-12)
        d = np.linalg.norm(a, axis=0)
        ref = np.linalg.lstsq(a / d, y, rcond=None)[0] / d
        assert np.linalg.norm(p_a - ref) <= 1e-12 * np.linalg.norm(ref)
        np.testing.assert_allclose(res_a, a @ ref - y, rtol=0.0, atol=1e-9)


_ALL_JM = [(j, m) for j in range(6) for m in range(j + 1)]


@pytest.mark.parametrize("c_model", ["c0", "c1", "c2"])
def test_design_rows_equal_scalar_eigenvalues(c_model):
    alphas = [0.41, 0.6, 0.647, 2.0 / 3.0, 0.681, 0.7213, 1.0, 1.37]
    A = charmfit._design_matrix(_ALL_JM, alphas, c_model)
    assert A.shape == (len(alphas), len(_ALL_JM), 6)
    for a, rows in zip(alphas, A):
        for (j, m), row in zip(_ALL_JM, rows):
            lz = lz_eigenvalue(a, m) if m > 0 else 0.0
            ref = [1.0, j2_eigenvalue(a, j, c_model),
                   lz if j == 1 else 0.0, lz if j == 2 else 0.0,
                   lz if j == 3 else 0.0, 1.0 if j == 3 else 0.0]
            assert row.tolist() == ref, (a, j, m)


def test_design_matrix_rejects_an_unknown_model():
    # an unknown model must not fall through to the c2 matrix
    with pytest.raises(ValueError, match="c_model"):
        charmfit._design_matrix([(2, 1)], [0.68], "c5")


def _scalar_mass(p, j, m):
    """m0 + kappa J^2 + B_j L_z + delta_tau, summed term by term from the
    scalar eigenvalues."""
    val = p.m0c2 + p.kappa * j2_eigenvalue(p.alpha, j, p.c_model)
    if m > 0:
        val += {1: p.B1, 2: p.B2, 3: p.B3}[j] * lz_eigenvalue(p.alpha, m)
    if j == 3:
        val += p.delta_tau
    return val


def test_batched_masses_equal_mass_model():
    jm = sorted(charmfit.TABLE3_PRINTED)
    for row in TABLE2_ROWS:
        for alpha in (row.alpha, 0.41, 1.0, 1.37):
            p = dataclasses.replace(row, alpha=alpha)
            ref = [_scalar_mass(p, j, m) for j, m in jm]
            assert [mass_model(p, j, m) for j, m in jm] == ref
            A = charmfit._design_matrix(jm, [alpha], p.c_model)
            assert charmfit._masses(A, p.vector())[0].tolist() == ref


def _lstsq_scan(states, c_model, step, lo=0.60, hi=0.72):
    """Reference scan: one scalar design matrix and one np.linalg.lstsq per
    alpha, the published mean-absolute objective, the same grid and golden
    section as fit()."""
    y = np.array([s.mass_exp for s in states])
    published = np.array([(s.j, s.m) != (3, 3) for s in states])

    def solve(a):
        A = np.array([[1.0, j2_eigenvalue(a, s.j, c_model),
                       *[lz_eigenvalue(a, s.m) if (s.j == jb and s.m > 0)
                         else 0.0 for jb in (1, 2, 3)],
                       1.0 if s.j == 3 else 0.0] for s in states])
        p = np.linalg.lstsq(A, y, rcond=None)[0]
        return p, A @ p - y

    def obj(a):
        return float(np.mean(np.abs(solve(a)[1][published])))

    grid = np.arange(lo, hi + 0.5 * step, step)
    i = int(np.argmin([obj(float(a)) for a in grid]))
    a, b = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, len(grid) - 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = obj(c), obj(d)
    while b - a > 1e-4:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = obj(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = obj(d)
    best = round(0.5 * (a + b), 6)
    return best, solve(best)[0]


@pytest.mark.parametrize("step", [1e-3, 1e-4])
@pytest.mark.parametrize("c_model", ["c0", "c1", "c2"])
def test_scan_optimum_matches_lstsq_loop(bundled_dataset, c_model, step):
    states = sorted(bundled_dataset, key=lambda s: (s.j, s.m))
    alpha, p_ref = _lstsq_scan(states, c_model, step)
    res = fit(bundled_dataset, "scan", c_model, scan_step=step)
    assert res.params.alpha == alpha
    got = [res.params.m0c2, res.params.kappa, res.params.B1, res.params.B2,
           res.params.B3, res.params.delta_tau]
    np.testing.assert_allclose(got, p_ref, rtol=1e-12)


# --- predictions ---------------------------------------------------------------------


def test_predict_33_interpolation(bundled_dataset):
    alpha = alpha_from_multiplet(3415.2, 3510.6, 3556.3)
    p = FitParams(0, 1, 0, 0, 0, 0, alpha=alpha)
    val, err = predict(p, 3, 3, dataset=bundled_dataset, with_interval=True)
    assert val == pytest.approx(4268.0, abs=22.0)
    assert abs(4259.0 - val) <= err  # brackets the observed candidate


def test_predict_50_published_band():
    # published band 4965 +- 10: the c2 row lands inside at printed
    # parameters; the c1 row needs the unprinted alpha digits (the printed
    # table itself was produced at higher alpha precision)
    m50_c2 = predict(TABLE2_ROWS[3], 5, 0)
    assert abs(m50_c2 - 4965.0) <= 10.0
    m50_c1 = predict(TABLE2_ROWS[2], 5, 0)
    assert m50_c1 == pytest.approx(4957.54, abs=5.0)


def test_predict_ground_is_offset():
    p = TABLE2_ROWS[1]
    assert predict(p, 0, 0) == pytest.approx(p.m0c2)


def test_mass_model_monotone_in_j():
    p = TABLE2_ROWS[1]
    masses = [mass_model(p, j, 0) - (p.delta_tau if j == 3 else 0.0)
              for j in range(6)]
    assert all(x < y for x, y in zip(masses, masses[1:]))


# --- radii ------------------------------------------------------------------------------


def test_radius_box_published_values():
    a, r = radius_box(2452.2, QUARKS, 2.0 / 3.0)
    assert a == pytest.approx(0.81, abs=0.01)
    assert r == pytest.approx(0.32, abs=0.01)


def test_radius_box_zero_point_edge():
    a, r = radius_box(2000.0, QUARKS, 2.0 / 3.0)
    assert math.isinf(a) and math.isinf(r)
    with pytest.raises(NegativeZeroPoint):
        radius_box(1999.0, QUARKS, 2.0 / 3.0)


def test_radius_box_alpha_one_oracle():
    # <r>/a for the classical cube ground state: frozen Monte-Carlo oracle
    # value 0.58688 +- 0.0003 (2e6 samples, seed 42)
    a, r = radius_box(2452.2, QUARKS, 1.0)
    assert r / a == pytest.approx(0.58688, abs=1e-3)


def test_radius_mean_inside_box():
    a, r = radius_box(2452.2, QUARKS, 2.0 / 3.0)
    assert 0.0 < r < a * math.sqrt(3.0)


def test_radius_sphere_computed_chain():
    # honest chain from the printed recurrence: first zero 3.65230*(pi/2)
    # -> r0 = 1.1222 fm, <r> = 0.3444 fm.  The published figures (1.08,
    # 0.33) require a root the printed recurrence does not have; the
    # faithful published-value check lives in the acceptance suite.
    r0, r = radius_sphere(2452.2, QUARKS, 2.0 / 3.0)
    assert r0 == pytest.approx(1.1222, abs=0.001)
    assert r == pytest.approx(0.3444, abs=0.001)


def test_radius_sphere_alpha_one_classical():
    # r0 from the standard s-wave zero-point formula at alpha=1
    sigma = 2452.2
    e0 = sigma - (2 * QUARKS.m_d_c2 + QUARKS.m_c_c2)
    expected_r0 = 197.327 * math.pi / math.sqrt(2.0 * e0 * QUARKS.m_c_c2)
    r0, _ = radius_sphere(sigma, QUARKS, 1.0)
    assert r0 == pytest.approx(expected_r0, rel=1e-9)


def _octant_gauss_legendre(size, n_nodes):
    """n_nodes-point Gauss-Legendre nodes and weights on [0, size], straight
    from numpy: the references share no node code with the cubature."""
    xs, ws = np.polynomial.legendre.leggauss(n_nodes)
    return 0.5 * size * (xs + 1.0), ws


def _sphere_brute_force(r0, alpha, n_nodes):
    """<r> of radius_sphere summed over all n_nodes^3 octant nodes.  Each G
    adds its R values in sorted index order, as the cubature does: near the
    cube's far corner the alternating series of g has a condition number of
    about 7e7 (alpha 0.55), so G's last-bit rounding alone moves <r> by up to
    3e-13."""
    ground = radial_ground(3, alpha)
    u, w = _octant_gauss_legendre(r0, n_nodes)
    R = np.abs(u) ** (2.0 * alpha)
    i, j, k = np.sort(np.indices((n_nodes,) * 3), axis=0)
    G = R[i] + R[j] + R[k]
    P = ground.g_of_rho((ground.first_zero / r0) ** (2.0 * alpha) * G)
    W3 = w[:, None, None] * w[None, :, None] * w[None, None, :]
    ratio = float((W3 * P * P * np.sqrt(G)).sum() / (W3 * P * P).sum())
    return ((charmfit.HBARC_MEV_FM / QUARKS.m_c_c2) ** (1.0 - alpha)
            / math.gamma(1.0 + alpha) * ratio)


def _box_brute_force(a, alpha, n_nodes):
    """<r> of radius_box by one einsum over all n_nodes^3 octant nodes of
    the separable density psi_i^2 psi_j^2 psi_k^2."""
    k0 = find_zeros("cos", alpha, 1, 8.0, xtol=1e-12)[0] * HALF_PI
    u, w = _octant_gauss_legendre(a, n_nodes)
    psi = frac_cos(alpha, k0 * u / a)
    W = w * psi * psi
    R = np.abs(u) ** (2.0 * alpha)
    G = R[:, None, None] + R[None, :, None] + R[None, None, :]
    ratio = (float(np.einsum("i,j,k,ijk->", W, W, W, np.sqrt(G)))
             / float(W.sum()) ** 3)
    return ((charmfit.HBARC_MEV_FM / QUARKS.m_c_c2) ** (1.0 - alpha)
            / math.gamma(1.0 + alpha) * ratio)


# ids alpha-n_nodes-plain (the ordinary volume element), with a "box-"
# prefix for the box cases
@pytest.mark.parametrize("fn, alpha, n_nodes", [
    pytest.param(fn, alpha, n, id=("box-" if fn is radius_box else "")
                 + f"{alpha}-{n}-plain")
    for fn in (radius_sphere, radius_box) for alpha in (2.0 / 3.0, 1.0)
    for n in (7, 16)
])
def test_sphere_cubature_matches_brute_force(fn, alpha, n_nodes):
    size, r = fn(2452.2, QUARKS, alpha, n_nodes=n_nodes)
    brute = _box_brute_force if fn is radius_box else _sphere_brute_force
    assert r == pytest.approx(brute(size, alpha, n_nodes), rel=1e-13)


@settings(deadline=None, max_examples=40)
@given(alpha=st.floats(0.55, 1.5), n_nodes=st.integers(1, 24),
       sigma=st.floats(2440.0, 2470.0))
def test_cubatures_match_brute_force_everywhere(alpha, n_nodes, sigma):
    for fn, brute in ((radius_box, _box_brute_force),
                      (radius_sphere, _sphere_brute_force)):
        size, r = fn(sigma, QUARKS, alpha, n_nodes=n_nodes)
        assert r == pytest.approx(brute(size, alpha, n_nodes), rel=1e-13)


@pytest.mark.parametrize("fn", [radius_box, radius_sphere])
def test_radius_scales_to_a_tiny_well(fn):
    # <r> ~ a^alpha at fixed shape: E0 = 1e300 MeV shrinks the well to
    # ~1e-224 fm, where unscaled cubature weights underflow
    alpha = 2.0 / 3.0
    a, r = fn(2452.2, QUARKS, alpha)
    a_tiny, r_tiny = fn(1e300, QUARKS, alpha)
    assert 0.0 < a_tiny < 1e-200 and 0.0 < r_tiny
    assert r_tiny / a_tiny**alpha == pytest.approx(r / a**alpha, rel=1e-12)


@pytest.mark.parametrize("sigma, hbar_c, bad", [
    *(pytest.param(s, h, {}, id=f"{s}-{h}") for s, h in (
        (math.inf, 197.327), (-math.inf, 197.327), (math.nan, 197.327),
        (2452.2, -1.0), (2452.2, math.nan), (2452.2, math.inf))),
    *(pytest.param(2452.2, 197.327, {"n_nodes": n}, id=f"n_nodes={n!r}")
      for n in (0, -3, 2.5, True)),
])
def test_radius_rejects_bad_sigma_and_hbar_c(sigma, hbar_c, bad, monkeypatch):
    # every argument is checked, by name, before either root search runs
    def search(*args, **kwargs):
        raise AssertionError("root search ran before the arguments were checked")

    monkeypatch.setattr(charmfit, "find_zeros", search)
    monkeypatch.setattr(charmfit, "radial_ground", search)
    name = next(iter(bad), "hbar_c" if sigma == 2452.2 else "sigma")
    for fn in (radius_box, radius_sphere):
        with pytest.raises(ValueError, match=name):
            fn(sigma, QUARKS, 2.0 / 3.0, hbar_c, **bad)


def test_radius_accepts_numpy_integer_nodes():
    got = radius_box(2452.2, QUARKS, 2.0 / 3.0, n_nodes=np.int64(12))
    assert got == radius_box(2452.2, QUARKS, 2.0 / 3.0, n_nodes=12)


def test_radius_quadrature_stability():
    a64, r64 = radius_box(2452.2, QUARKS, 2.0 / 3.0, n_nodes=64)
    a96, r96 = radius_box(2452.2, QUARKS, 2.0 / 3.0, n_nodes=96)
    assert r96 == pytest.approx(r64, rel=1e-4)


# --- mass table report --------------------------------------------------------------


def test_table3_report_shape(bundled_dataset):
    rows = table3_report(dataset=bundled_dataset)
    assert len(rows) == 12
    jm = {(r["j"], r["m"]) for r in rows}
    assert (5, 0) in jm
    r50 = next(r for r in rows if (r["j"], r["m"]) == (5, 0))
    assert r50["m_exp"] is None


def test_table3_exact_alpha_row_reproduced(bundled_dataset):
    # the alpha = 2/3 row carries no alpha-rounding error: every published
    # mass reproduces within the printed-parameter slack
    rows = table3_report(dataset=bundled_dataset)
    for r in rows:
        assert abs(r["set0_dev_printed"]) <= 0.5


def test_table3_refined_alpha_tracks_published(bundled_dataset):
    # with alpha refined near the printed value, every published mass
    # column reproduces to ~0.1 MeV: the tables are self-consistent and
    # only the printed alpha digits are off
    rows = table3_report(dataset=bundled_dataset)
    for i in range(4):
        worst_refined = max(abs(r[f"set{i}_dev_refined"]) for r in rows)
        assert worst_refined <= 0.3, f"set{i}: {worst_refined}"
