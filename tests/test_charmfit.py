"""Charmonium dataset, mass model, fits, predictions and size estimates."""

import dataclasses
import json
import math
import re
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_alpha_from_non_finite_masses_raises(position, bad):
    # a NaN target made the bracket test false, and the refiner returned 0.4
    masses = [3415.2, 3510.6, 3556.3]
    masses[position] = bad
    with pytest.raises(ValueError, match="masses m0, m1, m2 must be finite"):
        alpha_from_multiplet(*masses)


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


@pytest.mark.parametrize("alpha", [1e-300, 1e-17, 1e-10, 1e-8])
def test_two_state_solve_where_the_j2_gap_rounds_away(alpha):
    # l(alpha, 2) - 1 ~ (pi^2/6) alpha^2 is lost to rounding below alpha ~
    # 1e-8: J^2(alpha, 2) - J^2(alpha, 1) came out 0 (1e-300, 1e-17, 1e-8),
    # giving kappa inf, or negative (1e-10), giving kappa ~ -2e18
    j2_1, j2_2 = charmfit._design_matrix([(1, 0), (2, 0)], [alpha], "c0")[0, :, 1]
    assert not j2_2 > j2_1
    with pytest.raises(ValueError, match=f"alpha={alpha:g}"):
        two_state_solve(2979.6, 3415.2, alpha)


@pytest.mark.parametrize("alpha", [1e-9, 1e-7, 1e-6])
def test_two_state_solve_refuses_where_kappa_misses_its_accuracy(alpha):
    # the J^2 gap stays positive here but is mostly rounding error: kappa
    # came out 1.08e17 against 8.73e19 at 1e-9, 5 % off at 1e-7, 1.1e-4 off
    # at 1e-6
    with pytest.raises(ValueError, match=f"alpha={alpha:g}"):
        two_state_solve(2979.6, 3415.2, alpha)


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(1e-3, 1.5))
@example(alpha=1e-3)
@example(alpha=1.5)
def test_two_state_kappa_within_its_stated_accuracy(alpha):
    # kappa = (chi0 - eta_c) / (J^2(alpha, 2) - 2) within 1e-6 relative of
    # 50-digit mpmath, the accuracy two_state_solve states
    _, kap = two_state_solve(2979.6, 3415.2, alpha)
    with mp.workdps(50):
        a = mp.mpf(alpha)
        l2 = mp.gamma(2 * a + 1) / mp.gamma(a + 1) ** 2
        want = (mp.mpf(3415.2) - mp.mpf(2979.6)) / (l2 * (l2 + 1) - 2)
        assert abs(kap - want) <= 1e-6 * want


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


# below 1e-5, the second grid's step, memory grows as 1/step: a step of 1e-8
# would build a 6.3 GB design tensor
@pytest.mark.parametrize("step", [0.0, -1e-3, math.nan, math.inf, -math.inf,
                                  9.9e-6, 1e-300])
def test_fit_scan_step_must_be_finite_and_positive(bundled_dataset, step):
    for alpha in ("scan", 0.68):
        with pytest.raises(ValueError, match="scan_step"):
            fit(bundled_dataset, alpha, "c0", scan_step=step)


def test_fit_scan_step_of_the_second_grid_is_allowed(bundled_dataset):
    assert fit(bundled_dataset, "scan", "c0", scan_step=1e-5).params.alpha == 0.68111


@pytest.mark.parametrize("c_model", ["c0", "c1", "c2"])
def test_fit_makes_one_lsq_solve_per_grid(bundled_dataset, monkeypatch, c_model):
    # the scan reports its second grid's own row: no third, lone-alpha solve
    calls, lsq = [], charmfit._lsq

    def counted(A, y):
        calls.append(len(A))
        return lsq(A, y)

    monkeypatch.setattr(charmfit, "_lsq", counted)
    fit(bundled_dataset, "scan", c_model)
    assert len(calls) == 2 and calls[0] == 121, calls  # 0.60-0.72 by 1e-3
    fit(bundled_dataset, 0.68, c_model)
    assert calls[2:] == [1]


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


@pytest.mark.parametrize("size", [1, 2, 7, 121, 1201])
@pytest.mark.parametrize("c_model", ["c0", "c1", "c2"])
def test_each_grid_row_is_bitwise_its_lone_alpha_solve(bundled_dataset,
                                                       c_model, size):
    # the scan picks its optimum on a grid and reports the lone-alpha fit
    # there: both must be one number.  A lone alpha is solved as two equal
    # columns; a length-1 alpha axis would let numpy sum the state axis in
    # its pairwise order instead of row by row
    states = sorted(bundled_dataset, key=lambda s: (s.j, s.m))
    grid = np.linspace(0.41, 1.5, size) if size > 1 else [0.68111]
    p, res = charmfit._solve(states, grid, c_model)
    for a, p_a, res_a in zip(grid, p, res):
        p1, res1 = charmfit._solve(states, [a], c_model)
        assert (p1[0].tobytes(), res1[0].tobytes()) == (p_a.tobytes(),
                                                        res_a.tobytes()), a


@pytest.mark.parametrize("c_model", ["c0", "c1", "c2"])
def test_solve_matches_a_50_digit_oracle(bundled_dataset, c_model):
    # the exact least squares of the double A and y, from the normal
    # equations at 50 digits, and the condition bound ||R||_F ||R^-1||_F with
    # R the Cholesky factor of A^T A: its diagonal is positive, as that of
    # the Gram-Schmidt R (a Householder R has free signs)
    states = sorted(bundled_dataset, key=lambda s: (s.j, s.m))
    alphas = [0.41, 0.6, 0.68111, 1.0, 1.5]
    A = charmfit._design_matrix([(s.j, s.m) for s in states], alphas, c_model)
    y = np.array([s.mass_exp for s in states])
    p, cond = charmfit._lsq(A, y)
    assert p.shape == (5, 6) and cond.shape == (5,)
    with mp.workdps(50):
        for a, A_a, p_a, cond_a in zip(alphas, A, p, cond):
            M = mp.matrix(A_a.tolist())
            G = M.T * M
            ref = mp.lu_solve(G, M.T * mp.matrix(y.tolist()))
            R = mp.cholesky(G).T
            ref_cond = mp.mnorm(R, "f") * mp.mnorm(mp.inverse(R), "f")
            for k in range(6):
                assert abs(p_a[k] - ref[k]) <= 1e-12 * abs(ref[k]), (a, k)
            assert abs(cond_a - ref_cond) <= 1e-10 * ref_cond, a


_ALL_JM = [(j, m) for j in range(6) for m in range(j + 1)]


@pytest.mark.parametrize("c_model", ["c0", "c1", "c2"])
def test_design_rows_equal_scalar_eigenvalues(c_model):
    # the dense grid: 8,407 exponents at 1,201 alphas, where np.exp would
    # differ from the scalar math.exp in the last bit
    for alphas in ([0.41, 0.6, 0.647, 2.0 / 3.0, 0.681, 0.7213, 1.0, 1.37],
                   np.linspace(0.41, 1.5, 1201).tolist()):
        A = charmfit._design_matrix(_ALL_JM, alphas, c_model)
        assert A.shape == (len(alphas), len(_ALL_JM), 6)
        for a, rows in zip(alphas, A):
            for (j, m), row in zip(_ALL_JM, rows):
                lz = lz_eigenvalue(a, m) if m > 0 else 0.0
                ref = [1.0, j2_eigenvalue(a, j, c_model),
                       lz if j == 1 else 0.0, lz if j == 2 else 0.0,
                       lz if j == 3 else 0.0, 1.0 if j == 3 else 0.0]
                assert row.tolist() == ref, (a, j, m)


@pytest.mark.parametrize("where", [0, 60, 120])
@pytest.mark.parametrize("bad", [math.nan, 0.0, -0.5, 1.5000000000000002,
                                 math.inf])
def test_design_matrix_names_the_first_bad_alpha(bad, where):
    # one array test on the batch, then _check_alpha's message for the
    # first value that fails it
    alphas = np.linspace(0.41, 1.5, 121)
    alphas[where] = bad
    if where < 120:
        alphas[-1] = 7.0  # a later bad value is not the one named
    with pytest.raises(ValueError, match=re.escape(
            f"alpha must be in (0, 1.5], got {bad:g}")):
        charmfit._design_matrix(_ALL_JM, alphas, "c0")


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
    alpha, the published mean-absolute objective, the same two grids as
    fit(): step `step` over [lo, hi], then step 1e-5 over the bracket of the
    coarse minimum, rounded to 6 decimals, the first minimum on ties."""
    y = np.array([s.mass_exp for s in states])
    published = np.array([(s.j, s.m) != (3, 3) for s in states])

    def solve(a):
        A = np.array([[1.0, j2_eigenvalue(a, s.j, c_model),
                       *[lz_eigenvalue(a, s.m) if (s.j == jb and s.m > 0)
                         else 0.0 for jb in (1, 2, 3)],
                       1.0 if s.j == 3 else 0.0] for s in states])
        p = np.linalg.lstsq(A, y, rcond=None)[0]
        return p, A @ p - y

    def first_min(grid):
        return int(np.argmin([np.mean(np.abs(solve(float(a))[1][published]))
                              for a in grid]))

    grid = np.arange(lo, hi + 0.5 * step, step)
    i = first_min(grid)
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    fine = np.round(np.arange(a, b + 0.5e-5, 1e-5), 6)
    best = float(fine[first_min(fine)])
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


@pytest.mark.parametrize("c_model", ["c0", "c1", "c2"])
def test_scan_optimum_does_not_depend_on_the_step(bundled_dataset, c_model):
    # golden section on the kinked mean-absolute objective gave c0 0.68109,
    # 0.681131 and 0.681115 at these three steps
    states = sorted(bundled_dataset, key=lambda s: (s.j, s.m))
    fits = [fit(bundled_dataset, "scan", c_model, scan_step=step)
            for step in (1e-3, 3e-4, 1e-4)]
    alpha = fits[0].params.alpha
    assert [f.params.alpha for f in fits] == [alpha] * 3
    # a minimum on the 1e-5 grid: no larger than at either neighbour
    near = [round(alpha + d, 6) for d in (0.0, -1e-5, 1e-5)]
    obj = charmfit._metrics(states, charmfit._solve(states, near, c_model)[1])
    at, below, above = obj["dm_published_abs"]
    assert at <= below and at <= above
    # the scan result is the fixed-alpha fit at that alpha, key for key
    assert fit(bundled_dataset, alpha, c_model) == fits[0]


def _scan_with_every_metric(dataset, c_model, step):
    """fit's alpha scan with the full `_metrics` on every row of both grids,
    and the length of its second grid."""
    states = sorted(dataset, key=lambda s: (s.j, s.m))
    objective = lambda res: charmfit._metrics(states, res)["dm_published_abs"]
    grid = np.arange(0.60, 0.72 + 0.5 * step, step)
    i = int(np.argmin(objective(charmfit._solve(states, grid, c_model)[1])))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    alphas = np.round(np.arange(lo, hi + 0.5e-5, 1e-5), 6)
    p, res = charmfit._solve(states, alphas, c_model)
    k = int(np.argmin(objective(res)))
    a, res = float(alphas[k]), res[k:k + 1]
    diag = {**{name: float(v[0]) for name, v in
               charmfit._metrics(states, res).items()},
            "alpha": a, "c_model": c_model, "objective": "dm_published_abs"}
    return len(alphas), charmfit.FitResult(
        FitParams(*p[k].tolist(), alpha=a, c_model=c_model),
        {(s.j, s.m): float(r) for s, r in zip(states, res[0])}, diag)


@pytest.mark.parametrize("step", [1e-3, 4.6e-4, 1e-4])
@pytest.mark.parametrize("c_model", ["c0", "c1", "c2"])
def test_scan_by_the_objective_alone_is_the_full_metric_scan(bundled_dataset,
                                                             c_model, step):
    # the grids are scored by dm_published_abs alone: params, residuals and
    # diagnostics keep every bit, and the second grid holds the
    # 2 scan_step/1e-5 + 1 alphas fit's docstring states
    n, ref = _scan_with_every_metric(bundled_dataset, c_model, step)
    assert repr(fit(bundled_dataset, "scan", c_model, scan_step=step)) \
        == repr(ref)
    assert n == round(2 * step / 1e-5) + 1


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


@pytest.mark.parametrize("kwargs", [{"dataset": "bundled"},
                                    {"with_interval": True}],
                         ids=["dataset-alone", "interval-alone"])
def test_predict_refuses_what_it_would_ignore(bundled_dataset, kwargs):
    # the <50> prediction has no interval: the dataset went unread, and
    # with_interval=True returned a bare float where callers unpack a pair
    if "dataset" in kwargs:
        kwargs = {"dataset": bundled_dataset}
    with pytest.raises(ValueError, match="with_interval=True and a dataset"):
        predict(TABLE2_ROWS[1], 5, 0, **kwargs)


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
    for fn in (radius_sphere, radius_box)
    # n = 64 at 2/3: the CLI's default, where the sphere sums 41 of 65 terms
    for alpha, n in ((2.0 / 3.0, 7), (2.0 / 3.0, 16), (1.0, 7), (1.0, 16),
                     (2.0 / 3.0, 64))
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


def _octant_exact(fn, alpha, n_nodes, sigma=2452.2):
    """(size, <r>) of radius_box or radius_sphere from the whole n^3/6-point
    arrays W and W sqrt(G), built slab by slab with the cubature's roundings
    and series sizing, each summed exactly by math.fsum."""
    e0 = sigma - (2.0 * QUARKS.m_d_c2 + QUARKS.m_c_c2)
    if fn is radius_box:
        k0 = find_zeros("cos", alpha, 1, 8.0, xtol=1e-12)[0] * HALF_PI
        factor = 1.5
    else:
        ground = radial_ground(3, alpha)
        k0, factor = ground.first_zero, 0.5
    X = (e0 / (factor * QUARKS.m_c_c2)) ** (1.0 / (2.0 * alpha))
    size = charmfit.HBARC_MEV_FM * k0 / (QUARKS.m_c_c2 * X)
    xs, ws = np.polynomial.legendre.leggauss(n_nodes)
    u, w = 0.5 * size * (xs + 1.0), ws / ws.sum()
    if fn is radius_box:
        w = w * frac_cos(alpha, k0 * u / size) ** 2
    R = np.abs(u) ** (2.0 * alpha)
    j, i = np.tril_indices(n_nodes)
    pair_R, pair_w, diag = R[i] + R[j], w[i] * w[j], i == j
    G, W = [], []
    for k in range(n_nodes):
        d, m = k * (k + 1) // 2, (k + 1) * (k + 2) // 2
        G.append(pair_R[:m] + R[k])
        W.append(pair_w[:d] * np.where(diag[:d], 3.0, 6.0) * w[k])
        W.append(pair_w[d:m] * np.where(diag[d:m], 1.0, 3.0) * w[k])
    G, W = np.concatenate(G), np.concatenate(W)
    if fn is radius_sphere:
        W = W * ground.g_of_rho((k0 / size) ** (2.0 * alpha) * G) ** 2
    prefactor = ((charmfit.HBARC_MEV_FM / QUARKS.m_c_c2) ** (1.0 - alpha)
                 / charmfit.gamma(1.0 + alpha))
    return size, prefactor * math.fsum(W * np.sqrt(G)) / math.fsum(W)


# n = 28 and 29 straddle the Horner sum's 4,096-point rule change; at 74 a
# block boundary would leave 2,775 points, at 75 it leaves 5,625; 96 and up
# take three or more blocks
@pytest.mark.parametrize("n_nodes", [1, 5, 28, 29, 64, 74, 75, 96, 128, 200])
@pytest.mark.parametrize("alpha", [0.55, 2.0 / 3.0, 1.0, 1.5])
def test_cubature_sums_within_3_ulps_of_the_exact_sums(alpha, n_nodes):
    for fn in (radius_box, radius_sphere):
        size, r = fn(2452.2, QUARKS, alpha, n_nodes=n_nodes)
        exact_size, exact = _octant_exact(fn, alpha, n_nodes)
        assert size == exact_size
        assert abs(r - exact) <= 3 * math.ulp(exact), (fn.__name__, r, exact)


@pytest.mark.parametrize("fn", [radius_box, radius_sphere])
def test_cubature_memory_does_not_grow_with_the_point_count(fn):
    # numpy reports its buffers to tracemalloc; one n^3/6-point array of
    # doubles at n = 200 alone is 10 MiB
    tracemalloc.start()
    try:
        fn(2452.2, QUARKS, 2.0 / 3.0, n_nodes=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


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


def test_radius_searches_each_first_zero_once_per_alpha(monkeypatch):
    # the box's cos zero and the sphere's radial ground state are searched
    # once per alpha, whatever the sigma mass and node count, and the kept
    # values give the bits of a fresh search
    calls = []
    for name in ("find_zeros", "radial_ground"):
        def spy(*args, search=getattr(charmfit, name), name=name, **kwargs):
            calls.append(name)
            return search(*args, **kwargs)

        monkeypatch.setattr(charmfit, name, spy)
    runs = [(fn, sigma, n) for fn in (radius_box, radius_sphere)
            for sigma in (2441.3, 2452.2, 2467.9) for n in (16, 40)]
    charmfit._ground.cache_clear()
    kept = [fn(sigma, QUARKS, 2.0 / 3.0, n_nodes=n) for fn, sigma, n in runs]
    radius_box(2452.2, QUARKS, np.float64(2.0 / 3.0), n_nodes=16)
    assert calls == ["find_zeros", "radial_ground"]
    fresh = []
    for fn, sigma, n in runs:
        charmfit._ground.cache_clear()
        fresh.append(fn(sigma, QUARKS, 2.0 / 3.0, n_nodes=n))
    assert len(calls) == 2 + len(runs)
    assert repr(kept) == repr(fresh)


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
