"""Deformed angular-momentum spectra and the printed-table reproduction."""

import math

import mpmath as mp
import numpy as np
import pytest

from fracspec.angular import (
    TABLE1_PRINTED,
    c_value,
    euler_eigenvalue,
    j2_eigenvalue,
    lz_eigenvalue,
    table1_report,
)


# --- commutator-constant models --------------------------------------------------


def test_c0_is_one():
    assert c_value("c0", 0.7) == 1.0


def test_c1_limit_alpha_one():
    assert c_value("c1", 1.0) == pytest.approx(1.0, abs=1e-12)


def test_c1_reflection_formula_value():
    # c1 = 1 - sin(pi a)/(pi a); at 0.647 this is 0.55956..., not the
    # published table's 0.545 (recorded discrepancy, not silently matched)
    a = 0.647
    expected = 1.0 - math.sin(math.pi * a) / (math.pi * a)
    got = c_value("c1", a)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.5595586701316777, rel=1e-12)
    assert abs(got - 0.545) > 0.01


def test_c2_classical():
    assert c_value("c2", 1.0, 1) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("call", [
    lambda: c_value("c3", 0.7),
    lambda: c_value("c2", 0.7, 0),
    lambda: c_value("c1", 0.0),
    lambda: j2_eigenvalue(0.7, 2, "c3"),
    # the l(alpha, 0) = 0 shortcut does not skip the variant check
    lambda: j2_eigenvalue(0.7, 0, "c3"),
], ids=["c3", "c2_j0", "c1_alpha0", "j2_c3", "j2_c3_j0"])
def test_commutator_model_validation(call):
    with pytest.raises(ValueError):
        call()


def test_c2_is_euler_step():
    # c2(j, a) telescopes to l(a, j+1) - l(a, j)
    for a in (0.65, 0.8, 1.1):
        for j in (1, 2, 4):
            got = c_value("c2", a, j)
            assert got == pytest.approx(
                euler_eigenvalue(a, j + 1) - euler_eigenvalue(a, j), rel=1e-10)


# --- Euler-operator eigenvalues ----------------------------------------------------


def test_euler_zero_and_classical():
    for a in (0.6, 0.8, 1.0, 1.2):
        assert euler_eigenvalue(a, 0) == 0.0
        assert euler_eigenvalue(a, 1) == pytest.approx(1.0, rel=1e-12)
    for n in range(7):
        assert euler_eigenvalue(1.0, n) == pytest.approx(float(n), abs=1e-12)


def _euler_mp(alpha, n):
    with mp.workdps(50):
        a = mp.mpf(alpha)
        return mp.gamma(n * a + 1) / (mp.gamma((n - 1) * a + 1)
                                      * mp.gamma(a + 1))


def test_euler_against_mpmath():
    for a in np.linspace(0.41, 1.5, 23):
        for n in range(1, 31):
            ref = _euler_mp(float(a), n)
            assert euler_eigenvalue(float(a), n) == pytest.approx(
                float(ref), rel=1e-12)


def test_euler_no_overflow_at_large_n_alpha():
    # Gamma(n alpha + 1) alone overflows a double beyond n alpha ~ 170
    assert euler_eigenvalue(1.0, 200) == pytest.approx(200.0, rel=1e-12)
    assert euler_eigenvalue(0.68, 300) == pytest.approx(
        float(_euler_mp(0.68, 300)), rel=1e-12)


def test_euler_printed_values():
    assert euler_eigenvalue(2.0 / 3.0, 2) == pytest.approx(1.460998, abs=1e-4)
    assert euler_eigenvalue(0.68, 2) == pytest.approx(1.478157, abs=1e-4)
    assert euler_eigenvalue(0.68, 6) == pytest.approx(2.953417, abs=1e-4)


def test_euler_increasing_sublinear():
    for a in (0.6, 0.68, 0.9, 1.2):
        l = [euler_eigenvalue(a, n) for n in range(8)]
        assert all(x < y for x, y in zip(l, l[1:]))
    for a in (0.6, 0.68, 0.9):
        l = [euler_eigenvalue(a, n) for n in range(8)]
        steps = np.diff(l)
        assert all(s2 < s1 for s1, s2 in zip(steps[1:], steps[2:]))


def test_lz_negative_projection_flagged():
    for m in (-1, -2):
        with pytest.raises(ValueError):
            lz_eigenvalue(0.7, m)


# --- J^2 ----------------------------------------------------------------------------


def test_j2_zero_at_j0():
    for variant in ("c0", "c1", "c2"):
        for a in (0.65, 0.8, 1.0):
            assert j2_eigenvalue(a, 0, variant) == 0.0


def test_j2_printed_values():
    assert j2_eigenvalue(0.68, 2, "c0") == pytest.approx(3.663108, abs=1e-4)
    assert j2_eigenvalue(2.0 / 3.0, 3, "c0") == pytest.approx(
        5.323069, abs=1e-4)


def test_j2_classical_collapse():
    for j in range(7):
        assert j2_eigenvalue(1.0, j, "c0") == pytest.approx(
            j * (j + 1.0), abs=1e-12)


def test_j2_nonnegative():
    for variant in ("c0", "c1", "c2"):
        for a in (0.6, 0.68, 0.9, 1.1):
            for j in range(7):
                assert j2_eigenvalue(a, j, variant) >= 0.0


# --- the printed table ---------------------------------------------------------------


def test_table1_clean_columns_match():
    rows = table1_report()
    for col in ("lz_23", "lz_068", "j2c0_1", "j2c0_23", "j2c0_068"):
        for r in rows:
            assert abs(r[f"{col}_dev"]) <= 1e-4, (col, r["n"])


def test_table1_tension_columns_reported_not_forced():
    # the two rightmost printed columns do not follow from the formulas at
    # alpha=0.65; the report must carry finite deviations for them
    rows = table1_report()
    devs1 = [abs(r["j2c1_065_dev"]) for r in rows]
    devs2 = [abs(r["j2c2_065_dev"]) for r in rows]
    assert all(np.isfinite(devs1)) and all(np.isfinite(devs2))
    assert max(devs1) > 1e-3
    assert max(devs2) > 1e-3


def test_table1_tension_columns_match_alpha_068():
    # direct evaluation shows the printed cells correspond to alpha = 0.68
    rows = table1_report()
    for r in rows[1:3]:
        n = r["n"]
        v1 = euler_eigenvalue(0.68, n) * (euler_eigenvalue(0.68, n)
                                          + c_value("c1", 0.68))
        assert v1 == pytest.approx(TABLE1_PRINTED["j2c1_065"][n], abs=2e-4)
        v2 = euler_eigenvalue(0.68, n) * euler_eigenvalue(0.68, n + 1)
        assert v2 == pytest.approx(TABLE1_PRINTED["j2c2_065"][n], abs=2e-4)


def test_table1_row_count_and_keys():
    rows = table1_report()
    assert len(rows) == 7
    assert rows[3]["lz_1"] == pytest.approx(3.0, abs=1e-12)
    assert "j2c1_065_printed" in rows[0]
