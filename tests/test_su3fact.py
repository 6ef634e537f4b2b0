"""Phase triad, extended Clifford algebra, triple factorization, and the
twofold-iterated operator structure."""

import numpy as np
import pytest

from fracspec.su3fact import (
    ALPHA_I,
    ALPHA_T,
    B_SCALAR,
    PHASES,
    build_factors,
    build_gamma,
    build_sigma,
    clifford_check,
    s2_structure,
    triple_product_check,
)


def test_phase_identities():
    x1, x2, x3 = PHASES
    assert abs(x1 + x2 + x3) < 1e-15
    for x in PHASES:
        assert abs(x**3 - 1.0) < 1e-15


def test_sigma_unitary_traceless():
    for s in build_sigma():
        assert abs(np.trace(s)) < 1e-14
        assert np.allclose(s @ s.conj().T, np.eye(3), atol=1e-14)


def test_sigma3_cubed_identity():
    _, _, s3 = build_sigma()
    assert np.allclose(np.linalg.matrix_power(s3, 3), np.eye(3), atol=1e-14)


def test_sigma1_cubed_identity():
    s1, _, _ = build_sigma()
    assert np.allclose(np.linalg.matrix_power(s1, 3), np.eye(3), atol=1e-14)


def test_clifford_all_27_triples():
    reports = clifford_check()
    assert len(reports) == 27
    assert all(r["pass"] for r in reports)
    assert max(r["max_abs_deviation"] for r in reports) <= 1e-12


def test_gamma_structure():
    g0, gi = build_gamma()
    # diagonal with unit-modulus entries
    assert np.allclose(g0, np.diag(np.diag(g0)), atol=1e-15)
    assert np.allclose(np.abs(np.diag(g0)), 1.0, atol=1e-14)
    for g in gi:
        assert np.allclose(g @ g.conj().T, np.eye(9), atol=1e-13)
        # permutation-phase structure: one nonzero entry per row
        assert np.all(np.sum(np.abs(g) > 1e-12, axis=1) == 1)


def test_a_family_sum():
    # A + A' + A'' = sqrt(3) gamma^0 since the phases sum to zero
    R, Rp, Rpp = build_factors()
    g0, _ = build_gamma()
    s = R[(1, 0, 0, 0)] + Rp[(1, 0, 0, 0)] + Rpp[(1, 0, 0, 0)]
    assert np.allclose(s, np.sqrt(3.0) * g0, atol=1e-13)


def test_b_matrices_are_gammas():
    R, Rp, Rpp = build_factors()
    _, gi = build_gamma()
    for poly in (R, Rp, Rpp):
        for i in range(3):
            key = [0, 0, 0, 0]
            key[1 + i] = 1
            assert np.allclose(poly[tuple(key)], gi[i], atol=1e-15)


def test_c_family_diagonal_blocks():
    R, Rp, Rpp = build_factors()
    s = R[(0, 0, 0, 0)] + Rp[(0, 0, 0, 0)] + Rpp[(0, 0, 0, 0)]
    # one nonzero phase per 3x3 block row; the sum is diagonal unit-modulus
    assert np.allclose(s, np.diag(np.diag(s)), atol=1e-15)
    assert np.allclose(np.abs(np.diag(s)), 1.0, atol=1e-14)


def test_triple_product_collapses():
    rep = triple_product_check()
    assert rep["pass"]
    assert rep["max_abs_deviation"] <= 1e-12
    mono = {tuple([c["monomial"]["n_t"]] + c["monomial"]["n_x"]): c
            for c in rep["monomials"]}
    assert mono[(2, 0, 0, 0)]["expected"] == "identity"
    for i in range(3):
        key = [0, 0, 0, 0]
        key[1 + i] = 3
        assert mono[tuple(key)]["expected"] == "identity"
    # mixed space monomial has zero coefficient
    assert mono[(0, 1, 1, 1)]["expected"] == "zero"
    assert mono[(0, 1, 1, 1)]["pass"]


def test_triple_product_exponent_identities_exact():
    rep = triple_product_check()
    assert rep["exponent_identities"]["pass"]
    assert 2 * ALPHA_T == 1
    assert 3 * ALPHA_I == 2


def test_triple_product_surviving_scalars():
    rep = triple_product_check()
    a2c = complex(*rep["surviving_scalars"]["a2c"])
    assert a2c == pytest.approx(-1j)  # -i hbar in internal units
    assert rep["surviving_scalars"]["b3"] == pytest.approx(-0.5)


def test_s2_time_part_and_remainder():
    rep = s2_structure()
    assert rep["time_coefficient"]["pass"]
    assert rep["space_matrices"]["pass"]
    assert rep["remainder"]["nonzero"]
    assert rep["pass"]


def test_s2_space_scalar_reported_against_printed():
    # derived b^2 c = +(1/2)^(2/3); the printed prefactor -(1/2)^(4/3) does
    # not follow from the printed scalars -- the deviation is reported, not
    # forced
    rep = s2_structure()
    assert rep["space_scalar"]["derived_b2c"] == pytest.approx(
        B_SCALAR**2, rel=1e-12)
    assert rep["space_scalar"]["derived_b2c"] == pytest.approx(
        0.5 ** (2.0 / 3.0), rel=1e-12)
    assert not rep["space_scalar"]["matches_printed"]
    assert abs(rep["space_scalar"]["deviation"]) > 0.1


def test_reports_deterministic():
    r1 = triple_product_check()
    r2 = triple_product_check()
    assert [c["monomial"] for c in r1["monomials"]] \
        == [c["monomial"] for c in r2["monomials"]]
    assert r1["max_abs_deviation"] == r2["max_abs_deviation"]
