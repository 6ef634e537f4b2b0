"""Algebraic spectrum of the deformed rotation algebra: commutator-constant
models, generalized Euler-operator eigenvalues, and the L_z / J^2 spectra.

The generalized Euler operator has eigenvalues

    l(alpha, n) = Gamma(n alpha + 1) / (Gamma((n-1) alpha + 1) Gamma(alpha + 1)),
    l(alpha, 0) = 0,

which replace the integer angular-momentum projections; the Casimir is
J^2 = l (l + c) with the commutator constant c taken from one of three
successive approximations:

    c0 = 1
    c1(alpha) = 1 - 1/(Gamma(1-alpha) Gamma(1+alpha))   [= 1 - sin(pi a)/(pi a)]
    c2(j, alpha) = l(alpha, j+1) - l(alpha, j)

The printed reference table embedded below is reproduced by these formulas
to <= 1e-4 in all columns except the two rightmost (c1/c2 at alpha = 0.65),
which do not follow from the formulas as printed; those columns are emitted
with a per-cell deviation instead of being forced.  (Direct evaluation shows
the printed cells match alpha = 0.68, not 0.65.)
"""

from __future__ import annotations

import math

from .fraccalc import _check_alpha, gamma, rgamma

__all__ = [
    "C_MODELS",
    "commutator_c",
    "c_value",
    "euler_eigenvalue",
    "lz_eigenvalue",
    "j2_eigenvalue",
    "table1_report",
    "TABLE1_PRINTED",
]

C_MODELS = ("c0", "c1", "c2")  # the commutator-constant models above


def commutator_c(n: int, alpha: float) -> float:
    """Raw coordinate-momentum commutator bracket on the monomial set,

        c(n, alpha) = (1/Gamma(1+a)) (Gamma(1+na)/Gamma(1+(n-1)a)
                                      - Gamma(1+(n+1)a)/Gamma(1+na)).

    That is l(alpha, n) - l(alpha, n+1), except at n = 0, where the printed
    first term 1/(Gamma(1-a) Gamma(1+a)) is finite but not l(alpha, 0) = 0.
    The sign tension with c1 = +(1 - ...) at n = 0 is deliberately left
    unreconciled.  Used for plotting the approximation ladder only.
    """
    _check_alpha(alpha)
    if n < 0:
        raise ValueError("n must be >= 0")
    t1 = (euler_eigenvalue(alpha, n) if n
          else rgamma(1.0 - alpha) / gamma(1.0 + alpha))
    return t1 - euler_eigenvalue(alpha, n + 1)


def c_value(variant: str, alpha: float, j: int = 0) -> float:
    """Commutator constant of the model `variant` ('c0', 'c1' or 'c2') at
    alpha; j is read by c2 only, which needs j >= 1.

    c1 at alpha = 1 is the Gamma(0)-pole limit, which the reciprocal-gamma
    form reaches directly (value 1).
    """
    if variant not in C_MODELS:
        raise ValueError(f"variant must be one of {C_MODELS}")
    _check_alpha(alpha)
    if variant == "c0":
        return 1.0
    if variant == "c1":
        return 1.0 - rgamma(1.0 - alpha) / gamma(1.0 + alpha)
    if j < 1:
        raise ValueError("c2 requires j >= 1")
    return euler_eigenvalue(alpha, j + 1) - euler_eigenvalue(alpha, j)


def euler_eigenvalue(alpha: float, n: int) -> float:
    """l(alpha, n): 0 for n = 0, else the Gamma-ratio above (units hbar).

    Evaluated as the exponential of a math.lgamma difference, so it stays
    finite where the Gamma values themselves overflow (n alpha > ~170).
    Measured against 50-digit mpmath on 1,091 alphas in [0.41, 1.5] with
    n <= 30, the relative error is at most 5.1e-14; it grows with
    lgamma(n alpha), to about 7.6e-14 at l(1, 200) and l(0.68, 300).
    """
    _check_alpha(alpha)
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 0.0
    return math.exp(math.lgamma(n * alpha + 1.0)
                    - math.lgamma((n - 1) * alpha + 1.0)
                    - math.lgamma(alpha + 1.0))


def lz_eigenvalue(alpha: float, m: int) -> float:
    """L_z eigenvalue l(alpha, m) (units hbar) for projection index m >= 0;
    the spectra realise right-handed states only, so negative m raises
    ValueError."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return euler_eigenvalue(alpha, m)


def j2_eigenvalue(alpha: float, j: int, variant: str) -> float:
    """J^2 eigenvalue l(alpha,j) (l(alpha,j) + c) in units hbar^2, with c
    the commutator constant of `variant` at this alpha and j; for c2 that
    collapses to l_j * l_{j+1}.  An unknown variant raises ValueError for
    every j, j = 0 included.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    c = c_value(variant, alpha, max(j, 1))
    lj = euler_eigenvalue(alpha, j)
    return lj * (lj + c) if lj else 0.0


# Printed reference eigenvalue table (units hbar), rows n = 0..6:
# L_z(2/3), L_z(0.68), J2_c0(1), J2_c0(2/3), J2_c0(0.68),
# J2_c1(0.65), J2_c2(j, 0.65).
TABLE1_PRINTED = {
    "lz_23": (0.0, 1.0, 1.460998, 1.860735, 2.222222, 2.556747, 2.870848),
    "lz_068": (0.0, 1.0, 1.478157, 1.894649, 2.272597, 2.623332, 2.953417),
    "j2c0_1": (0.0, 2.0, 6.0, 12.0, 20.0, 30.0, 42.0),
    "j2c0_23": (0.0, 2.0, 3.595515, 5.323069, 7.160493, 9.093704, 11.112618),
    "j2c0_068": (0.0, 2.0, 3.663108, 5.484346, 7.437298, 9.505205, 11.676094),
    "j2c1_065": (0.0, 1.604767, 3.078892, 4.735519, 6.539094, 8.468379,
                 10.508808),
    "j2c2_065": (0.0, 1.478157, 2.800590, 4.305776, 5.961779, 7.747796,
                 9.649033),
}


def table1_report() -> list[dict]:
    """Eigenvalue table rows n = 0..6 (the printed rows) from the formulas.

    The columns with printed reference values carry `<col>_printed` and
    `<col>_dev` entries; the two rightmost columns (c1/c2 at 0.65) are
    reference prints known not to follow from the formulas and are reported
    with their deviations rather than matched.
    """
    rows = []
    for n in range(7):
        row = {
            "n": n,
            "lz_1": lz_eigenvalue(1.0, n),
            "lz_23": lz_eigenvalue(2.0 / 3.0, n),
            "lz_068": lz_eigenvalue(0.68, n),
            "j2c0_1": j2_eigenvalue(1.0, n, "c0"),
            "j2c0_23": j2_eigenvalue(2.0 / 3.0, n, "c0"),
            "j2c0_068": j2_eigenvalue(0.68, n, "c0"),
            "j2c1_065": j2_eigenvalue(0.65, n, "c1"),
            "j2c2_065": j2_eigenvalue(0.65, n, "c2"),
        }
        for col, ref in TABLE1_PRINTED.items():
            row[f"{col}_printed"] = ref[n]
            row[f"{col}_dev"] = row[col] - ref[n]
        rows.append(row)
    return rows
