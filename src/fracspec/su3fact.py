"""Triple factorization of the ordinary Schroedinger operator and the
attached SU(3) structure: phase triad, extended Clifford algebra of the
Pauli-type matrices, the 9x9 factor matrices, the formal triple product

    R R' R'' = a^2 c d_t^(2 alpha_t) 1_9 + b^3 sum_i d_i^(3 alpha_i) 1_9,

and the coefficient structure of the twofold-iterated operator c R R'.

Internally hbar = m = c = 1.  The scalar a = (-i hbar)^(1/2) (1/mc^2)^(1/6)
has a branch-ambiguous fractional power, so a itself is never materialised:
only a^2 (= -i here) and the real scalars b, c enter any reported value;
monomials whose implied scalar would carry an odd power of `a` are verified
to have a vanishing matrix coefficient, where the branch is irrelevant.

Formal derivative symbols commute with everything; matrix order is
preserved.  A product monomial is keyed by the integer factor counts
(n_t, n_1, n_2, n_3), with exponents n_t alpha_t and n_i alpha_i; the
exponent identities 2 alpha_t = 1 and 3 alpha_i = 2 are checked in exact
rational arithmetic.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

__all__ = [
    "PHASES",
    "ALPHA_T",
    "ALPHA_I",
    "build_sigma",
    "build_gamma",
    "clifford_check",
    "build_factors",
    "triple_product_check",
    "s2_structure",
]

ALPHA_T = Fraction(1, 2)
ALPHA_I = Fraction(2, 3)

TOL = 1e-12  # largest absolute deviation a check passes with

# scalar combinations with hbar = m = c = 1
A_SQUARED = -1j          # a^2 = -i hbar (1/mc^2)^(1/3)
B_SCALAR = -0.5 ** (1.0 / 3.0)   # b = -(hbar^2 / 2m)^(1/3), real
C_SCALAR = 1.0           # c = (mc^2)^(1/3)


_HALF_SQRT3 = math.sqrt(3.0) / 2.0

# Cube-root phases x_k = exp(2 pi i k / 3), k = 1, 2, 3 (exact half-integer
# real parts, so the zero-sum identity holds to rounding).
PHASES = (complex(-0.5, _HALF_SQRT3), complex(-0.5, -_HALF_SQRT3),
          complex(1.0, 0.0))


def build_sigma() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unitary traceless 3x3 triad spanning the SU(3) subspace."""
    x1, x2, x3 = PHASES
    s1 = np.array([[0, x1, 0], [0, 0, x2], [x3, 0, 0]], dtype=complex)
    s2 = np.array([[0, x2, 0], [0, 0, x1], [x3, 0, 0]], dtype=complex)
    s3 = np.array([[x1, 0, 0], [0, x2, 0], [0, 0, x3]], dtype=complex)
    return s1, s2, s3


def build_gamma() -> tuple[np.ndarray, list[np.ndarray]]:
    """gamma^0 = 1_3 (x) sigma^3 and gamma^i = sigma^i (x) sigma^1 (9x9)."""
    s1, s2, s3 = build_sigma()
    g0 = np.kron(np.eye(3), s3)
    gi = [np.kron(s, s1) for s in (s1, s2, s3)]
    return g0, gi


def clifford_check() -> list[dict]:
    """Verify sum over all permutations of sigma^i sigma^j sigma^k
    = 6 delta^{ijk} 1_3 for all 27 index triples: one report
    {check_name, max_abs_deviation, pass} per triple."""
    sigmas = build_sigma()
    reports = []
    for i, j, k in itertools.product(range(3), repeat=3):
        acc = sum(sigmas[p] @ sigmas[q] @ sigmas[r]
                  for p, q, r in itertools.permutations((i, j, k)))
        target = 6.0 * np.eye(3) if i == j == k else np.zeros((3, 3))
        dev = float(np.max(np.abs(acc - target)))
        reports.append({"check_name": f"clifford_{i + 1}{j + 1}{k + 1}",
                        "max_abs_deviation": dev, "pass": dev <= TOL})
    return reports


def _mul(p: dict, q: dict) -> dict:
    """Product of polynomials {(n_t, n_1, n_2, n_3): 9x9 matrix} in the
    commuting derivative symbols; scalars a, b, c stay implied by the counts."""
    out: dict = {}
    for k1, m1 in p.items():
        for k2, m2 in q.items():
            key = tuple(a + b for a, b in zip(k1, k2))
            prod = m1 @ m2
            out[key] = out[key] + prod if key in out else prod
    return out


def build_factors() -> tuple[dict, dict, dict]:
    """The three first-order factors R, R', R'' as `_mul` polynomials.

    A-family: (gamma^0 - x_k 1_9)/sqrt(3); B-family: gamma^i for every
    factor; C-family: x_k 1_3 (x) E_kk (units fixed internally).
    """
    g0, gi = build_gamma()
    eye9 = np.eye(9)
    return tuple({(1, 0, 0, 0): (g0 - xk * eye9) / math.sqrt(3.0),
                  (0, 0, 0, 0): xk * np.kron(np.eye(3), np.diag(np.eye(3)[k])),
                  (0, 1, 0, 0): gi[0], (0, 0, 1, 0): gi[1], (0, 0, 0, 1): gi[2]}
                 for k, xk in enumerate(PHASES))


def triple_product_check() -> dict:
    """Expand R R' R'' and verify it collapses to the two claimed monomials.

    Expected: the d_t^(2 alpha_t) coefficient and each d_i^(3 alpha_i)
    coefficient equal 1_9 (with implied scalars a^2 c and b^3); every other
    monomial's matrix coefficient vanishes.  The exponent identities
    2 alpha_t = 1 and 3 alpha_i = 2 are exact by rational arithmetic.
    """
    R, Rp, Rpp = build_factors()
    P = _mul(_mul(R, Rp), Rpp)
    # the identity at n_t = 2 (scalar a^2 c = -i hbar) and n_i = 3 (b^3 = -hbar^2/2m)
    identity = {(2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)}
    checks = []
    for key, mat in sorted(P.items()):
        dev = float(np.max(np.abs(mat - (np.eye(9) if key in identity else 0.0))))
        # one scalar per factor: a per d_t, b per d_i, c per constant factor
        na, nb = key[0], sum(key[1:])
        checks.append({"monomial": {"n_t": key[0], "n_x": list(key[1:])},
                       "scalar_powers": {"a": na, "b": nb, "c": 3 - na - nb},
                       "expected": "identity" if key in identity else "zero",
                       "max_abs_deviation": dev, "pass": dev <= TOL})
    exp_t, exp_i = 2 * ALPHA_T, 3 * ALPHA_I
    return {
        "monomials": checks,
        "surviving_scalars": {"a2c": [A_SQUARED.real * C_SCALAR,
                                      A_SQUARED.imag * C_SCALAR],
                              "b3": B_SCALAR**3},
        "exponent_identities": {
            "2*alpha_t": [exp_t.numerator, exp_t.denominator],
            "3*alpha_i": [exp_i.numerator, exp_i.denominator],
            "pass": exp_t == 1 and exp_i == 2,
        },
        "max_abs_deviation": max(c["max_abs_deviation"] for c in checks),
        "pass": all(c["pass"] for c in checks) and exp_t == 1 and exp_i == 2,
    }


# Printed prefactor of the space part of the twofold-iterated operator,
# -(1/2) (hbar/mc)^(4/3) mc^2 (1/2)^(1/3), in hbar = m = c = 1 units.  The
# value derived from the printed scalars is b^2 c = +(1/2)^(2/3); the
# comparison is reported, not forced.
S2_SPACE_PRINTED = -0.5 * 0.5 ** (1.0 / 3.0)


def s2_structure() -> dict:
    """Coefficient structure of the twofold-iterated operator c R R'.

    Extracts the d_t coefficient (should be -i hbar A A' entrywise), the
    nine d_i^(2/3) d_j^(2/3) coefficient matrices with their scalar b^2 c,
    and the remainder ("additional terms", expected nonzero).  The printed
    space prefactor is compared against the derived b^2 c and the deviation
    reported.
    """
    R, Rp, _ = build_factors()
    P2 = _mul(R, Rp)
    A, Ap = R[(1, 0, 0, 0)], Rp[(1, 0, 0, 0)]
    _, gi = build_gamma()

    # time part: coefficient of d_t^(2 alpha_t) = d_t, scaled by c
    time_mat = A_SQUARED * C_SCALAR * P2[(2, 0, 0, 0)]
    time_target = -1j * (A @ Ap)
    time_dev = float(np.max(np.abs(time_mat - time_target)))

    # space part: keys with two derivative factors; matrix should match the
    # sum of the distinct ordered gamma products
    space_dev = 0.0
    for i, j in itertools.combinations_with_replacement(range(3), 2):
        mat = P2[(0, *((i == n) + (j == n) for n in range(3)))]
        target = sum(gi[p] @ gi[q] for p, q in {(i, j), (j, i)})
        space_dev = max(space_dev, float(np.max(np.abs(mat - target))))

    b2c = B_SCALAR**2 * C_SCALAR
    remainder_norm = max((float(np.max(np.abs(mat))) for k, mat in P2.items()
                          if k != (2, 0, 0, 0) and sum(k[1:]) != 2), default=0.0)
    return {
        "time_coefficient": {"max_abs_deviation": time_dev, "pass": time_dev <= TOL},
        "space_matrices": {"max_abs_deviation": space_dev, "pass": space_dev <= TOL},
        "space_scalar": {"derived_b2c": b2c, "printed": S2_SPACE_PRINTED,
                         "deviation": b2c - S2_SPACE_PRINTED,
                         "matches_printed": abs(b2c - S2_SPACE_PRINTED) <= TOL},
        "remainder": {"max_abs_entry": remainder_norm, "nonzero": remainder_norm > TOL},
        "pass": time_dev <= TOL and space_dev <= TOL and remainder_norm > TOL,
    }
