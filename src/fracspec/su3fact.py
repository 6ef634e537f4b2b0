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

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "PHASES",
    "MatrixPoly",
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


def clifford_check(tol: float = 1e-12) -> list[dict]:
    """Verify sum over all permutations of sigma^i sigma^j sigma^k
    = 6 delta^{ijk} 1_3 for all 27 index triples: one report
    {check_name, max_abs_deviation, pass} per triple."""
    import itertools

    sigmas = build_sigma()
    reports = []
    for i, j, k in itertools.product(range(3), repeat=3):
        acc = np.zeros((3, 3), dtype=complex)
        for p in itertools.permutations((i, j, k)):
            acc = acc + sigmas[p[0]] @ sigmas[p[1]] @ sigmas[p[2]]
        target = 6.0 * np.eye(3) if i == j == k else np.zeros((3, 3))
        dev = float(np.max(np.abs(acc - target)))
        reports.append({"check_name": f"clifford_{i + 1}{j + 1}{k + 1}",
                        "max_abs_deviation": dev, "pass": dev <= tol})
    return reports


@dataclass(frozen=True)
class MatrixPoly:
    """Polynomial in the four commuting derivative symbols with 9x9 matrix
    coefficients.  Keys are integer factor counts (n_t, n_1, n_2, n_3); the
    number of constant (C-type) factors is nfactors - sum(key).  Scalars
    a, b, c are implied by the counts and never folded into the matrices.
    """

    terms: dict
    nfactors: int

    def __matmul__(self, other: "MatrixPoly") -> "MatrixPoly":
        out: dict = {}
        for k1, m1 in self.terms.items():
            for k2, m2 in other.terms.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                prod = m1 @ m2
                if key in out:
                    out[key] = out[key] + prod
                else:
                    out[key] = prod
        return MatrixPoly(terms=out, nfactors=self.nfactors + other.nfactors)

    def coefficient(self, key) -> np.ndarray:
        return self.terms.get(tuple(key), np.zeros((9, 9), dtype=complex))

    def scalar_counts(self, key) -> tuple[int, int, int]:
        """(n_a, n_b, n_c) implied by a monomial key."""
        nt = key[0]
        nb = key[1] + key[2] + key[3]
        return nt, nb, self.nfactors - nt - nb


def _factor(A: np.ndarray, Bs: list[np.ndarray], C: np.ndarray) -> MatrixPoly:
    terms = {(1, 0, 0, 0): A, (0, 0, 0, 0): C}
    for i, B in enumerate(Bs):
        key = [0, 0, 0, 0]
        key[1 + i] = 1
        terms[tuple(key)] = B
    return MatrixPoly(terms=terms, nfactors=1)


def build_factors() -> tuple[MatrixPoly, MatrixPoly, MatrixPoly]:
    """The three first-order factors R, R', R'' as matrix polynomials.

    A-family: (gamma^0 - x_k 1_9)/sqrt(3); B-family: gamma^i for every
    factor; C-family: x_k 1_3 (x) E_kk (units fixed internally).
    """
    g0, gi = build_gamma()
    eye9 = np.eye(9)
    A_fam = [(g0 - xk * eye9) / math.sqrt(3.0) for xk in PHASES]
    proj = [np.zeros((3, 3)) for _ in range(3)]
    for k in range(3):
        proj[k][k, k] = 1.0
    C_fam = [PHASES[k] * np.kron(np.eye(3), proj[k]) for k in range(3)]
    return tuple(_factor(A_fam[k], gi, C_fam[k]) for k in range(3))


def triple_product_check(tol: float = 1e-12) -> dict:
    """Expand R R' R'' and verify it collapses to the two claimed monomials.

    Expected: the d_t^(2 alpha_t) coefficient and each d_i^(3 alpha_i)
    coefficient equal 1_9 (with implied scalars a^2 c and b^3); every other
    monomial's matrix coefficient vanishes.  The exponent identities
    2 alpha_t = 1 and 3 alpha_i = 2 are exact by rational arithmetic.
    """
    R, Rp, Rpp = build_factors()
    P = R @ Rp @ Rpp
    eye9 = np.eye(9)
    expected = {
        (2, 0, 0, 0): eye9,  # scalar a^2 c = -i hbar
        (0, 3, 0, 0): eye9,  # scalar b^3 = -hbar^2/2m
        (0, 0, 3, 0): eye9,
        (0, 0, 0, 3): eye9,
    }
    checks = []
    worst = 0.0
    for key in sorted(P.terms):
        mat = P.terms[key]
        target = expected.get(key, None)
        dev = float(np.max(np.abs(mat - (target if target is not None else 0.0))))
        worst = max(worst, dev)
        na, nb, nc = P.scalar_counts(key)
        checks.append({
            "monomial": {"n_t": key[0], "n_x": list(key[1:])},
            "scalar_powers": {"a": na, "b": nb, "c": nc},
            "expected": "identity" if target is not None else "zero",
            "max_abs_deviation": dev,
            "pass": dev <= tol,
        })
    exp_t = 2 * ALPHA_T
    exp_i = 3 * ALPHA_I
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
        "max_abs_deviation": worst,
        "pass": all(c["pass"] for c in checks) and exp_t == 1 and exp_i == 2,
    }


# Printed prefactor of the space part of the twofold-iterated operator,
# -(1/2) (hbar/mc)^(4/3) mc^2 (1/2)^(1/3), in hbar = m = c = 1 units.  The
# value derived from the printed scalars is b^2 c = +(1/2)^(2/3); the
# comparison is reported, not forced.
S2_SPACE_PRINTED = -0.5 * 0.5 ** (1.0 / 3.0)


def s2_structure(tol: float = 1e-12) -> dict:
    """Coefficient structure of the twofold-iterated operator c R R'.

    Extracts the d_t coefficient (should be -i hbar A A' entrywise), the
    nine d_i^(2/3) d_j^(2/3) coefficient matrices with their scalar b^2 c,
    and the remainder ("additional terms", expected nonzero).  The printed
    space prefactor is compared against the derived b^2 c and the deviation
    reported.
    """
    R, Rp, _ = build_factors()
    P2 = R @ Rp
    A, Ap = R.coefficient((1, 0, 0, 0)), Rp.coefficient((1, 0, 0, 0))
    _, gi = build_gamma()

    # time part: coefficient of d_t^(2 alpha_t) = d_t, scaled by c
    time_mat = A_SQUARED * C_SCALAR * P2.coefficient((2, 0, 0, 0))
    time_target = -1j * (A @ Ap)
    time_dev = float(np.max(np.abs(time_mat - time_target)))

    # space part: keys with two derivative factors; matrix should match the
    # ordered gamma products
    space_dev = 0.0
    for i in range(3):
        for j in range(3):
            key = [0, 0, 0, 0]
            key[1 + i] += 1
            key[1 + j] += 1
            mat = P2.coefficient(tuple(key))
            if i == j:
                target = gi[i] @ gi[i]
            else:
                target = gi[i] @ gi[j] + gi[j] @ gi[i]
            space_dev = max(space_dev, float(np.max(np.abs(mat - target))))

    b2c = B_SCALAR**2 * C_SCALAR
    remainder_keys = [k for k in P2.terms
                      if k not in ((2, 0, 0, 0),)
                      and sum(k[1:]) != 2]
    remainder_norm = max(
        (float(np.max(np.abs(P2.terms[k]))) for k in remainder_keys),
        default=0.0,
    )
    return {
        "time_coefficient": {
            "max_abs_deviation": time_dev,
            "pass": time_dev <= tol,
        },
        "space_matrices": {
            "max_abs_deviation": space_dev,
            "pass": space_dev <= tol,
        },
        "space_scalar": {
            "derived_b2c": b2c,
            "printed": S2_SPACE_PRINTED,
            "deviation": b2c - S2_SPACE_PRINTED,
            "matches_printed": abs(b2c - S2_SPACE_PRINTED) <= tol,
        },
        "remainder": {
            "max_abs_entry": remainder_norm,
            "nonzero": remainder_norm > tol,
        },
        "pass": time_dev <= tol and space_dev <= tol
                and remainder_norm > tol,
    }
