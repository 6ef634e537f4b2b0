"""Fractional-calculus substrate: gamma, Mittag-Leffler family, sign-extended
power series with the Caputo derivative, and the endpoint-anchored fractional
integral / scalar product.

Conventions
-----------
All functions live on the whole real line through the sign-extended coordinate
chi(x) = sign(x)|x|^alpha.  A series

    f(x) = sum_n a_n sign(kx)^n |kx|^(n*alpha)

is represented by `FracSeries`.  The fractional trig/exponential functions are

    fcos(alpha, x) = E_{2a,1}(-|x|^(2a))
    fsin(alpha, x) = sign(x) |x|^a E_{2a,1+a}(-|x|^(2a))
    fexp(alpha, x) = E_{2a,1}(|x|^(2a)) + sign(x) |x|^a E_{2a,1+a}(|x|^(2a))

with E the (generalized) Mittag-Leffler function.  The integral over the
fractional measure du^alpha on [0, a] is the Riemann-Liouville integral
evaluated at the endpoint,

    I[f](a) = (1/Gamma(alpha)) int_0^a (a-u)^(alpha-1) f(u) du,

computed after the exact substitution s = (a-u)^alpha which removes the
endpoint singularity.

Numerical strategy for the Mittag-Leffler sums: the series alternates and can
cancel 15+ digits at the largest arguments needed for zero scanning.  The
coefficients 1/Gamma(alpha n + beta) are computed once per (alpha, beta) in
50-digit arithmetic and stored as double-doubles.  An evaluation certifies
first: the positive-argument series at max|z|, summed in plain double, gives
the term count N and the cancellation mass sum|t_n| that bound every
element, and `PrecisionLoss` is raised when the double-double budget cannot
meet the tolerance.  The same numbers bound a plain double Horner pass
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 5.1):
when that bound meets the tolerance the series is summed in float64, and
only otherwise in double-double.  Zero scans need signs, not values: they
sum a chunk in float64 and sum again in double-double only the points whose
|value| does not exceed the float bound.

alpha is restricted to (0, 1.5] in the public fractional API.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from ._dd import dd_horner

__all__ = [
    "PoleError",
    "PrecisionLoss",
    "QuadratureFailure",
    "DegenerateNorm",
    "gamma",
    "rgamma",
    "mittag_leffler",
    "domain_of_validity",
    "frac_exp",
    "frac_cos",
    "frac_sin",
    "AlphaContext",
    "FracSeries",
    "caputo_derivative",
    "rl_nodes",
    "frac_integral",
    "sym_integral",
    "scalar_product",
    "expectation",
    "ALPHA_MAX",
]

ALPHA_MAX = 1.5
HALF_PI = math.pi / 2.0


class PoleError(ValueError):
    """Gamma evaluated at a non-positive integer."""


class PrecisionLoss(ArithmeticError):
    """A compensated series sum could not be certified to the requested
    tolerance."""


class QuadratureFailure(ArithmeticError):
    """Adaptive quadrature stalled before reaching its tolerance."""


class DegenerateNorm(ArithmeticError):
    """The normalisation integral <f|g> is too small to divide by."""


def gamma(x: float) -> float:
    """Euler gamma for real x: math.gamma, which measured <= 7e-16 relative
    error against a 60-digit Spouge-formula oracle on [0.05, 60] and on
    [-9.9, 0.45] off the poles.

    Raises PoleError at non-positive integers.
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma pole at x={x:g}")
    return math.gamma(x)


def rgamma(x: float) -> float:
    """1/Gamma(x); zero (not an error) at the poles x = 0, -1, -2, ..."""
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    return 1.0 / gamma(x)


# ----------------------------------------------------------------------------
# Gamma tables for the Mittag-Leffler series.
#
# For fixed (alpha, beta) the series E(z) = sum_n c_n z^n has coefficients
# c_n = 1/Gamma(alpha n + beta).  They are computed once in 50-digit
# arithmetic and cached as double-doubles (`hi` + `lo`), so that coefficient
# rounding stays far below the double-double summation noise; the float64
# Horner pass reads `hi` alone.  The plain double ratios
# Gamma(alpha(n+1)+beta)/Gamma(alpha n+beta) (`ratio`) drive the float sizing
# pass of the positive series and the recurrences of the derivative and the
# radial ground state.  All three are flat array('d') columns, built once per
# growth to the size read (`math.lgamma` sizes the positive series' builds).
# ----------------------------------------------------------------------------


class _RatioTable:
    __slots__ = ("alpha", "beta", "ratio", "hi", "lo")

    def __init__(self, alpha: float, beta: float):
        self.alpha = alpha
        self.beta = beta
        self.ratio = array("d")  # G(a(n+1)+b)/G(an+b) as double
        self.hi = array("d")     # 1/G(an+b) = hi + lo as double-double
        self.lo = array("d")

    def extend(self, n: int) -> None:
        """Build the entries up to index n exactly (none when present)."""
        if n < len(self.ratio):
            return
        import mpmath as mp

        with mp.workdps(50):
            a = mp.mpf(self.alpha)
            b = mp.mpf(self.beta)
            gs = [mp.gamma(a * k + b) for k in range(len(self.ratio), n + 2)]
            for g0, g1 in zip(gs, gs[1:]):
                self.ratio.append(float(g1 / g0))
                r = 1 / g0
                hi = float(r)
                self.hi.append(hi)
                self.lo.append(float(r - hi))


_TABLES: dict[tuple[float, float], _RatioTable] = {}


def _table(alpha: float, beta: float) -> _RatioTable:
    key = (float(alpha), float(beta))
    tab = _TABLES.get(key)
    if tab is None:
        tab = _RatioTable(*key)
        _TABLES[key] = tab
    return tab


def _recip_gammas(alpha: float, n: int) -> list:
    """1/Gamma(alpha k + 1) for k < n, from one sized table build."""
    tab = _table(alpha, 1.0)
    tab.extend(n - 1)
    return [h + l for h, l in zip(tab.hi[:n], tab.lo[:n])]


# ----------------------------------------------------------------------------
# Mittag-Leffler summation.
# ----------------------------------------------------------------------------

# Rounding budget of the double-double Horner sum, applied as err ~=
# _ERR_UNIT * sum|t_n|.  Measured against 90-digit mpmath sums (1,200 seeded
# draws: alpha 0.55-1.5 doubled, beta 1 and 1+alpha, scaled x <= 31, up to
# 21-digit cancellation) the error stays below 1.2e-32 * sum|t_n|, about one
# double-double ulp; the constant keeps nearly two orders of headroom.
_ERR_UNIT = 1e-30
_ROUND_UNIT = 2.0**-53  # unit roundoff of a double
_MIN_NORMAL = 2.0**-1022  # below this a coefficient is subnormal
_MAX_TERMS = 1600
_PAD = 2  # entries built past the estimated term count


def _positive_series(tab: _RatioTable, zabs: float, floor: float,
                     rel: float = 0.0) -> tuple[int, float, float]:
    """Size the series at |z| = zabs from the positive-axis terms
    t_n = zabs^n / Gamma(alpha n + beta), summed in plain double.

    |t_n(z)| = t_n(|z|) grows with |z|, so the result bounds every argument
    of modulus <= zabs.  Stops at the first n >= 3 with t_n <= t_{n-1}/2
    (the tail beyond is then below t_n) and t_n <= max(floor, rel * sum).
    Returns (N, sum_{n<=N} t_n, t_N); the sum is inf when it overflows, is
    nan, or needs more than _MAX_TERMS terms.  The table holds coefficient
    N on return; `_grow` builds it when it is too short.
    """
    ratio = tab.ratio
    if len(ratio) < 2 and not _grow(tab, zabs, floor, rel):
        return _MAX_TERMS + 1, math.inf, math.inf
    t = prev = s = tab.hi[0] + tab.lo[0]
    n = 0
    while True:
        if n + 1 == len(ratio) and not _grow(tab, zabs, floor, rel):
            return _MAX_TERMS + 1, math.inf, math.inf
        t *= zabs / ratio[n]
        s += t
        n += 1
        if not s < math.inf or n > _MAX_TERMS:
            return n, math.inf, t
        if n >= 3 and t <= 0.5 * prev and (t <= floor or t <= rel * s):
            return n, s, t
        prev = t


def _grow(tab: _RatioTable, zabs: float, floor: float, rel: float) -> bool:
    """Extend tab in one build to the stopping index of `_positive_series`,
    from log t_k = k log zabs - lgamma(alpha k + beta), plus _PAD.  Returns
    False, building nothing, when the ratio at _MAX_TERMS (the largest: Gamma
    is log-convex) is below 2 zabs and t there is a normal double (log t_k is
    concave, so none is subnormal, whose rounding could stop the loop)."""
    a, b = tab.alpha, tab.beta
    m = a * _MAX_TERMS + b
    if (math.exp(math.lgamma(m + a) - math.lgamma(m) + 1e-6) < 2 * zabs
            and _MAX_TERMS * math.log(zabs) - math.lgamma(m) > -700.0):
        return False
    lz = math.log(zabs) if zabs else -math.inf
    prev = s = math.exp(-math.lgamma(b))
    for k in range(1, _MAX_TERMS + 2):
        lt = k * lz - math.lgamma(a * k + b)
        if not lt <= 709.0:  # the float sum overflows, or zabs is nan
            break
        t = math.exp(lt)
        s += t
        if k >= 3 and t <= 0.5 * prev and (t <= floor or t <= rel * s):
            break
        prev = t
    tab.extend(max(k, len(tab.ratio)) + _PAD)
    return True


def _horner(coeffs, z):
    """sum_n coeffs[n] * z**n in plain double by Horner's rule."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def _ml_sum(alpha: float, beta: float, z, tol: float, signs: bool = False):
    """Certified sum of E_{alpha,beta}(z) for a float or an ndarray z.

    Certify first: the positive series at max|z| fixes the term count N and
    the mass S = sum|t_n| for every element, and PrecisionLoss is raised
    before any summation when the double-double bound _ERR_UNIT * S + 2 t_N
    exceeds tol.  Where the float64 bound (2N + 3) 2^-53 S + 2 t_N (Higham's
    gamma_2N for Horner, one rounding per coefficient, two units of slack for
    the float sizing pass) meets tol too, the `hi` coefficients are summed in
    plain double, unless the last (smallest) one is subnormal; otherwise
    double-double sums the full coefficients.  Elements with |value| <= the
    float bound, whose sign it leaves open, are summed again in double-double
    (near a root of small slope, float rounding within tol can still move the
    sign change past a root tolerance).  PrecisionLoss is raised when
    rounding any value to double pushes its bound past tol.

    signs=True serves zero scans: the float pass is taken even where its
    bound exceeds tol, no bound is held to tol, and PrecisionLoss is raised
    only when the series cannot be sized (its bound is inf).

    Returns (value, bound): the largest certified error over the elements,
    series error plus rounding to double.  In signs mode, where the float
    bound exceeds tol, it bounds only the elements summed in double-double;
    the others, |value| > float bound, are certified in sign only.  Every
    element with |value| > bound has a certified sign.
    """
    tab = _table(alpha, beta)
    zmax = _absmax(z)
    n, mass, last = _positive_series(tab, zmax, tol * 1e-3)
    err = _ERR_UNIT * mass + 2.0 * last
    if not (err <= tol or signs and err < math.inf):
        raise PrecisionLoss(
            f"cannot certify abs error {tol:g} for E_({alpha:g},{beta:g}) "
            f"at |z|={zmax:g}; bound reached {err:g}"
        )
    hi, lo = tab.hi[:n + 1], tab.lo[:n + 1]
    ferr = (2 * n + 3) * _ROUND_UNIT * mass + 2.0 * last
    val = None
    if hi[n] >= _MIN_NORMAL and (signs or ferr <= tol):
        val = _horner(hi, z)
        if ferr <= tol:
            err = ferr
        if isinstance(val, np.ndarray):
            weak = np.abs(val) <= ferr
            if weak.any():
                whi, wlo = dd_horner(hi, lo, z[weak])
                val[weak] = whi + wlo
        elif abs(val) <= ferr:
            val = None
    if val is None:
        dhi, dlo = dd_horner(hi, lo, z)
        val = dhi + dlo
    bound = err + _ROUND_UNIT * _absmax(val)
    if not (bound <= tol or signs):
        raise PrecisionLoss(
            f"cannot certify abs error {tol:g} for E_({alpha:g},{beta:g}) "
            f"at |z|={zmax:g}: rounding the value to double exceeds it"
        )
    return val, bound


def _absmax(v) -> float:
    """max|v| of a float or an ndarray (0 for an empty array)."""
    if isinstance(v, np.ndarray):
        return float(np.max(np.abs(v), initial=0.0))
    return abs(v)


def _coerce(x):
    """A list, tuple or ndarray becomes a float ndarray, anything else
    (numpy scalars included) a Python float, so one function body serves
    scalars and arrays and a scalar never reaches the Horner sum as a 0-d
    array."""
    if isinstance(x, (list, tuple, np.ndarray)):
        return np.asarray(x, float)
    return float(x)


def mittag_leffler(alpha: float, beta: float, z, tol: float = 1e-9):
    """Generalized Mittag-Leffler E_{alpha,beta}(z) = sum z^n/Gamma(alpha n+beta).

    Accepts scalar or array z (real); a scalar gives a float.  Absolute error
    <= tol, including the rounding to double, is certified by the
    compensated-summation budget; PrecisionLoss is raised otherwise.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("mittag_leffler requires alpha > 0 and beta > 0")
    return _ml_sum(alpha, beta, _coerce(z), tol)[0]


def domain_of_validity(alpha: float, beta: float, tol: float) -> float:
    """Largest |z| (negative axis, the cancelling direction) for which the
    summation budget certifies absolute tolerance tol."""
    if alpha <= 0 or beta <= 0:
        raise ValueError("domain_of_validity requires alpha > 0 and beta > 0")
    if math.isinf(tol):
        return math.inf

    def ok(m: float) -> bool:
        try:
            _ml_sum(alpha, beta, -m, tol)
            return True
        except PrecisionLoss:
            return False

    lo, hi = (1.0, 2.0) if ok(1.0) else (0.0, 1.0)  # else bisect (0, 1)
    while lo and ok(hi):
        lo = hi
        hi *= 2.0
        if hi > 1e9:
            return hi
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-2 * lo:
            break
    return lo


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= ALPHA_MAX:
        raise ValueError(f"alpha must be in (0, {ALPHA_MAX}], got {alpha:g}")
    return alpha


def frac_cos(alpha: float, x, tol: float = 1e-9):
    """cos(alpha, x) = E_{2a,1}(-|x|^(2a)); even, reduces to cos at alpha=1."""
    return _trig(alpha, x, tol, odd=False)[0]


def frac_sin(alpha: float, x, tol: float = 1e-9):
    """sin(alpha, x) = sign(x)|x|^a E_{2a,1+a}(-|x|^(2a)); odd, sin at alpha=1."""
    return _trig(alpha, x, tol, odd=True)[0]


def _trig(alpha: float, x, tol: float, odd: bool, signs: bool = False):
    """frac_sin (odd) or frac_cos, and the bound _ml_sum returns for its
    Mittag-Leffler factor; signs=True gives the sign-certified values that
    zero scans need."""
    alpha = _check_alpha(alpha)
    x = _coerce(x)
    ax = abs(x)
    beta = 1.0 + alpha if odd else 1.0
    val, bound = _ml_sum(2.0 * alpha, beta, -ax ** (2.0 * alpha), tol, signs)
    return (_coerce(np.sign(x) * ax**alpha * val) if odd else val), bound


def frac_exp(alpha: float, x, tol: float = 1e-9):
    """exp(alpha, chi(x)): even ML part plus sign(x) times the odd part."""
    alpha = _check_alpha(alpha)
    x = _coerce(x)
    ax = abs(x)
    z = ax ** (2.0 * alpha)
    even, _ = _ml_sum(2.0 * alpha, 1.0, z, tol)
    odd, _ = _ml_sum(2.0 * alpha, 1.0 + alpha, z, tol)
    return _coerce(even + np.sign(x) * ax**alpha * odd)


# ----------------------------------------------------------------------------
# Physical context.
# ----------------------------------------------------------------------------

HBARC_MEV_FM = 197.327  # MeV*fm


@dataclass(frozen=True)
class AlphaContext:
    """Fractional order plus the physical constants shared by the energy and
    radius formulas (hbar*c in MeV*fm, rest mass energy in MeV)."""

    alpha: float
    hbar_c: float = HBARC_MEV_FM
    mc2: float = 1.0

    def __post_init__(self):
        _check_alpha(self.alpha)
        if self.hbar_c <= 0 or self.mc2 <= 0:
            raise ValueError("hbar_c and mc2 must be positive")


# ----------------------------------------------------------------------------
# Sign-extended power series and the Caputo derivative.
# ----------------------------------------------------------------------------

DEFAULT_TERMS = 64


@dataclass(frozen=True)
class FracSeries:
    """f(x) = sum_n coeffs[n] * sign(kx)^n * |kx|^(n*alpha).

    parity is 'even' (odd-index coefficients vanish), 'odd' (even-index
    vanish) or 'none'.  The truncation order is len(coeffs).
    """

    alpha: float
    coeffs: tuple = ()
    parity: str = "none"
    k: float = 1.0

    def __post_init__(self):
        _check_alpha(self.alpha)
        if self.parity not in ("even", "odd", "none"):
            raise ValueError("parity must be 'even', 'odd' or 'none'")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if self.parity == "even" and any(
            c != 0.0 for c in self.coeffs[1::2]
        ):
            raise ValueError("even series has nonzero odd coefficients")
        if self.parity == "odd" and any(c != 0.0 for c in self.coeffs[0::2]):
            raise ValueError("odd series has nonzero even coefficients")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def cosine(cls, alpha: float, k: float = 1.0, terms: int = DEFAULT_TERMS):
        """Series of cos(alpha, kx) in the chi-power basis."""
        _check_alpha(alpha)
        g = _recip_gammas(alpha, terms)
        c = [0.0 if m % 2 else (-1) ** (m // 2) * g[m] for m in range(terms)]
        return cls(alpha=alpha, coeffs=tuple(c), parity="even", k=k)

    @classmethod
    def sine(cls, alpha: float, k: float = 1.0, terms: int = DEFAULT_TERMS):
        """Series of sin(alpha, kx)."""
        _check_alpha(alpha)
        g = _recip_gammas(alpha, terms)
        c = [(-1) ** (m // 2) * g[m] if m % 2 else 0.0 for m in range(terms)]
        return cls(alpha=alpha, coeffs=tuple(c), parity="odd", k=k)

    @classmethod
    def exponential(cls, alpha: float, k: float = 1.0, terms: int = DEFAULT_TERMS):
        """Series of exp(alpha, chi(kx))."""
        _check_alpha(alpha)
        return cls(alpha=alpha, coeffs=tuple(_recip_gammas(alpha, terms)),
                   parity="none", k=k)

    @classmethod
    def monomial(cls, alpha: float, n: int, k: float = 1.0):
        """chi^n(kx) = sign(kx)^n |kx|^(n alpha)."""
        c = [0.0] * (n + 1)
        c[n] = 1.0
        parity = "even" if n % 2 == 0 else "odd"
        return cls(alpha=alpha, coeffs=tuple(c), parity=parity, k=k)

    # -- evaluation -----------------------------------------------------------

    def eval(self, x):
        """The truncated series at scalar or array x (a float or an ndarray)
        by Horner's rule in chi = sign(kx)|kx|^alpha."""
        u = self.k * _coerce(x)
        chi = np.sign(u) * abs(u) ** self.alpha
        # a zero top coefficient gives a constant series the shape of chi
        return _coerce(_horner(self.coeffs + (0.0,), chi))

    def __call__(self, x):
        return self.eval(x)


def caputo_derivative(series: FracSeries) -> FracSeries:
    """Sign-extended Caputo derivative of a chi-power series.

    Coefficient map b_n = a_{n+1} * Gamma(1+(n+1)a)/Gamma(1+na), with the
    overall factor sign(k)|k|^alpha folded into the coefficients, and the
    parity flipped.  The derivative of a constant series is the zero series.
    """
    a = series.alpha
    k = series.k
    scale = math.copysign(abs(k) ** a, k)
    src = series.coeffs
    if len(src) <= 1:
        out = (0.0,)
    else:
        tab = _table(a, 1.0)
        tab.extend(len(src) - 2)
        out = tuple(scale * c * r for c, r in zip(src[1:], tab.ratio))
    parity = {"even": "odd", "odd": "even", "none": "none"}[series.parity]
    return FracSeries(alpha=a, coeffs=out, parity=parity, k=k)


# ----------------------------------------------------------------------------
# Fractional integral, scalar product, expectation values.
# ----------------------------------------------------------------------------


def rl_nodes(alpha: float, a: float, n: int):
    """Nodes/weights (u_i, w_i) with I^alpha[f](a) ~= sum w_i f(u_i).

    Uses the exact substitution s = (a-u)^alpha, so the weight function is
    removed and Gauss-Legendre applies to a smooth integrand.
    """
    _check_alpha(alpha)
    if a <= 0:
        raise ValueError("endpoint a must be positive")
    xs, ws = np.polynomial.legendre.leggauss(n)
    smax = a**alpha
    s = 0.5 * smax * (xs + 1.0)
    u = a - s ** (1.0 / alpha)
    np.clip(u, 0.0, a, out=u)
    w = ws * (0.5 * smax) / gamma(alpha + 1.0)
    return u, w


# 32-point Gauss-Legendre rule and its 16-point check, nodes concatenated.
_GL32 = np.polynomial.legendre.leggauss(32)
_GL16 = np.polynomial.legendre.leggauss(16)
_GL_NODES = np.concatenate([_GL32[0], _GL16[0]])


def frac_integral(f, alpha: float, a: float, tol: float = 1e-8,
                  max_panels: int = 4096) -> float:
    """Riemann-Liouville integral (1/Gamma(a)) int_0^a (a-u)^(a-1) f(u) du.

    f must accept numpy arrays.  Adaptive Gauss-Legendre bisection on the
    substituted integrand, one level (depth) at a time: one call of f
    evaluates the 32- and 16-point rules on every open panel.  A panel is
    accepted when they differ by <= 0.5 tol max(scale, |v32|) or 1e-16
    scale (scale: |accepted| + sum of |v32| over the open panels), else
    bisected; relative error ~tol for smooth f.  Raises QuadratureFailure
    when a panel fails at depth 28 or a split would start with max_panels
    panels evaluated.
    """
    _check_alpha(alpha)
    if a <= 0:
        raise ValueError("endpoint a must be positive")
    norm, inv_alpha = 1.0 / gamma(alpha + 1.0), 1.0 / alpha
    lo, hi = np.zeros(1), np.full(1, a**alpha)
    acc, scale, n_panels, depth = 0.0, 1e-300, 1, 0
    while True:
        h, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
        s = (mid[:, None] + h[:, None] * _GL_NODES).ravel()
        u = np.clip(a - s**inv_alpha, 0.0, a)
        vals = norm * np.asarray(f(u), float).reshape(len(h), -1)
        v32 = h * (vals[:, :32] @ _GL32[1])
        e = np.abs(v32 - h * (vals[:, 32:] @ _GL16[1]))
        scale = max(scale, abs(acc) + float(np.abs(v32).sum()))
        ok = ((e <= tol * np.maximum(scale, np.abs(v32)) * 0.5)
              | (e <= 1e-16 * scale))
        acc += float(v32[ok].sum())
        n_split = len(ok) - int(np.count_nonzero(ok))
        if not n_split:
            return acc
        if depth >= 28 or n_panels + 2 * n_split - 2 >= max_panels:
            raise QuadratureFailure(
                f"adaptive refinement stalled at depth {depth}: {n_split} "
                f"panels fail (worst err {e[~ok].max():g}), {n_panels} evaluated"
            )
        n_panels += 2 * n_split
        lo, mid, hi = lo[~ok], mid[~ok], hi[~ok]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        depth += 1


def sym_integral(f, alpha: float, a: float, tol: float = 1e-8) -> float:
    """Integral over the symmetric interval [-a, a] of the du^alpha measure:
    the endpoint-anchored RL integral of f(u) + f(-u).

    Odd integrands vanish identically; even integrands get twice their
    one-sided RL integral.  (The measure convention only enters expectation
    values through ratios, where the constant cancels.)  f is called once
    per refinement level, on u and -u together.
    """

    def even_part(u):
        v = np.asarray(f(np.concatenate([u, -u])), float)
        return v[:len(u)] + v[len(u):]

    return frac_integral(even_part, alpha, a, tol=tol)


def scalar_product(f, g, alpha: float, a: float, tol: float = 1e-8) -> float:
    """<f|g> over [-a, a] under du^alpha (real-valued functions)."""
    return sym_integral(lambda u: np.asarray(f(u), float) * np.asarray(g(u), float),
                        alpha, a, tol=tol)


def expectation(op, f, g, alpha: float, a: float, tol: float = 1e-8) -> float:
    """<f|O|g>/<f|g> with O a pointwise map u -> factor, over [-a, a].

    Raises DegenerateNorm when the normalisation is too small to divide by.
    """
    num = sym_integral(
        lambda u: np.asarray(f(u), float) * np.asarray(op(u), float)
        * np.asarray(g(u), float),
        alpha, a, tol=tol,
    )
    den = scalar_product(f, g, alpha, a, tol=tol)
    if abs(den) < 1e-12 * max(abs(num), 1.0):
        raise DegenerateNorm(f"<f|g> = {den:g} below tolerance")
    return num / den
