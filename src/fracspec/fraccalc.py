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
cancel 15+ digits at the largest arguments needed for zero scanning.  An
evaluation certifies first (`_ml_sum`): the positive-argument series at
max|z| bounds every element, and `PrecisionLoss` is raised when the
double-double budget cannot meet the tolerance.  Where the bound of a plain
double Horner pass (Higham, Accuracy and Stability of Numerical Algorithms,
2nd ed., 5.1) meets it, the series is summed in float64 over coefficients
from math.gamma at the exact argument, and otherwise in double-double over
coefficients built in 50-digit arithmetic only as far as that pass reads.
Zero scans need signs, not values: a chunk is summed in float64, and again
in double-double only where |value| does not exceed the float bound.
For 1/2 < alpha <= 1 a call whose every t = |x| is at least t0 takes the
Hankel-contour inversion of s^(a-1)/(s^a+1) (cos) and s^(alpha-1)/(s^a+1)
(sin/sign x), a = 2 alpha (F. Mainardi, Chaos Solitons Fractals 7, 1996;
Gorenflo, Loutchko, Luchko, Fract. Calc. Appl. Anal. 5(4), 2002): the poles
e^(+-i pi/a) give (2/a) e^(t cos(pi/a)) {cos, sin}(t sin(pi/a)), the cut
P = sum_{k<K} (-1)^k sin((k+d) a pi) Gamma(l+ak)/(pi t^(l+ak)) + R_K,
(l, d) = (a, 1), (alpha, 1/2), |R_K| <= Gamma(l+aK)/(pi m t^(l+aK)) as
|1 + r^a e^(i a pi)| >= m (1 if cos(a pi) >= 0, else |sin(a pi)|); t0 is the
least t where some K makes that tol/4 (20.4-21.5 at tol 1e-9 for alpha
>= 0.55).  At alpha = 1, P = 0 and the pair is cos t or sin t.

alpha is restricted to (0, 1.5] in the public fractional API.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from ._dd import _SPLIT, dd_horner

__all__ = [
    "PoleError",
    "PrecisionLoss",
    "QuadratureFailure",
    "DegenerateNorm",
    "gamma",
    "rgamma",
    "mittag_leffler",
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
    """1/Gamma(x): zero (not an error) at the poles x = 0, -1, -2, ..., and
    exp(-lgamma(x)) past 171.62, +-inf where math.gamma gives +-0."""
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    try:
        g = gamma(x)
    except OverflowError:
        return math.exp(-math.lgamma(x))
    return 1.0 / g if g else math.copysign(math.inf, g)


# ----------------------------------------------------------------------------
# Gamma tables for the Mittag-Leffler series.
#
# For fixed (alpha, beta) the series E(z) = sum_n c_n z^n has coefficients
# c_n = 1/Gamma(alpha n + beta).  `extend` builds the float columns `hi` and
# `ratio` = hi[n]/hi[n+1] (read by the float passes and the recurrences of
# the derivative and the radial ground state), `dd` the 50-digit double-double
# columns `dhi` + `dlo` only as far as a double-double pass reads; each once
# per growth to the size read (`math.lgamma` sizes the positive series').
# ----------------------------------------------------------------------------

_GAMMA_TOP = 171.0  # math.gamma overflows past 171.62; 1/Gamma(171) is normal


def _rgamma_at(a: float, k: int, b: float) -> float:
    """1/Gamma(a k + b) for 0 < a k + b < _GAMMA_TOP, corrected to first order
    for the rounding of x = fl(a k + b), up to 1.4e-13 relative near x = 167:
    (1 - psi(x) d)/Gamma(x), d = a k + b - x exact (Dekker product, k < 2^26,
    and two-sum), psi to ~1e-5 (upward recurrence, then asymptotics)."""
    p = a * k
    c = _SPLIT * a
    ah = c - (c - a)
    d = (ah * k - p) + (a - ah) * k
    x = y = p + b
    bb = x - p
    d += (p - (x - bb)) + (b - bb)
    psi = 0.0
    while y < 6.0:
        psi -= 1.0 / y
        y += 1.0
    psi += math.log(y) - 0.5 / y - 1.0 / (12.0 * y * y)
    return (1.0 - psi * d) / math.gamma(x)


class _RatioTable:
    __slots__ = ("alpha", "beta", "ratio", "hi", "dhi", "dlo")

    def __init__(self, alpha: float, beta: float):
        self.alpha = alpha
        self.beta = beta
        self.ratio = array("d")  # G(a(n+1)+b)/G(an+b) as double
        self.hi = array("d")     # 1/G(an+b) within _COEFF_REL
        self.dhi = array("d")    # 1/G(an+b) = dhi + dlo as double-double
        self.dlo = array("d")

    def extend(self, n: int) -> None:
        """Build the float columns to index n exactly (none when present)."""
        k0 = m = len(self.ratio)
        a, b = self.alpha, self.beta
        while m <= n and a * (m + 1) + b < _GAMMA_TOP:  # from m on: mpmath
            m += 1
        if m > k0:
            hs = [_rgamma_at(a, k, b) for k in range(k0, m + 1)]
            self.hi.extend(hs[:-1])
            self.ratio.extend([h0 / h1 for h0, h1 in zip(hs, hs[1:])])
        if m <= n:
            self._build_mp(n)

    def dd(self, n: int) -> tuple[array, array]:
        """The double-double columns up to index n, built on first read."""
        self.extend(n)
        if n >= len(self.dhi):
            self._build_mp(n)
        return self.dhi[:n + 1], self.dlo[:n + 1]

    def _build_mp(self, n: int) -> None:
        """Append the double-double columns, and the float columns from where
        they end, up to index n from one 50-digit gamma per entry."""
        import mpmath as mp

        k0, kf = len(self.dhi), len(self.ratio)
        with mp.workdps(50):
            a, b = mp.mpf(self.alpha), mp.mpf(self.beta)
            gs = [mp.gamma(a * k + b) for k in range(k0, n + 1 + (kf <= n))]
            for k, g0 in enumerate(gs[:n + 1 - k0], k0):
                r = 1 / g0
                hi = float(r)
                self.dhi.append(hi)
                self.dlo.append(float(r - hi))
                if k >= kf:
                    self.hi.append(hi)
                    self.ratio.append(float(gs[k + 1 - k0] / g0))


_TABLES: dict[tuple[float, float], _RatioTable] = {}


def _table(alpha: float, beta: float) -> _RatioTable:
    key = (float(alpha), float(beta))
    tab = _TABLES.get(key)
    if tab is None:
        tab = _RatioTable(*key)
        _TABLES[key] = tab
    return tab


def _recip_gammas(alpha: float, n: int) -> array:
    """1/Gamma(alpha k + 1) for k < n, from one sized table build."""
    tab = _table(alpha, 1.0)
    tab.extend(n - 1)
    return tab.hi[:n]


# ----------------------------------------------------------------------------
# Mittag-Leffler summation.
# ----------------------------------------------------------------------------

# Rounding budget of the double-double Horner sum, applied as err ~=
# _ERR_UNIT * sum|t_n|.  Measured against 90-digit mpmath sums (1,200 seeded
# draws: alpha 0.55-1.5 doubled, beta 1 and 1+alpha, scaled x <= 31, up to
# 21-digit cancellation) the error stays below 1.2e-32 * sum|t_n|, about one
# double-double ulp; the constant keeps nearly two orders of headroom.
_ERR_UNIT = 1e-30
# Relative error of a float coefficient `hi` (`_rgamma_at`).  Measured against
# 60-digit mpmath at the exact argument (52,979 coefficients: alpha 0.05-1.5
# and its double, beta 1, 1+alpha and seeded draws in (0.1, 3), arguments
# below _GAMMA_TOP) it stays below 7.7e-16, about 7 units of roundoff.
_COEFF_REL = 2e-15
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
    t = prev = s = tab.hi[0]
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


_HORNER_BLOCK = 65536  # 65 terms over 357,760 points: 11-13 ms; at 8,192: 12-17


def _horner(coeffs, z):
    """sum_n coeffs[n] * z**n in plain double by Horner's rule.  An array with
    an axis is summed in place (acc *= z; acc += c: the roundings of
    acc * z + c) over blocks of _HORNER_BLOCK points that stay in cache."""
    if not (isinstance(z, np.ndarray) and z.ndim):
        acc = coeffs[-1]
        for c in coeffs[-2::-1]:
            acc = acc * z + c
        return acc
    flat, out = z.reshape(-1), np.empty(z.size)
    for s in range(0, z.size, _HORNER_BLOCK):
        zb, acc = flat[s:s + _HORNER_BLOCK], out[s:s + _HORNER_BLOCK]
        acc.fill(coeffs[-1])
        for c in coeffs[-2::-1]:
            acc *= zb
            acc += c
    return out.reshape(z.shape)


def _ml_sum(alpha: float, beta: float, z, tol: float, signs: bool = False):
    """Certified sum of E_{alpha,beta}(z) for a float or an ndarray z.

    Certify first: the positive series at max|z| fixes the term count N and
    the mass S = sum|t_n| for every element (both scaled by 1 + N (2
    _COEFF_REL + 3u) for the float ratios and roundings); PrecisionLoss is
    raised before summing when the double-double bound _ERR_UNIT S + 2 t_N
    exceeds tol.  Where the float64 bound ((2N + 3) u + _COEFF_REL) S + 2 t_N
    (Higham's gamma_2N for Horner, one rounding per coefficient, two units
    of slack for the sizing pass, the error of `hi`) meets tol too and the
    last `hi` is normal, `hi` is summed in plain double, else `tab.dd(N)` in
    double-double.  Elements with |value| <= the float bound, whose sign it
    leaves open (float rounding near a root of small slope can move the sign
    change past a root tolerance), are summed again in double-double.
    PrecisionLoss is raised when rounding to double pushes a bound past tol.

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
    scale = 1.0 + n * (2.0 * _COEFF_REL + 3.0 * _ROUND_UNIT)
    mass, last = scale * mass, scale * last
    err = _ERR_UNIT * mass + 2.0 * last
    if not (err <= tol or signs and err < math.inf):
        raise PrecisionLoss(
            f"cannot certify abs error {tol:g} for E_({alpha:g},{beta:g}) "
            f"at |z|={zmax:g}; bound reached {err:g}"
        )
    ferr = ((2 * n + 3) * _ROUND_UNIT + _COEFF_REL) * mass + 2.0 * last
    val = None
    if tab.hi[n] >= _MIN_NORMAL and (signs or ferr <= tol):
        val = _horner(tab.hi[:n + 1], z)
        if ferr <= tol:
            err = ferr
        if isinstance(val, np.ndarray):
            weak = np.flatnonzero(np.abs(val) <= ferr)
            # one double-double pass over 1-400 points costs as much as 26-55
            # over one float (BENCH_12.json): fewer than 40 go singly, bitwise
            if len(weak) >= 40:
                whi, wlo = dd_horner(*tab.dd(n), z[weak])
                val[weak] = whi + wlo
            elif len(weak):
                dhi, dlo = tab.dd(n)
                val[weak] = [h + l for h, l in (dd_horner(dhi, dlo, x)
                                                for x in z[weak].tolist())]
        elif abs(val) <= ferr:
            val = None
    if val is None:
        dhi, dlo = dd_horner(*tab.dd(n), z)
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


def _check_positive(fn: str, **values: float) -> None:
    for name, v in values.items():
        if not 0.0 < v < math.inf:  # nan included
            raise ValueError(f"{fn} requires a finite {name} > 0, got {v:g}")


def mittag_leffler(alpha: float, beta: float, z, tol: float = 1e-9):
    """Generalized Mittag-Leffler E_{alpha,beta}(z) = sum z^n/Gamma(alpha n+beta).

    Accepts scalar or array z (real); a scalar gives a float.  Absolute error
    <= tol, including the rounding to double, is certified by the
    compensated-summation budget; PrecisionLoss is raised otherwise.
    """
    _check_positive("mittag_leffler", alpha=alpha, beta=beta)
    return _ml_sum(alpha, beta, _coerce(z), tol)[0]


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
    """frac_sin (odd) or frac_cos and its bound (`_far_sum`'s past t0, else
    _ml_sum's for the ML factor); signs=True: the signs zero scans need."""
    alpha = _check_alpha(alpha)
    x = _coerce(x)
    ax = abs(x)
    # most calls below t0 stop at their first |x|
    if (0.5 < alpha <= 1.0 and (far := _far(alpha, odd, tol))
            and far[0] <= (ax if type(ax) is float else ax.size and ax.item(0))
            and (got := _far_sum(far, ax, odd))):
        val, bound = got
        if not (bound <= tol or signs):
            raise PrecisionLoss(f"cannot certify abs error {tol:g} for "
                                f"frac_{'sin' if odd else 'cos'}({alpha:g}) "
                                f"at |x|={_absmax(ax):g}; bound {bound:g}")
        return _coerce(np.sign(x) * val if odd else val), bound
    beta = 1.0 + alpha if odd else 1.0
    val, bound = _ml_sum(2.0 * alpha, beta, -ax ** (2.0 * alpha), tol, signs)
    return (_coerce(np.sign(x) * ax**alpha * val) if odd else val), bound


@functools.lru_cache(maxsize=1024)
def _far(alpha: float, odd: bool, tol: float):
    """(t0, a, l, K, c, g, rem, cos(pi/a), sin(pi/a)) of the large-|x| branch
    (module docstring) at min(tol, 1), since t^-a overflows as t0 nears 0;
    None unless 0 < tol < inf.  c_k are the coefficients of P in t^-a,
    g_k = Gamma(l+ak)/pi >= |c_k|, rem = g_K/m."""
    if not 0.0 < tol < math.inf:
        return None
    a = 2.0 * alpha
    l, d = (alpha, 0.5) if odd else (a, 1.0)
    m = 1.0 if math.cos(a * math.pi) >= 0.0 else abs(math.sin(a * math.pi))
    budget = math.log(0.25 * math.pi * m * min(tol, 1.0))
    log_t0, K = min(((math.lgamma(l + a * k) - budget) / (l + a * k), k)
                    for k in range(1, int((_GAMMA_TOP - l) / a) + 1))
    g = [math.gamma(l + a * k) / math.pi for k in range(K + 1)]
    c = [(-1) ** k * math.sin((k + d) * a * math.pi) * g[k] for k in range(K)]
    return (math.exp(log_t0), a, l, K, c, g[:K], g[K] / m * (1.0 + 1e-12),
            math.cos(math.pi / a), math.sin(math.pi / a))


def _far_sum(far, t, odd: bool):
    """P(t) + pair and its bound, None unless every t lies in [t0, inf).
    The bound: R_K at min t, rounding of P (coefficients within 1e-12 g_k:
    gamma's argument < 1e-13, the sine's < 2e-13; (4K + 8) u for Horner and
    powers of t), of the pair (angle and exponent round by a few u t) and
    of the value."""
    t0, a, l, K, c, g, rem, cos_pa, sin_pa = far
    lo, hi = ((float(t.min()), float(t.max())) if isinstance(t, np.ndarray)
              else (t, t))
    if not t0 <= lo <= hi < math.inf:
        return None
    val = (_horner(c, t**-a) * t**-l + (2.0 / a) * np.exp(t * cos_pa)
           * (np.sin if odd else np.cos)(t * sin_pa))
    amp = (2.0 / a) * math.exp(max(lo * cos_pa, hi * cos_pa))
    bound = (rem * lo ** -(l + a * K) + (40.0 * hi + 9.0) * _ROUND_UNIT * amp
             + (1e-12 + (4 * K + 8) * _ROUND_UNIT) * _horner(g, lo**-a) * lo**-l
             + _ROUND_UNIT * _absmax(val))
    return val, bound


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
        _check_positive("AlphaContext", hbar_c=self.hbar_c, mc2=self.mc2)


# ----------------------------------------------------------------------------
# Sign-extended power series and the Caputo derivative.
# ----------------------------------------------------------------------------

DEFAULT_TERMS = 64


@dataclass(frozen=True)
class FracSeries:
    """f(x) = sum_n coeffs[n] * sign(kx)^n * |kx|^(n*alpha).

    The truncation order is len(coeffs).
    """

    alpha: float
    coeffs: tuple = ()
    k: float = 1.0

    def __post_init__(self):
        _check_alpha(self.alpha)
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @property
    def parity(self) -> str:
        """'even' when the odd-index coefficients vanish (a constant too),
        else 'odd' when the even-index ones do, else 'none'."""
        if not any(self.coeffs[1::2]):
            return "even"
        return "none" if any(self.coeffs[0::2]) else "odd"

    # -- constructors ---------------------------------------------------------

    @classmethod
    def cosine(cls, alpha: float, k: float = 1.0, terms: int = DEFAULT_TERMS):
        """Series of cos(alpha, kx) in the chi-power basis."""
        _check_alpha(alpha)
        g = _recip_gammas(alpha, terms)
        c = [0.0 if m % 2 else (-1) ** (m // 2) * g[m] for m in range(terms)]
        return cls(alpha=alpha, coeffs=tuple(c), k=k)

    @classmethod
    def sine(cls, alpha: float, k: float = 1.0, terms: int = DEFAULT_TERMS):
        """Series of sin(alpha, kx)."""
        _check_alpha(alpha)
        g = _recip_gammas(alpha, terms)
        c = [(-1) ** (m // 2) * g[m] if m % 2 else 0.0 for m in range(terms)]
        return cls(alpha=alpha, coeffs=tuple(c), k=k)

    @classmethod
    def exponential(cls, alpha: float, k: float = 1.0, terms: int = DEFAULT_TERMS):
        """Series of exp(alpha, chi(kx))."""
        _check_alpha(alpha)
        return cls(alpha=alpha, coeffs=tuple(_recip_gammas(alpha, terms)), k=k)

    @classmethod
    def monomial(cls, alpha: float, n: int, k: float = 1.0):
        """chi^n(kx) = sign(kx)^n |kx|^(n alpha)."""
        c = [0.0] * (n + 1)
        c[n] = 1.0
        return cls(alpha=alpha, coeffs=tuple(c), k=k)

    # -- evaluation -----------------------------------------------------------

    def eval(self, x):
        """The truncated series at scalar or array x (a float or an ndarray)
        by Horner's rule in chi = sign(kx)|kx|^alpha."""
        u = self.k * _coerce(x)
        chi = np.sign(u) * abs(u) ** self.alpha
        # a zero top coefficient gives a constant series the shape of chi
        return _coerce(_horner(self.coeffs + (0.0,), chi))


def caputo_derivative(series: FracSeries) -> FracSeries:
    """Sign-extended Caputo derivative of a chi-power series.

    Coefficient map b_n = a_{n+1} * Gamma(1+(n+1)a)/Gamma(1+na), with the
    overall factor sign(k)|k|^alpha folded into the coefficients (so the
    parity flips).  The derivative of a constant series is the zero series.
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
    return FracSeries(alpha=a, coeffs=out, k=k)


# ----------------------------------------------------------------------------
# Fractional integral, scalar product, expectation values.
# ----------------------------------------------------------------------------


def rl_nodes(alpha: float, a: float, n: int):
    """Nodes/weights (u_i, w_i) with I^alpha[f](a) ~= sum w_i f(u_i).

    Uses the exact substitution s = (a-u)^alpha, so the weight function is
    removed and Gauss-Legendre applies to a smooth integrand.
    """
    _check_alpha(alpha)
    _check_positive("rl_nodes", a=a)
    xs, ws = _gauss_legendre(n)
    smax = a**alpha
    s = 0.5 * smax * (xs + 1.0)
    u = a - s ** (1.0 / alpha)
    np.clip(u, 0.0, a, out=u)
    w = ws * (0.5 * smax) / gamma(alpha + 1.0)
    return u, w


@functools.lru_cache(maxsize=16)
def _gauss_legendre(n: int):
    """n-point Gauss-Legendre nodes and weights, cached and read-only."""
    xs, ws = np.polynomial.legendre.leggauss(n)
    xs.flags.writeable = ws.flags.writeable = False
    return xs, ws


# 32-point Gauss-Legendre rule and its 16-point check, nodes concatenated.
_GL32, _GL16 = _gauss_legendre(32), _gauss_legendre(16)
_GL_NODES = np.concatenate([_GL32[0], _GL16[0]])


MAX_PANELS = 4096  # frac_integral's panel budget


def frac_integral(f, alpha: float, a: float, tol: float = 1e-8):
    """Riemann-Liouville integral (1/Gamma(a)) int_0^a (a-u)^(a-1) f(u) du.

    f(u) has u's shape (a float result) or (k, len(u)): k integrands on one
    panel set (k results).  Adaptive Gauss-Legendre bisection on the
    substituted integrand, one level (depth) at a time: one call of f
    evaluates the 32- and 16-point rules on every open panel.  A panel is
    accepted when in every row they differ by <= 0.5 tol max(scale, |v32|)
    or 1e-16 scale (scale: the row's |accepted| + sum of |v32| over the open
    panels), else bisected; relative error ~tol for smooth f.  Raises
    ValueError unless a and tol are finite and positive and f(u) is so
    shaped, QuadratureFailure when a panel fails at depth 28 or a split
    would start with MAX_PANELS panels evaluated.
    """
    _check_alpha(alpha)
    _check_positive("frac_integral", a=a, tol=tol)
    norm, inv_alpha = 1.0 / gamma(alpha + 1.0), 1.0 / alpha
    lo, hi = np.zeros(1), np.full(1, a**alpha)
    acc, scale, n_panels, depth = 0.0, 1e-300, 1, 0
    while True:
        h, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
        s = (mid[:, None] + h[:, None] * _GL_NODES).ravel()
        v = _values(f, np.clip(a - s**inv_alpha, 0.0, a))
        vals = norm * v.reshape(-1, len(h), len(_GL_NODES))  # rows, panels, 48
        v32 = h * (vals[..., :32] @ _GL32[1])
        e = np.abs(v32 - h * (vals[..., 32:] @ _GL16[1]))
        # fmax like max(): a nan row sum leaves the scale as it was
        scale = np.fmax(scale, np.abs(acc) + np.abs(v32).sum(1, keepdims=True))
        ok = ((e <= tol * np.maximum(scale, np.abs(v32)) * 0.5)
              | (e <= 1e-16 * scale)).all(axis=0)
        acc += v32[:, ok].sum(1, keepdims=True)
        n_split = len(ok) - int(np.count_nonzero(ok))
        if not n_split:
            return acc[:, 0] if v.ndim == 2 else float(acc[0, 0])
        if depth >= 28 or n_panels + 2 * n_split - 2 >= MAX_PANELS:
            raise QuadratureFailure(
                f"adaptive refinement stalled at depth {depth}: {n_split} panels"
                f" fail (worst err {e[:, ~ok].max():g}), {n_panels} evaluated")
        n_panels += 2 * n_split
        lo, mid, hi = lo[~ok], mid[~ok], hi[~ok]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        depth += 1


def _values(f, u):
    v = np.asarray(f(u), float)
    if v.ndim not in (1, 2) or v.shape[-1] != len(u):
        raise ValueError(f"integrand returned shape {v.shape}, expected "
                         f"({len(u)},) or (k, {len(u)})")
    return v


def sym_integral(f, alpha: float, a: float, tol: float = 1e-8):
    """Integral over the symmetric interval [-a, a] of the du^alpha measure:
    the endpoint-anchored RL integral of f(u) + f(-u).

    Odd integrands vanish identically; even integrands get twice their
    one-sided RL integral.  (The measure convention only enters expectation
    values through ratios, where the constant cancels.)  f is called once
    per refinement level, on u and -u together, a stacked f row by row.
    """

    def even_part(u):
        v = _values(f, np.concatenate([u, -u]))
        return v[..., :len(u)] + v[..., len(u):]

    return frac_integral(even_part, alpha, a, tol=tol)


def _rows(u, f, g, op=None):
    """f(u) g(u), stacked under f(u) O(u) g(u) if op; g unused if g == f."""
    fu = np.asarray(f(u), float)
    p = fu * (fu if g == f else np.asarray(g(u), float))
    return p if op is None else np.stack([p * np.asarray(op(u), float), p])


def scalar_product(f, g, alpha: float, a: float, tol: float = 1e-8) -> float:
    """Real <f|g> over [-a, a] under du^alpha; g is called only if g != f."""
    return sym_integral(lambda u: _rows(u, f, g), alpha, a, tol=tol)


def expectation(op, f, g, alpha: float, a: float, tol: float = 1e-8) -> float:
    """<f|O|g>/<f|g> with O a pointwise map u -> factor, over [-a, a]: two
    rows of one sym_integral (one panel set); g is called only if g != f.
    Raises DegenerateNorm when <f|g> is too small to divide by."""
    num, den = sym_integral(lambda u: _rows(u, f, g, op), alpha, a, tol=tol)
    if abs(den) < 1e-12 * max(abs(num), 1.0):
        raise DegenerateNorm(f"<f|g> = {den:g} below tolerance")
    return float(num / den)
