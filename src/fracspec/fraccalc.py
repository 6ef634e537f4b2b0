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
    fexp(alpha, x) = E_{a,1}(sign(x) |x|^a)

with E the (generalized) Mittag-Leffler function.  The integral over the
fractional measure du^alpha on [0, a] is the Riemann-Liouville integral
evaluated at the endpoint,

    I[f](a) = (1/Gamma(alpha)) int_0^a (a-u)^(alpha-1) f(u) du,

computed after the exact substitution s = (a-u)^alpha, which removes the
kernel's singularity, and the cubic map s = a^alpha t^2 (3 - 2t), which
grades the adaptive rule's nodes toward both ends, where u(s) and the
integrands still have power-type singularities.

Numerical strategy for the Mittag-Leffler sums: the series alternates and can
cancel 15+ digits at the largest arguments needed for zero scanning.  An
evaluation certifies first (`_ml_sum`; `PrecisionLoss` when the double-double
budget cannot meet the tolerance), then sums in float64 over coefficients
from math.gamma at the exact argument where the bound of a plain double
Horner pass (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
ed., 5.1) meets it, else in double-double over ones built in fixed point.
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
from importlib import resources

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
# Gamma tables: c_n = 1/Gamma(alpha n + beta) per (alpha, beta).  `extend`
# builds the float columns `hi` and `ratio` = hi[n]/hi[n+1]; `dd` the
# double-double ones `dhi` + `dlo` as far as a double-double pass reads, each
# by one Horner pass in fixed point (`_centred`), once, whatever the steps.
# ----------------------------------------------------------------------------

_GAMMA_TOP = 171.0  # math.gamma overflows past 171.62; 1/Gamma(171) is normal
_WP = 136  # bits of mpmath's rgamma, from _TAYLOR_TOP on
_CWP = 148  # fraction bits of `_centred`: the file's 140 and 8 guard bits
_TAYLOR_TOP = 200  # from x = 200 on mpmath's rgamma, faster: the one mpmath import


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
    __slots__ = ("alpha", "beta", "ratio", "hi", "dhi", "dlo", "spare")

    def __init__(self, alpha: float, beta: float):
        self.alpha, self.beta = alpha, beta
        self.ratio = array("d")  # G(a(n+1)+b)/G(an+b) as double
        self.hi = array("d")     # 1/G(an+b) within _COEFF_REL
        self.dhi = array("d")    # 1/G(an+b) = dhi + dlo as double-double
        self.dlo = array("d")
        self.spare = []  # [(p, r, s)] of entry len(dhi), if made for ratio

    def extend(self, n: int) -> None:
        """Build the float columns to index n exactly (none when present)."""
        k0 = m = len(self.ratio)
        a, b = self.alpha, self.beta
        while m <= n and a * (m + 1) + b < _GAMMA_TOP:  # from m on: fixed point
            m += 1
        if m > k0:
            hs = [_rgamma_at(a, k, b) for k in range(k0, m + 1)]
            self.hi.extend(hs[:-1])
            self.ratio.extend([h0 / h1 for h0, h1 in zip(hs, hs[1:])])
        if m <= n:
            self._build_fixed(n)

    def dd(self, n: int) -> tuple[array, array]:
        """The double-double columns up to index n, built on first read."""
        self.extend(n)
        if n >= len(self.dhi):
            self._build_fixed(n)
        return self.dhi[:n + 1], self.dlo[:n + 1]

    def _build_fixed(self, n: int) -> None:
        """Append the columns up to index n (the float ones from their end)."""
        k0, kf = len(self.dhi), len(self.ratio)
        ks = range(k0 + len(self.spare), n + 1 + (kf <= n))
        qs = self.spare + list(_rgamma_fixed(self.alpha, self.beta, ks))
        self.spare = qs[n + 1 - k0:]
        for k, (p, r, s) in enumerate(qs[:n + 1 - k0], k0):
            hn, hd = (hi := _quot(p, r, -s)).as_integer_ratio()
            self.dhi.append(hi)
            self.dlo.append(_quot(p * hd - (hn * r << s), r * hd, -s))
            if k >= kf:
                self.hi.append(hi)
                p1, r1, s1 = qs[k + 1 - k0]
                self.ratio.append(_quot(p * r1, r * p1, s1 - s))


@functools.cache
def _centred(m: int) -> tuple[int, ...]:
    """Gamma(m)/Gamma(m + y)'s Taylor coefficients, highest first, in 2^-148
    fixed point: data/rgamma_taylor.json's 43 for m <= 1, else m - 1's over
    1 + y/(m - 1), floored, grown while a term reaches 2^-148 at |y| = 1/2."""
    if m <= 1:
        import json
        text = (resources.files("fracspec.data") / "rgamma_taylor.json").read_text()
        return tuple(c << _CWP - 140 for c in json.loads(text))  # from 2^-140
    d, t = m - 1, 0
    h = [t := c - t // d for c in reversed(_centred(m - 1))]
    while abs(t := -(t // d)) >> len(h):
        h.append(t)
    return tuple(reversed(h))


def _rgamma_fixed(a: float, b: float, ks):
    """(p, r, s), p/r 2^-s = 1/Gamma(x), x = a k + b: below _TAYLOR_TOP,
    Horner's rule over `_centred(m)` at y = x - m, m = round(x), over (m - 1)!
    or times x if m = 0, within 2^-135 relative; beyond, mpf_rgamma, r = 1."""
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    d = max(ad, bd)  # both are powers of two
    an, bn, e = an * (d // ad), bn * (d // bd), d.bit_length() - 1
    for k in ks:
        xn = an * k + bn  # x = xn / 2^e
        if xn >> e >= _TAYLOR_TOP:
            from mpmath.libmp import from_man_exp, mpf_rgamma
            _, p, ex, _ = mpf_rgamma(from_man_exp(xn, -e), _WP)
            yield p, 1, -ex  # 1/Gamma(x) < 1.13, so ex <= 0
            continue
        m = (xn + (d >> 1)) >> e  # round(x), halves up
        y, p = xn - (m << e), 0  # y / 2^e = x - m, exact
        for c in _centred(m):
            p = c + (y * p >> e)
        yield (p, math.factorial(m - 1) << _CWP, 0) if m else (xn * p, d << _CWP, 0)


def _quot(n: int, d: int, s: int) -> float:
    """n/d 2^s (d > 0) correctly rounded, with no shift far past the float
    range (s may be huge): beyond it +-0.0 or +-inf, as float() of an mpf."""
    t = s + n.bit_length() - d.bit_length()  # |n/d| 2^s in (2^(t-1), 2^(t+1))
    try:
        if -1076 <= t <= 1025:
            return (n << s) / d if s >= 0 else n / (d << -s)
    except OverflowError:  # it rounds to 2^1024
        pass
    return (-1.0 if n < 0 else 1.0) * (math.inf if n and t > 0 else 0.0)


_TABLES: dict[tuple[float, float], _RatioTable] = {}


def _table(alpha: float, beta: float) -> _RatioTable:
    key = (float(alpha), float(beta))
    if (tab := _TABLES.get(key)) is None:
        tab = _TABLES[key] = _RatioTable(*key)
    return tab


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
_GROW = 16  # a table read to its end grows to _GROW indices past it


def _positive_series(tab: _RatioTable, zabs: float,
                     floor: float) -> tuple[int, float, float]:
    """Size the series at |z| = zabs from the positive-axis terms
    t_n = zabs^n / Gamma(alpha n + beta), summed in plain double.

    |t_n(z)| = t_n(|z|) grows with |z|, so the result bounds every argument
    of modulus <= zabs.  Stops at the first n >= 3 with t_n <= t_{n-1}/2
    (the tail beyond is then below t_n) and t_n <= floor.
    Returns (N, sum_{n<=N} t_n, t_N); the sum is inf when it overflows, is
    nan, or needs more than _MAX_TERMS terms.  The table holds coefficient
    N on return: `_grow` extends it each time the loop reaches its end.
    """
    ratio, inf = tab.ratio, math.inf
    if len(ratio) < 2 and not _grow(tab, zabs):
        return _MAX_TERMS + 1, inf, inf
    t = prev = s = tab.hi[0]
    n, end = 0, len(ratio) - 1
    while True:
        if n == end:
            if not _grow(tab, zabs):
                return _MAX_TERMS + 1, inf, inf
            end = len(ratio) - 1
        t *= zabs / ratio[n]
        s += t
        n += 1
        if not s < inf or n > _MAX_TERMS:
            return n, inf, t
        if t <= floor and t <= 0.5 * prev and n >= 3:
            return n, s, t
        prev = t


def _grow(tab: _RatioTable, zabs: float) -> bool:
    """Extend tab to index len(ratio) + _GROW, at most _MAX_TERMS + 2.  Returns
    False, building nothing, when the ratio at _MAX_TERMS (the largest: Gamma
    is log-convex) is below 2 zabs and t there is a normal double (log t_k is
    concave, so none is subnormal, whose rounding could stop the loop)."""
    a, b = tab.alpha, tab.beta
    m = a * _MAX_TERMS + b
    if (math.exp(math.lgamma(m + a) - math.lgamma(m) + 1e-6) < 2 * zabs
            and _MAX_TERMS * math.log(zabs) - math.lgamma(m) > -700.0):
        return False
    tab.extend(min(len(tab.ratio) + _GROW, _MAX_TERMS + 2))
    return True


# An array of 2 to _BLOCKED_POINTS points is summed four coefficients per
# pass.  Its time over the in-place loop's, 20-60 terms: 0.42-0.92 at 100
# points, 0.77-1.20 at 4,000, 0.88-1.13 at 8,000, 3.8-4.3 at the cubature's
# 357,760; its temporaries, (5 + R) m doubles, are about 13 MB at 1,600 terms.
_BLOCKED_POINTS = 4096
# Only larger arrays: in place over blocks of _HORNER_BLOCK points that stay
# in cache.  65 terms over 357,760 points: 11-13 ms; at 8,192: 12-17
_HORNER_BLOCK = 65536


def _horner(coeffs, z):
    """sum_n coeffs[n] * z**n in plain double, c_0 ... c_N = coeffs.

    A float, or an array of fewer than two points: Horner's rule.  An array
    of 2 to _BLOCKED_POINTS points, each |z| < 2^255 so that z^4 is finite:
    Horner's rule of order four (W. S. Dorn, IBM J. Res. Dev. 6(2), 1962).
    The powers P = (1, z, z^2, z^3, z^4) come by repeated multiplication;
    the block values b_j = sum_{i<4} c_{4j+i} z^i, c zero past N, all come
    from one np.einsum, numpy's own loop (no BLAS, so no dependence on its build or thread
    count); then Horner's rule in w = z^4 runs over the R = ceil((N + 1)/4)
    rows in place.  A term passes through at most 6 + 5J roundings, J =
    R - 1: 2 in z^i, 1 in c_n z^i and 3 in the block sum, then per step 3 in
    w, 1 in the product and 1 in the addition.  As J <= N/4, that is at most
    2N + 3 for every N >= 2, the count the float bound of `_ml_sum` charges
    (Higham, 5.1).  Any other array: acc *= z; acc += c in place, over
    blocks of _HORNER_BLOCK points (the roundings of acc * z + c, bitwise
    the float rule)."""
    if not (isinstance(z, np.ndarray) and z.ndim):
        acc = coeffs[-1]
        for c in coeffs[-2::-1]:
            acc = acc * z + c
        return acc
    flat, m = z.reshape(-1), z.size
    # past 2^255 a zero c_n times an inf power would read nan; one point
    # sums by the float rule (as a 1-point P, einsum would take a
    # dot-product kernel that sums the block in another order)
    if 1 < m <= _BLOCKED_POINTS and np.abs(flat).max() < 2.0**255:
        p = np.empty((5, m))
        p[0], p[1] = 1.0, flat
        for i in (2, 3, 4):
            np.multiply(p[i - 1], flat, out=p[i])
        rows = -(-len(coeffs) // 4)
        c = np.zeros(4 * rows)
        c[:len(coeffs)] = coeffs
        b = np.einsum("ij,jk->ik", c.reshape(rows, 4), p[:4], optimize=False)
        acc = b[-1].copy()  # a view would keep all R rows alive
        for row in b[-2::-1]:
            acc *= p[4]
            acc += row
        return acc.reshape(z.shape)
    out = np.empty(m)
    for s in range(0, m, _HORNER_BLOCK):
        zb, acc = flat[s:s + _HORNER_BLOCK], out[s:s + _HORNER_BLOCK]
        acc.fill(coeffs[-1])
        for c in coeffs[-2::-1]:
            acc *= zb
            acc += c
    return out.reshape(z.shape)


def _ml_sum(alpha: float, beta: float, z, tol: float, signs: bool = False):
    """Certified sum of E_{alpha,beta}(z) for a float or an ndarray z.

    Certify first: the positive series at max|z|, sized down to terms below
    min(tol, 1) * 1e-3, fixes the term count N and the mass S = sum|t_n|
    for every element (both scaled by 1 + N (2 _COEFF_REL + 3u) for the
    float ratios and roundings); PrecisionLoss is raised before summing
    when the double-double bound _ERR_UNIT S + 2 t_N exceeds tol.  Where
    the float64 bound ((2N + 3) u + _COEFF_REL) S + 2 t_N (at most 2N + 3
    roundings per term in `_horner`: 2N in the plain rule, up to 6 + 5J in
    the blocked one; the error of `hi`) meets tol too and the last `hi` is
    normal, `hi` is summed in plain double, else `tab.dd(N)` in
    double-double.  A float value with |value| <= the float bound, whose
    sign that leaves open (float rounding near a root of small slope can
    move the sign change past a root tolerance), is summed again in
    double-double for the root refinement; so, in signs mode only, are such
    elements of an array.  Elsewhere the float bound already meets tol.
    PrecisionLoss is raised when rounding to double pushes a bound past tol.
    The floor's 1e-3 leaves room in tol for the roundings; its cap at 1
    keeps a loose tol (the weakest states of `equivalent_potential` ask for
    up to 6e9) from cutting the series far above the scale of values near
    1, where every element would read as weak and be summed again in
    double-double.

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
    # a floor below 0 (tol < 0 or nan) stops the sizing where t_n underflows
    n, mass, last = _positive_series(tab, zmax, max(0.0, min(tol, 1.0) * 1e-3))
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
        if not isinstance(val, np.ndarray):
            val = None if abs(val) <= ferr else val
        elif signs:
            weak = np.abs(val) <= ferr  # a mask: z may have any shape
            # one double-double pass over 1-400 points costs as much as 26-55
            # over one float (BENCH_12.json): fewer than 40 go singly, bitwise
            if (nweak := np.count_nonzero(weak)) >= 40:
                whi, wlo = dd_horner(*tab.dd(n), z[weak])
                val[weak] = whi + wlo
            elif nweak:
                dhi, dlo = tab.dd(n)
                val[weak] = [h + l for h, l in (dd_horner(dhi, dlo, x)
                                                for x in z[weak].tolist())]
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
    return float(np.abs(v).max(initial=0.0)) if isinstance(v, np.ndarray) else abs(v)


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


def _check_int(fn: str, least: int, **values) -> None:
    for name, v in values.items():
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < least:
            raise ValueError(f"{fn} requires an integer {name} >= {least}, got {v!r}")


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
    gamma's argument < 1e-13, the sine's < 2e-13; (4K + 8) u for Horner,
    at most 6 + 5J <= 2K + 4 roundings in `_horner`, and powers of t), of
    the pair (angle and exponent round by a few u t) and of the value."""
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
    """exp(alpha, chi(x)) = E_{alpha,1}(sign(x)|x|^alpha), one certified sum."""
    alpha = _check_alpha(alpha)
    x = _coerce(x)
    return _ml_sum(alpha, 1.0, _coerce(np.sign(x) * abs(x) ** alpha), tol)[0]


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
    def _ml(cls, alpha: float, k: float, parity):
        """The exp series (parity None), or its even (0) or odd (1) terms
        with alternating signs, to DEFAULT_TERMS: coefficients
        1/Gamma(alpha m + 1) from one sized table build."""
        _check_alpha(alpha)
        tab = _table(alpha, 1.0)
        tab.extend(DEFAULT_TERMS - 1)
        c = [g if parity is None else (-1) ** (m // 2) * g if m % 2 == parity
             else 0.0 for m, g in enumerate(tab.hi[:DEFAULT_TERMS])]
        return cls(alpha=alpha, coeffs=tuple(c), k=k)

    @classmethod
    def cosine(cls, alpha: float, k: float = 1.0):
        """Series of cos(alpha, kx) in the chi-power basis."""
        return cls._ml(alpha, k, 0)

    @classmethod
    def sine(cls, alpha: float, k: float = 1.0):
        """Series of sin(alpha, kx)."""
        return cls._ml(alpha, k, 1)

    @classmethod
    def exponential(cls, alpha: float, k: float = 1.0):
        """Series of exp(alpha, chi(kx))."""
        return cls._ml(alpha, k, None)

    @classmethod
    def monomial(cls, alpha: float, n: int, k: float = 1.0):
        """chi^n(kx) = sign(kx)^n |kx|^(n alpha)."""
        _check_int("FracSeries.monomial", 0, n=n)
        return cls(alpha=alpha, coeffs=(0.0,) * n + (1.0,), k=k)

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
    tab = _table(a, 1.0)
    tab.extend(len(series.coeffs) - 2)  # builds nothing for a constant series
    out = tuple(scale * c * r for c, r in zip(series.coeffs[1:], tab.ratio))
    return FracSeries(alpha=a, coeffs=out or (0.0,), k=k)


# ----------------------------------------------------------------------------
# Fractional integral, scalar product, expectation values.
# ----------------------------------------------------------------------------


def rl_nodes(alpha: float, a: float, n: int):
    """Nodes/weights (u_i, w_i) with I^alpha[f](a) ~= sum w_i f(u_i).

    Uses the exact substitution s = (a-u)^alpha, so the weight function is
    removed, and Gauss-Legendre in s.  u(s) = a - s^(1/alpha) is not smooth
    at s = 0, so the rule converges slowly: at n = 128 it differs from
    frac_integral by up to 3.8e-9 relative on psi^2 of the first eight well
    states at alpha 0.55-1.
    """
    _check_alpha(alpha)
    _check_positive("rl_nodes", a=a)
    _check_int("rl_nodes", 1, n=n)
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
QUAD_TOL = 1e-8  # frac_integral's relative adaptive target


def frac_integral(f, alpha: float, a: float):
    """Riemann-Liouville integral (1/Gamma(alpha)) int_0^a (a-u)^(alpha-1) f(u) du.

    f(u) has u's shape (a float result) or (k, len(u)): k integrands on one
    panel set (k results).  s = (a-u)^alpha removes the kernel but leaves
    power-type singularities at both ends: u = a - s^(1/alpha) at s = 0,
    and f's own at u = 0 (|u|^(2 alpha) of psi^2).  The cubic map
    s = a^alpha t^2 (3 - 2t), Jacobian 6 a^alpha t (1 - t), turns an end
    behaviour x^g into t^(2g+1) (Davis and Rabinowitz, 2nd ed., 1984, 2.9).
    Adaptive Gauss-Legendre bisection of t in [0, 1], one level (depth) at
    a time, started from the depth-1 panels [0, 1/2] and [1/2, 1] (Shampine,
    J. Comput. Appl. Math. 211, 2008): one call of f evaluates the 32- and
    16-point rules on every open panel.  A panel is accepted when in every
    row they differ by <= 0.5 QUAD_TOL max(scale, |v32|) or 1e-16 scale
    (scale: the row's |accepted| + sum of |v32| over the open panels), else
    bisected; relative error ~QUAD_TOL.  Raises ValueError unless a is
    finite and positive and f(u) is so shaped, or at the first level where
    f(u) is not finite; QuadratureFailure when a panel fails at depth 28 or
    a split would start with MAX_PANELS panels evaluated.
    """
    _check_alpha(alpha)
    _check_positive("frac_integral", a=a)
    smax, inv_alpha = a**alpha, 1.0 / alpha
    jac = 6.0 * smax / gamma(alpha + 1.0)
    lo, hi = np.array([0.0, 0.5]), np.array([0.5, 1.0])
    acc, scale, n_panels, depth = 0.0, 1e-300, 2, 1
    while True:
        h, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
        t = (mid[:, None] + h[:, None] * _GL_NODES).ravel()
        s = smax * t * t * (3.0 - 2.0 * t)
        v = _values(f, np.clip(a - s**inv_alpha, 0.0, a)) * (jac * t * (1.0 - t))
        vals = v.reshape(-1, len(h), len(_GL_NODES))  # rows, panels, 48
        v32 = h * (vals[..., :32] @ _GL32[1])
        e = np.abs(v32 - h * (vals[..., 32:] @ _GL16[1]))
        # fmax like max(): a nan row sum leaves the scale as it was
        scale = np.fmax(scale, np.abs(acc) + np.abs(v32).sum(1, keepdims=True))
        ok = ((e <= QUAD_TOL * np.maximum(scale, np.abs(v32)) * 0.5)
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
    bad = v.size - np.count_nonzero(np.isfinite(v))
    if bad:
        raise ValueError(f"integrand returned {bad} non-finite values of "
                         f"{v.size}")
    return v


def sym_integral(f, alpha: float, a: float):
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

    return frac_integral(even_part, alpha, a)


def _rows(u, f, g, op=None):
    """f(u) g(u), stacked under f(u) O(u) g(u) if op; g unused if g == f."""
    fu = np.asarray(f(u), float)
    p = fu * (fu if g == f else np.asarray(g(u), float))
    return p if op is None else np.stack([p * np.asarray(op(u), float), p])


def scalar_product(f, g, alpha: float, a: float) -> float:
    """Real <f|g> over [-a, a] under du^alpha; g is called only if g != f."""
    return sym_integral(lambda u: _rows(u, f, g), alpha, a)


def expectation(op, f, g, alpha: float, a: float) -> float:
    """<f|O|g>/<f|g> with O a pointwise map u -> factor, over [-a, a]: two
    rows of one sym_integral (one panel set); g is called only if g != f.
    Raises DegenerateNorm when <f|g> is too small to divide by."""
    num, den = sym_integral(lambda u: _rows(u, f, g, op), alpha, a)
    if abs(den) < 1e-12 * max(abs(num), 1.0):
        raise DegenerateNorm(f"<f|g> = {den:g} below tolerance")
    return float(num / den)
