"""Bound-state machinery for the fractional wave equation: zeros of the
fractional trig functions, infinite-well eigenstates and energies in one and
N dimensions, the radial ground state, spherical-well energies, and the
equivalent-potential reconstruction.

Roots are reported on the (pi/2)-scaled axis used throughout the plots: the
scaled root x solves f(alpha, (pi/2) x) = 0, so at alpha = 1 the combined
cos/sin zeros sit at x = 1, 2, 3, ...  Physical wave numbers are the
unscaled values k0 = (pi/2) x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fraccalc import (
    AlphaContext,
    HALF_PI,
    PrecisionLoss,
    _check_alpha,
    _check_positive,
    _horner,
    _table,
    _trig,
    frac_cos,
    frac_sin,
    rl_nodes,
)

__all__ = [
    "NoZeros",
    "CutoffTooSmall",
    "ZeroScan",
    "WellState",
    "RadialGround",
    "find_zeros",
    "well_states_1d",
    "well_energy_nd",
    "free_energy",
    "radial_ground",
    "spherical_ground_energy",
    "equivalent_potential",
]

SCAN_STEP = 0.01  # on the (pi/2)-scaled axis; root spacing there is >~ 0.5
_EPS = 2.0**-52


class NoZeros(ArithmeticError):
    """No sign change found in the scanned domain (expected for alpha <= 1/2)."""


class CutoffTooSmall(ValueError):
    """Boltzmann tail of the excluded states exceeds the budget."""


@dataclass(frozen=True)
class ZeroScan:
    """Scaled positive roots plus a completeness flag (False when the
    function stopped crossing zero before `count` roots were found)."""

    roots: tuple
    complete: bool

    def __iter__(self):
        return iter(self.roots)

    def __len__(self):
        return len(self.roots)

    def __getitem__(self, i):
        return self.roots[i]


def _brackets(vs):
    """Indices i of the scan intervals [x_i, x_i+1] holding a root: a sign
    change, or an exact 0 at x_i+1 after a nonzero value, so a root landing
    on a scan point is reported once."""
    s = np.sign(vs)  # a product of the values themselves can overflow
    a, b = s[:-1], s[1:]
    return np.flatnonzero((a * b < 0.0) | ((b == 0.0) & (a != 0.0)))


def _refine(f, a: float, b: float, fa: float, fb: float, xtol: float) -> float:
    """Zero of f in the sign-change bracket [a, b] (fa, fb = f(a), f(b)) by
    Brent's method (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4): inverse quadratic or secant steps, with a
    bisection fallback whenever they stall or would leave the bracket.

    The result never leaves [a, b] and lies within xtol of a sign change
    of f (within a few ulps when xtol is below float resolution).
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = max(0.5 * xtol, 2.0 * _EPS * abs(b))
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        if fb * math.copysign(1.0, fc) > 0.0:
            c, fc = a, fa
            d = e = b - a


def find_zeros(kind: str, alpha: float, count: int, x_max: float,
               xtol: float = 1e-10, eval_tol: float = 1e-9) -> ZeroScan:
    """First `count` positive roots of frac_cos/frac_sin(alpha, (pi/2) x) on
    (0, x_max], on the scaled axis.

    Scans with step SCAN_STEP in chunks of certified signs (a float64 pass,
    summed again in double-double only near zero), brackets sign changes and
    exact zeros, refines to xtol, and stops once `count` roots are found.  A
    chunk's roots are refined at eval_tol, or at twice the bound the chunk
    reached when that exceeds it.  Raises NoZeros when no sign change exists
    in the whole scanned domain (the alpha <= 1/2 regime); returns fewer
    roots with complete=False when the function stops crossing zero later
    on.  Raises ValueError past the representable amplitude range.
    """
    _check_alpha(alpha)
    if count < 1:
        raise ValueError("count must be >= 1")
    _check_positive("find_zeros", x_max=x_max)
    if kind not in ("cos", "sin"):
        raise ValueError("kind must be 'cos' or 'sin'")
    odd = kind == "sin"
    f = frac_sin if odd else frac_cos
    roots: list[float] = []
    chunk = 400  # scan points per vector evaluation
    x0 = SCAN_STEP
    prev_x = prev_v = None
    while x0 <= x_max and len(roots) < count:
        xs = x0 + SCAN_STEP * np.arange(chunk)
        xs = xs[xs <= x_max + 0.5 * SCAN_STEP]
        if len(xs) == 0:
            break
        try:
            vs, reached = _trig(alpha, HALF_PI * xs, eval_tol, odd, signs=True)
        except PrecisionLoss:
            raise ValueError(
                f"scan limit x={xs[-1]:g} (scaled) is beyond the representable "
                f"amplitude range for alpha={alpha:g}"
            ) from None
        # rounding amplitudes ~1e8 (alpha > 1) or the series bound at large x
        # exceeds eval_tol but moves no certified sign; refine within it
        tol = eval_tol if reached <= eval_tol else 2.0 * reached
        if prev_x is not None:
            xs = np.concatenate(([prev_x], xs))
            vs = np.concatenate(([prev_v], vs))
        for i in _brackets(vs):
            if len(roots) >= count:
                break
            g = lambda x: float(f(alpha, HALF_PI * x, tol))
            roots.append(_refine(g, float(xs[i]), float(xs[i + 1]),
                                 float(vs[i]), float(vs[i + 1]), xtol))
        prev_x = float(xs[-1])
        prev_v = float(vs[-1])
        x0 = prev_x + SCAN_STEP
    if not roots:
        raise NoZeros(
            f"frac_{kind}(alpha={alpha:g}) has no zero on (0, {x_max:g}] "
            f"(scaled axis); none exist for alpha <= 1/2"
        )
    return ZeroScan(roots=tuple(roots), complete=len(roots) >= count)


@dataclass(frozen=True)
class WellState:
    """One eigenstate of the 1D infinite well of half-width a (fm).

    k0 is the unscaled root of the free solution (cos root for even parity,
    sin root for odd); psi(x) = cos/sin(alpha, k0 x / a) vanishes at +-a.
    Energies are in MeV once the context carries MeV units.
    """

    alpha: float
    n: int
    parity: str
    k0: float
    a: float
    energy: float

    def psi(self, x):
        f = frac_cos if self.parity == "even" else frac_sin
        return f(self.alpha, self.k0 * np.asarray(x, float) / self.a)


def _interleaved_roots(alpha: float, count: int, x_max: float,
                       eval_tol: float = 1e-9):
    """Combined, sorted cos/sin roots with parity labels (cos first at
    alpha near 1).  Returns (list of (k0_unscaled, parity), complete)."""
    want = count // 2 + 2
    rc = find_zeros("cos", alpha, want, x_max, eval_tol=eval_tol)
    try:
        rs = find_zeros("sin", alpha, want, x_max, eval_tol=eval_tol)
        sin_roots = list(rs.roots)
    except NoZeros:
        sin_roots = []
    tagged = [(r * HALF_PI, "even") for r in rc.roots]
    tagged += [(r * HALF_PI, "odd") for r in sin_roots]
    tagged.sort()
    complete = len(tagged) >= count
    return tagged[:count], complete


def well_states_1d(alpha: float, count: int, a: float,
                   ctx: AlphaContext) -> list[WellState]:
    """Lowest `count` eigenstates of the infinite well on [-a, a].

    States alternate parity with increasing root location; the energy is
    e_n = (1/2) mc^2 (hbar/(mc a))^(2 alpha) |k0_n|^(2 alpha).
    Returns fewer states when the zero set is exhausted (finite for
    1/2 < alpha < 1); raises NoZeros when there are none at all.
    """
    if count < 1:
        raise ValueError(f"well_states_1d requires count >= 1: {count}")
    _check_positive("well_states_1d", a=a)
    x_max = 2.0 * count + 20.0
    tagged, _ = _interleaved_roots(alpha, count, x_max)
    return [WellState(alpha=alpha, n=n, parity=parity, k0=k0, a=a,
                      energy=free_energy(alpha, k0 / a, ctx))
            for n, (k0, parity) in enumerate(tagged)]


def well_energy_nd(alpha: float, indices: list[int], half_widths: list[float],
                   ctx: AlphaContext) -> float:
    """Separable N-dimensional well energy
    (1/2) mc^2 (hbar/mc)^(2 alpha) sum_i |k0_{n_i}/a_i|^(2 alpha)."""
    if len(indices) != len(half_widths) or len(indices) == 0:
        raise ValueError("indices and half_widths must be non-empty and of "
                         "equal length")
    for n in indices:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
            raise ValueError(f"well_energy_nd indices must be integers >= 0: {n!r}")
    _check_positive("well_energy_nd", **{f"half_widths[{i}]": a
                                         for i, a in enumerate(half_widths)})
    nmax = max(indices)
    tagged, complete = _interleaved_roots(alpha, nmax + 1, 2.0 * (nmax + 1) + 20.0)
    if not complete:
        raise NoZeros(f"only {len(tagged)} well states exist at alpha={alpha:g}")
    return sum(free_energy(alpha, tagged[n][0] / a, ctx)
               for n, a in zip(indices, half_widths))


def free_energy(alpha: float, k: float, ctx: AlphaContext) -> float:
    """Free-particle dispersion E = (1/2) mc^2 (hbar|k|/(mc))^(2 alpha),
    k in 1/fm when the context is in MeV/fm units."""
    _check_alpha(alpha)
    return 0.5 * ctx.mc2 * (ctx.hbar_c * abs(k) / ctx.mc2) ** (2.0 * alpha)


# ----------------------------------------------------------------------------
# Radial ground state.
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialGround:
    """Spherical free ground state g(N, alpha, z) = sum (-1)^n a_n z^(2 alpha n)
    with the recurrence a_j = a_{j-1} / ((N-1) j eta_1 + eta_j),
    eta_j = Gamma(1+2 alpha j)/Gamma(1+2 alpha (j-1)).

    first_zero is the unscaled first positive root (pi for N=3, alpha=1).
    """

    N: int
    alpha: float
    coeffs: tuple
    first_zero: float

    def g(self, z):
        """Evaluate g at (array of) unscaled argument z = |k| r."""
        return self.g_of_rho(np.asarray(z, float) ** (2.0 * self.alpha))

    def g_of_rho(self, rho):
        """g as a function of rho = sum_i |k x_i|^(2 alpha) (Cartesian form)."""
        signed = [-c if n % 2 else c for n, c in enumerate(self.coeffs)]
        return _horner(signed, np.asarray(rho, float))

    @property
    def first_zero_scaled(self) -> float:
        return self.first_zero / HALF_PI


def radial_ground(N: int, alpha: float) -> RadialGround:
    """Radial ground-state series (64 terms past a_0) and its first zero for
    the N-dimensional spherical problem.  Raises NoZeros if no root lies in
    the scan range (0, 20] on the (pi/2)-scaled axis."""
    if N < 2:
        raise ValueError("N must be >= 2")
    _check_alpha(alpha)
    tab = _table(2.0 * alpha, 1.0)
    tab.extend(65)
    eta = tab.ratio  # eta[j-1] = eta_j
    coeffs = [1.0]
    for j in range(1, 65):
        coeffs.append(coeffs[-1] / ((N - 1) * j * eta[0] + eta[j - 1]))
    ground = RadialGround(N, alpha, tuple(coeffs), first_zero=math.nan)
    xs = np.arange(SCAN_STEP, 20.0 + SCAN_STEP, SCAN_STEP) * HALF_PI
    vs = ground.g(xs)
    idx = _brackets(vs)
    if len(idx) == 0:
        raise NoZeros(
            f"radial ground state g(N={N}, alpha={alpha:g}) has no zero on "
            "(0, 20] (scaled axis)"
        )
    i = idx[0]
    root = _refine(lambda z: float(ground.g(z)), float(xs[i]),
                   float(xs[i + 1]), float(vs[i]), float(vs[i + 1]), 1e-12)
    return replace(ground, first_zero=root)


def spherical_ground_energy(N: int, alpha: float, r0: float,
                            ctx: AlphaContext) -> float:
    """Ground-state energy of the infinite spherical well,
    e0 = (1/2) mc^2 (hbar k0_sph / (mc r0))^(2 alpha)."""
    _check_positive("spherical_ground_energy", r0=r0)
    return free_energy(alpha, radial_ground(N, alpha).first_zero / r0, ctx)


# ----------------------------------------------------------------------------
# Equivalent potential of the ordinary Schroedinger equation.
# ----------------------------------------------------------------------------


def equivalent_potential(alpha: float, T: float, n_states: int, grid):
    """V(x)/T of the ordinary-equation potential whose thermal density
    matches the fractional well's, on the dimensionless well [-1, 1]:

        V/T = -ln( sum_n psi_n^2 e^(-E_n/T) / sum_n e^(-E_n/T) ),

    shifted so the minimum over the grid is zero.  psi_n are normalised
    under the alpha-measure; energies use hbar = m = c = a = 1.

    The cutoff must satisfy exp(-E_last/T) < 1e-8; CutoffTooSmall is raised
    when the estimated tail weight exceeds 1e-6.
    """
    _check_alpha(alpha)
    _check_positive("equivalent_potential", T=T)
    if n_states < 1:
        raise ValueError(f"equivalent_potential requires n_states >= 1: {n_states}")
    grid = np.asarray(grid, float)
    if not np.isfinite(grid).all():
        raise ValueError("grid points must be finite")
    tagged, complete = _interleaved_roots(alpha, n_states + 1,
                                          2.0 * n_states + 30.0,
                                          eval_tol=1e-6)
    # free_energy at hbar = m = c = 1: E = k^(2 alpha)/2
    weights = [math.exp(-0.5 * k ** (2.0 * alpha) / T) for k, _ in tagged]
    # tail estimate: geometric continuation from the first excluded state;
    # none when the spectrum is exhausted (finite zero set)
    tail = 0.0
    if len(tagged) > n_states:
        w_next = weights.pop()
        ratio = w_next / weights[-1] if weights[-1] > 0 else 0.0
        tail = w_next / (1.0 - ratio) if ratio < 1.0 else math.inf
    if weights[-1] > 1e-8 or tail > 1e-6:
        raise CutoffTooSmall(
            f"cutoff weight {weights[-1]:.2e} (tail ~{tail:.2e}) exceeds the "
            f"budget; raise n_states or lower T"
        )
    u, wq = rl_nodes(alpha, 1.0, 128)
    rho = np.zeros_like(grid)
    Z = 0.0
    for (k, parity), wn in zip(tagged, weights):
        f = frac_cos if parity == "even" else frac_sin
        tol_n = max(1e-9, 1e-9 / max(wn, 1e-300))
        psi_q = f(alpha, k * u, tol_n)
        norm2 = 2.0 * float(np.dot(wq, psi_q * psi_q))
        psi_g = f(alpha, k * grid, tol_n)
        rho += wn * (psi_g * psi_g) / norm2
        Z += wn
    rho /= Z
    v = -np.log(rho)
    v -= v.min()
    return list(zip(grid.tolist(), v.tolist()))
