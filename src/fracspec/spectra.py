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
    AlphaContext, HALF_PI, PrecisionLoss, _ROUND_UNIT, _absmax, _check_alpha,
    _check_int, _check_positive, _far_signed, _horner, _table, _trig, frac_cos,
    frac_sin, rl_nodes,
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
        tol = max(0.5 * xtol, 4.0 * _ROUND_UNIT * abs(b))
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


def _scan(alpha: float, kinds: tuple, count: int, x_max: float,
          xtol: float = 1e-10) -> list:
    """The lowest `count` (scaled root, kind) pairs on (0, x_max] of the kinds
    asked for ("cos", "sin" or both), sorted; fewer when the zero sets run out.
    Every kind is evaluated on the same chunks of certified signs (a float64
    pass, summed again in double-double only near zero) before any bracket
    is refined.  With `need` roots still missing, the brackets of all kinds
    up to the need-th lowest left index (ties included) are refined to xtol
    at one tolerance, 1e-9, or at twice the bound the chunk reached when
    that exceeds it: a root lies in its bracket, so these hold the lowest
    roots, and the scan stops at the first chunk that completes `count`.
    For 1/2 < alpha < 1 a kind is no longer evaluated once `_far_signed`
    proves it signed from the previous chunk's last point on, and the scan
    stops when every kind is: the chunks it skips hold no bracket.
    ValueError past the representable amplitude range.
    For alpha <= 1/2 there is nothing to scan: with a = 2 alpha <= 1,
    E_{a,1}(-t) and E_{a,1+alpha}(-t) are completely monotone on t >= 0
    (Pollard, Bull. AMS 54, 1948; Schneider, Expo. Math. 14, 1996), so
    positive, and neither kind has a zero.
    """
    if alpha <= 0.5:
        return []
    found = {kind: [] for kind in kinds}
    live = dict(found)  # the kinds that may have a zero left
    head_x, head_v = [], {kind: [] for kind in kinds}  # previous chunk's end
    x0, steps = SCAN_STEP, SCAN_STEP * np.arange(400)  # points per chunk
    while x0 <= x_max and (need := count - sum(map(len, found.values()))) > 0:
        if head_x and not (live := {k: r for k, r in live.items() if not _far_signed(
                alpha, k == "sin", HALF_PI * head_x[0])}):
            break
        xs = x0 + steps
        if xs[-1] > x_max + 0.5 * SCAN_STEP:  # only the last chunk
            xs = xs[xs <= x_max + 0.5 * SCAN_STEP]
        xk, hx, chunk = np.concatenate((head_x, xs)), HALF_PI * xs, []
        for kind, roots in live.items():
            try:
                vs, reached = _trig(alpha, hx, 1e-9, kind == "sin", signs=True)
            except PrecisionLoss:
                raise ValueError(f"scan limit x={xs[-1]:g} (scaled) is beyond "
                                 "the representable amplitude range for "
                                 f"alpha={alpha:g}") from None
            # rounding amplitudes ~1e8 (alpha > 1) or the series bound at large
            # x exceeds 1e-9 but moves no certified sign; refine within it
            tol = 1e-9 if reached <= 1e-9 else 2.0 * reached
            vs = np.concatenate((head_v[kind], vs))
            head_v[kind] = [float(vs[-1])]
            chunk.append((roots, kind == "sin", tol, vs, _brackets(vs).tolist()))
        # the need-th lowest left index over the kinds (the last, when fewer)
        cut = max(sorted(i for *_, b in chunk for i in b)[:need], default=0)
        for roots, odd, tol, vs, b in chunk:
            g = lambda x: _trig(alpha, HALF_PI * x, tol, odd, False)[0]
            for i in b:
                if i <= cut:
                    roots.append(_refine(g, float(xk[i]), float(xk[i + 1]),
                                         float(vs[i]), float(vs[i + 1]), xtol))
        head_x = [float(xs[-1])]
        x0 = head_x[0] + SCAN_STEP
    return sorted((r, kind) for kind in kinds for r in found[kind])[:count]


def find_zeros(kind: str, alpha: float, count: int, x_max: float,
               xtol: float = 1e-10) -> ZeroScan:
    """First `count` positive roots of frac_cos/frac_sin(alpha, (pi/2) x) on
    (0, x_max], on the scaled axis, from `_scan` of one kind, which stops
    where the far-field bound proves that no zero remains (sin at alpha 0.6,
    x_max 16: after 2 of 4 chunks).  Fewer roots come with complete=False
    when the function stops crossing zero; NoZeros (none found, as for every
    alpha <= 1/2) is raised here, not in the scan, so that the exception
    keeps no chunk alive."""
    _check_alpha(alpha)
    _check_int("find_zeros", 1, count=count)
    _check_positive("find_zeros", x_max=x_max, xtol=xtol)
    if kind not in ("cos", "sin"):
        raise ValueError("kind must be 'cos' or 'sin'")
    roots = tuple(r for r, _ in _scan(alpha, (kind,), count, x_max, xtol))
    if not roots:
        why = "; none exist for alpha <= 1/2" if alpha <= 0.5 else ""
        raise NoZeros(f"frac_{kind}(alpha={alpha:g}) has no zero on "
                      f"(0, {x_max:g}] (scaled axis){why}")
    return ZeroScan(roots=roots, complete=len(roots) >= count)


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


def well_states_1d(alpha: float, count: int, a: float,
                   ctx: AlphaContext) -> list[WellState]:
    """Lowest `count` eigenstates of the infinite well on [-a, a].

    States alternate parity with increasing root location; the energy is
    e_n = (1/2) mc^2 (hbar/(mc a))^(2 alpha) |k0_n|^(2 alpha).  One `_scan`
    of cos (even) and sin (odd) roots to scaled x 2 count + 20, the well's
    one scan limit, finds them: fewer when the zero set is exhausted (finite
    for 1/2 < alpha < 1), NoZeros when there are none at all.
    """
    _check_int("well_states_1d", 1, count=count)
    _check_positive("well_states_1d", a=a)
    x_max = 2.0 * count + 20.0
    pairs = _scan(alpha, ("cos", "sin"), count, x_max)
    if not pairs:
        raise NoZeros(f"no well state at alpha={alpha:g}: neither frac_cos nor "
                      f"frac_sin has a zero on (0, {x_max:g}] (scaled axis)")
    return [WellState(alpha=alpha, n=n,
                      parity="even" if kind == "cos" else "odd",
                      k0=r * HALF_PI, a=a,
                      energy=free_energy(alpha, r * HALF_PI / a, ctx))
            for n, (r, kind) in enumerate(pairs)]


def well_energy_nd(alpha: float, indices: list[int], half_widths: list[float],
                   ctx: AlphaContext) -> float:
    """Separable N-dimensional well energy
    (1/2) mc^2 (hbar/mc)^(2 alpha) sum_i |k0_{n_i}/a_i|^(2 alpha)."""
    if len(indices) != len(half_widths) or len(indices) == 0:
        raise ValueError("indices and half_widths must be non-empty and of "
                         "equal length")
    _check_int("well_energy_nd", 0, **{f"indices[{i}]": n
                                       for i, n in enumerate(indices)})
    _check_positive("well_energy_nd", **{f"half_widths[{i}]": a
                                         for i, a in enumerate(half_widths)})
    states = well_states_1d(alpha, max(indices) + 1, 1.0, ctx)
    if len(states) <= max(indices):
        raise NoZeros(f"only {len(states)} well state"
                      f"{' exists' if len(states) == 1 else 's exist'} "
                      f"at alpha={alpha:g}")
    return sum(free_energy(alpha, states[n].k0 / a, ctx)
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
        rho = np.asarray(rho, float)
        return self._g_below(rho, _absmax(rho))

    def _g_below(self, rho, top: float):
        """g at |rho| <= top: a_n at -rho to the first n >= 3 where t_n = a_n
        top^n <= 1e-3 u and <= t_(n-1)/2, else all 65; as a_n/a_(n-1) falls
        with n, the terms left out sum to less than t_n."""
        p, t = 1.0, 1.0
        for n, a in enumerate(self.coeffs[1:], 1):
            prev, t = t, a * (p := p * top)  # top ** n would raise past 1e308
            if t <= 1e-3 * _ROUND_UNIT and t <= 0.5 * prev and n >= 3:
                break
        return _horner(self.coeffs[:n + 1], -rho)

    @property
    def first_zero_scaled(self) -> float:
        return self.first_zero / HALF_PI


def radial_ground(N: int, alpha: float) -> RadialGround:
    """Radial ground-state series (64 terms past a_0) and its first zero for
    the N-dimensional spherical problem.  Raises NoZeros if no root lies in
    the scan range (0, 20] on the (pi/2)-scaled axis."""
    _check_int("radial_ground", 2, N=N)
    _check_alpha(alpha)
    tab = _table(2.0 * alpha, 1.0)
    tab.extend(65)
    eta = tab.ratio  # eta[j-1] = eta_j
    coeffs = [1.0]
    for j in range(1, 65):
        coeffs.append(coeffs[-1] / ((N - 1) * j * eta[0] + eta[j - 1]))
    ground = RadialGround(N, alpha, tuple(coeffs), math.nan)
    xs = np.arange(SCAN_STEP, 20.0 + SCAN_STEP, SCAN_STEP) * HALF_PI
    vs = ground.g(xs)
    idx = _brackets(vs)
    if len(idx) == 0:
        raise NoZeros(f"radial ground state g(N={N}, alpha={alpha:g}) has no "
                      "zero on (0, 20] (scaled axis)")
    i = idx[0]
    root = _refine(lambda z: float(ground.g(z)), float(xs[i]), float(xs[i + 1]),
                   float(vs[i]), float(vs[i + 1]), 1e-12)
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

    shifted so the minimum over the grid is zero; ValueError unless every
    grid point lies in the well.  psi_n are normalised under the
    alpha-measure; energies use hbar = m = c = a = 1.

    The states are the lowest n_states + 1 of `well_states_1d`, the last one
    the first excluded.  The cutoff must satisfy exp(-E_last/T) < 1e-8;
    CutoffTooSmall is raised when the estimated tail weight exceeds 1e-6.
    """
    ctx = AlphaContext(alpha, hbar_c=1.0)  # hbar = m = c = 1; checks alpha
    _check_positive("equivalent_potential", T=T)
    _check_int("equivalent_potential", 1, n_states=n_states)
    grid = np.asarray(grid, float)
    if (grid.ndim != 1 or not grid.size or not np.isfinite(grid).all()
            or np.abs(grid).max() > 1.0):
        raise ValueError(f"grid must be a finite, non-empty 1-D array inside "
                         f"the well [-1, 1]: shape {grid.shape}")
    states = well_states_1d(alpha, n_states + 1, 1.0, ctx)
    # weights relative to the ground state, e^(-(E_n - E_0)/T): none underflows
    e = [st.energy / T for st in states]
    weights = [math.exp(e[0] - en) for en in e[:n_states]]
    # cutoff and tail in absolute weights, the tail a geometric continuation
    # from the first excluded state; none when the spectrum is exhausted
    tail = 0.0
    if len(e) > n_states:
        ratio = math.exp(e[-2] - e[-1])
        tail = math.exp(-e[-1]) / (1.0 - ratio) if ratio < 1.0 else math.inf
    cutoff = math.exp(-e[len(weights) - 1])
    if cutoff > 1e-8 or tail > 1e-6:
        advice = ("raise n_states or lower T" if len(e) > n_states else
                  f"only {len(e)} state{' lies' if len(e) == 1 else 's lie'} below"
                  f" scaled x {2 * (n_states + 1) + 20}, so only a lower T can help")
        raise CutoffTooSmall(f"cutoff weight {cutoff:.2e} (tail ~{tail:.2e}) "
                             f"exceeds the budget; {advice}")
    u, wq = rl_nodes(alpha, 1.0, 128)
    points = np.concatenate((u, grid))  # one evaluation per state
    rho = np.zeros_like(grid)
    Z = 0.0
    for st, wn in zip(states, weights):
        if wn == 0.0:  # so is every later weight: those states add exactly 0
            break
        f = frac_cos if st.parity == "even" else frac_sin
        tol_n = max(1e-9, 1e-9 / max(wn, 1e-300))
        psi = f(alpha, st.k0 * points, tol_n)
        psi_q, psi_g = psi[:u.size], psi[u.size:]
        norm2 = 2.0 * float(np.dot(wq, psi_q * psi_q))
        rho += wn * (psi_g * psi_g) / norm2
        Z += wn
    rho /= Z
    v = -np.log(rho)
    v -= v.min()
    return list(zip(grid.tolist(), v.tolist()))
