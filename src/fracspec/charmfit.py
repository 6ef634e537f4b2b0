"""Charmonium application: dataset handling, the mass formula

    m(j, m) = kappa J^2(alpha, j, c)/hbar^2 + B_j L_z(alpha, m)/hbar
              + m0 c^2 + delta_{j,3} Delta_tau,

alpha extraction from multiplet spacings, linear least-squares fits with an
alpha scan, mass predictions, and the size estimate for the <00> state in a
box and a sphere.

Fit conventions (decoded from the published tables and verified row by row):
the least squares runs over all loaded states (negative-m states are
excluded by construction of the dataset); the published error figures are
MEAN-ABSOLUTE deviations, with "Delta m_m=0" taken over the m = 0 subset
and "Delta m_all" over all states EXCEPT the <33> prediction row.  Both
those and the plain RMS/mean-abs over every state are reported.

Radius expectation values integrate over the positive octant cube with the
ordinary volume element; the fractional structure enters through the wave
functions and the radius operator
r = (hbar/mc)^(1-alpha) (1/Gamma(1+alpha)) sqrt(sum_i x_i^(2 alpha)).
That convention reproduces the published box value (0.32 fm).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .angular import C_MODELS, c_value, euler_eigenvalue
from .fraccalc import (HBARC_MEV_FM, _check_alpha, _check_positive,
                       _gauss_legendre, frac_cos, gamma)
from .spectra import find_zeros, radial_ground, HALF_PI

__all__ = [
    "ParseError",
    "UnreadableFile",
    "DuplicateState",
    "MissingB",
    "OutOfRange",
    "RankDeficient",
    "NegativeZeroPoint",
    "CharmState",
    "FitParams",
    "QuarkMasses",
    "FitResult",
    "load_dataset",
    "default_dataset",
    "mass_model",
    "alpha_from_multiplet",
    "two_state_solve",
    "fit",
    "predict",
    "radius_box",
    "radius_sphere",
    "table3_report",
    "TABLE2_ROWS",
    "TABLE3_PRINTED",
    "DATA_ENV_VAR",
]

DATA_ENV_VAR = "FRACSPEC_DATA"


class ParseError(ValueError):
    """Dataset file failed to parse or validate (carries line/record info)."""


class UnreadableFile(ValueError):
    """An input file cannot be opened or read (missing, a directory, ...)."""


class DuplicateState(ValueError):
    """Two dataset records share the same (j, m)."""


class MissingB(KeyError):
    """A rotational coefficient B_j is required but not available."""


class OutOfRange(ValueError):
    """Target ratio unattainable on the requested alpha bracket."""


class RankDeficient(ValueError):
    """The dataset cannot fix the six fit parameters: one has no supporting
    state, there are fewer states than parameters, or the design matrix is
    numerically singular at some alpha."""


class NegativeZeroPoint(ValueError):
    """Composite mass lies below the summed constituent masses."""


@dataclass(frozen=True)
class CharmState:
    """One labeled state <jm> with its measured mass (MeV)."""

    name: str
    j: int
    m: int
    mass_exp: float
    mass_err: float | None = None

    def __post_init__(self):
        if self.j < 0 or not 0 <= self.m <= self.j:
            raise ParseError(
                f"state {self.name!r}: need j >= 0 and 0 <= m <= j "
                f"(got j={self.j}, m={self.m})"
            )
        if not (0 < self.mass_exp < math.inf  # nan included
                and 0 <= (self.mass_err or 0.0) < math.inf):
            raise ParseError(f"state {self.name!r}: mass must be finite and "
                             f"positive, its error finite and non-negative")


@dataclass(frozen=True)
class FitParams:
    """Mass-formula parameter vector (MeV) plus the model choice."""

    m0c2: float
    kappa: float
    B1: float
    B2: float
    B3: float
    delta_tau: float
    alpha: float
    c_model: str = "c0"

    def __post_init__(self):
        _check_alpha(self.alpha)
        if self.c_model not in C_MODELS:
            raise ValueError(f"c_model must be one of {C_MODELS}")

    def vector(self) -> np.ndarray:
        """The six mass-formula parameters in _PARAM_NAMES order."""
        return np.array([getattr(self, k) for k in _PARAM_NAMES])


@dataclass(frozen=True)
class QuarkMasses:
    """Constituent rest-mass energies in MeV (d and c quarks)."""

    m_d_c2: float = 300.0
    m_c_c2: float = 1400.0

    def __post_init__(self):
        _check_positive("QuarkMasses", m_d_c2=self.m_d_c2, m_c_c2=self.m_c_c2)


def _read_input(path) -> str:
    """The text of an input file; UnreadableFile when it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise UnreadableFile(f"{path}: {e.strerror or e}") from e


def load_dataset(path) -> list[CharmState]:
    """Load a JSON list of {name, j, m, mass_mev, err_mev} records.

    An empty (whitespace-only) file is a valid empty dataset.  Raises
    UnreadableFile when the file cannot be read, ParseError with position
    info on malformed input and DuplicateState on a repeated (j, m) label.
    """
    text = _read_input(path)
    if not text.strip():
        return []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: line {e.lineno}, col {e.colno}: {e.msg}") from e
    if not isinstance(raw, list):
        raise ParseError(f"{path}: expected a top-level JSON list of records")
    states = []
    seen = {}
    for i, rec in enumerate(raw):
        try:
            j, m = rec["j"], rec["m"]
            if type(j) is not int or type(m) is not int:  # bool, float, str
                raise TypeError(f"labels j, m must be integers: {j!r}, {m!r}")
            st = CharmState(
                name=str(rec["name"]),
                j=j,
                m=m,
                mass_exp=float(rec["mass_mev"]),
                mass_err=(float(rec["err_mev"])
                          if rec.get("err_mev") is not None else None),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"{path}: record {i}: {e}") from e
        key = (st.j, st.m)
        if key in seen:
            raise DuplicateState(
                f"{path}: record {i}: <{st.j}{st.m}> already defined by "
                f"{seen[key]!r}"
            )
        seen[key] = st.name
        states.append(st)
    return states


def default_dataset() -> list[CharmState]:
    """Bundled dataset; overridable through the FRACSPEC_DATA env var."""
    override = os.environ.get(DATA_ENV_VAR)
    if override:
        return load_dataset(override)
    with resources.as_file(
        resources.files("fracspec.data") / "charmonium.json"
    ) as p:
        return load_dataset(p)


def _states_by_jm(states):
    return {(s.j, s.m): s for s in states}


def mass_model(p: FitParams, j: int, m: int) -> float:
    """Model mass in MeV for the <jm> state under parameter vector p.

    B_j exists for j in {1, 2, 3}; other j with m > 0 raise MissingB.
    (m = 0 states have L_z = 0, so no B enters.)
    """
    if j < 0 or not 0 <= m <= j:
        raise ValueError("need j >= 0 and 0 <= m <= j")
    if m > 0 and j not in (1, 2, 3):
        raise MissingB(f"no B_{j} available for a j={j}, m={m} state")
    A = _design_matrix([(j, m)], [p.alpha], p.c_model)
    return float(_masses(A, p.vector())[0, 0])


def alpha_from_multiplet(m0: float, m1: float, m2: float) -> float:
    """Solve L_z(alpha, 2) = (m2 - m0)/(m1 - m0) for alpha by bisection on
    the bracket [0.4, 1.4].

    The ratio l(alpha, 2) = Gamma(1+2a)/Gamma(1+a)^2 is strictly increasing
    on the bracket; OutOfRange is raised when the target is unattainable.
    """
    if m1 == m0:
        raise ValueError("m1 must differ from m0")
    target = (m2 - m0) / (m1 - m0)
    lo, hi = 0.4, 1.4
    f_lo = euler_eigenvalue(lo, 2) - target
    f_hi = euler_eigenvalue(hi, 2) - target
    if f_lo * f_hi > 0:
        raise OutOfRange(
            f"ratio {target:.4f} outside [{euler_eigenvalue(lo, 2):.4f}, "
            f"{euler_eigenvalue(hi, 2):.4f}] attainable on the bracket"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (euler_eigenvalue(mid, 2) - target) * f_lo <= 0:
            hi = mid
        else:
            lo = mid
            f_lo = euler_eigenvalue(lo, 2) - target
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def two_state_solve(eta_c: float, chi0: float, alpha: float) -> tuple[float, float]:
    """(m0c2, kappa) from the two lowest m = 0 states (j = 1 and j = 2, c0):
    m0 + J2(alpha,1) kappa = eta_c;  m0 + J2(alpha,2) kappa = chi0."""
    j2_1, j2_2 = _design_matrix([(1, 0), (2, 0)], [alpha], "c0")[0, :, 1]
    kappa = (chi0 - eta_c) / (j2_2 - j2_1)
    m0c2 = eta_c - j2_1 * kappa
    return m0c2, kappa


_PARAM_NAMES = ("m0c2", "kappa", "B1", "B2", "B3", "delta_tau")


def _design_matrix(jm, alphas, c_model: str) -> np.ndarray:
    """Design tensor (len(alphas), len(jm), 6) over the <jm> pairs, columns
    _PARAM_NAMES, each entry bitwise the scalar j2_eigenvalue/lz_eigenvalue:
    one l(alpha, n) table per alpha from the lgamma difference of
    euler_eigenvalue, lgamma(k alpha + 1) shared by n = k and n = k + 1."""
    if c_model not in C_MODELS:
        raise ValueError(f"c_model must be one of {C_MODELS}")
    alphas = np.array([_check_alpha(a) for a in alphas])
    j, m = np.array(jm, int).T
    lg = np.vectorize(math.lgamma, otypes=[float])(
        np.arange(np.max(jm) + 2) * alphas[:, None] + 1.0)
    l = np.zeros(lg.shape)  # l(alpha, 0) = 0
    l[:, 1:] = np.vectorize(math.exp, otypes=[float])(
        (lg[:, 1:] - lg[:, :-1]) - lg[:, 1:2])
    lj, lz = l[:, j], l[:, m]
    if c_model == "c1":
        c = np.array([[c_value("c1", a)] for a in alphas])
    else:
        c = 1.0 if c_model == "c0" else l[:, j + 1] - lj
    one = np.ones_like(lj)
    return np.stack([one, lj * (lj + c), lz * (j == 1),
                     lz * (j == 2), lz * (j == 3), one * (j == 3)], axis=-1)


def _masses(A: np.ndarray, params) -> np.ndarray:
    """A . params, added term by term in the mass formula's order."""
    return sum(A[..., k] * params[..., None, k] for k in range(6))


@dataclass(frozen=True)
class FitResult:
    params: FitParams
    residuals: dict           # (j, m) -> model - experiment, MeV
    diagnostics: dict         # error metrics, see fit()

    def to_json(self) -> str:
        payload = {
            "params": dataclasses.asdict(self.params),
            "residuals": {f"{j}{m}": v for (j, m), v in self.residuals.items()},
            "diagnostics": self.diagnostics,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


_OBJECTIVES = ("dm_m0_rms", "dm_m0_abs", "dm_all_rms", "dm_all_abs",
               "dm_published_rms", "dm_published_abs")
_OBJECTIVE = "dm_published_abs"  # what the alpha scan minimises


def _metrics(states, res) -> dict:
    """The _OBJECTIVES along the alpha axis of res (n_alpha, n_states): rms
    and mean |residual| over the m = 0 states, all states, published rows."""
    m0_mask = np.array([s.m == 0 for s in states])
    # the published "all" figure excludes the <33> prediction row
    pub_mask = np.array([(s.j, s.m) != (3, 3) for s in states])
    values = []
    for mask in (m0_mask, np.ones(len(states), bool), pub_mask):
        sel = res[:, mask]
        values += ([np.sqrt(np.mean(sel**2, axis=1)), np.mean(np.abs(sel), axis=1)]
                   if mask.any() else [np.full(len(res), math.nan)] * 2)
    return dict(zip(_OBJECTIVES, values))


def _solve(states, alphas, c_model: str):
    """Least-squares parameters (n_alpha, 6) and residuals model - experiment
    (n_alpha, n_states), all alphas in one batched Householder QR, A = QR and
    p = R^-1 Q^T y.  RankDeficient when a parameter has no supporting state,
    when there are fewer states than parameters, or where ||R||_F ||R^-1||_F
    (>= cond_2(A)) reaches 1/(max(M, N) eps), lstsq's rcond=None cutoff: no
    alpha goes through at which that cutoff would drop a singular value."""
    A = _design_matrix([(s.j, s.m) for s in states], alphas, c_model)
    y = np.array([s.mass_exp for s in states])
    dead = [n for n, d in zip(_PARAM_NAMES, (A == 0.0).all(axis=1).any(axis=0)) if d]
    if dead:
        raise RankDeficient(f"no supporting state for parameter(s): {', '.join(dead)}")
    if len(states) < len(_PARAM_NAMES):
        raise RankDeficient(f"{len(states)} states cannot fix the "
                            f"{len(_PARAM_NAMES)} parameters")
    cutoff = max(A.shape[-2:]) * np.finfo(float).eps  # lstsq's rcond=None
    Q, R = np.linalg.qr(A)
    try:
        R_inv = np.linalg.inv(R)
    except np.linalg.LinAlgError as e:  # an exactly zero diagonal entry of R
        raise RankDeficient(f"singular design matrix: {e}") from e
    cond = np.linalg.norm(R, axis=(1, 2)) * np.linalg.norm(R_inv, axis=(1, 2))
    bad = ~(cond * cutoff < 1.0)  # nan included
    if bad.any():
        i = int(np.argmax(bad))
        raise RankDeficient(f"design matrix numerically singular at alpha = "
                            f"{float(alphas[i]):g} (condition bound {cond[i]:.3g})")
    p = (R_inv @ (y @ Q)[..., None])[..., 0]
    return p, _masses(A, p) - y


def fit(dataset, alpha, c_model: str = "c0",
        scan_step: float = 0.001) -> FitResult:
    """Least-squares fit of the mass formula.

    With a numeric `alpha` the model is linear in the six parameters and one
    least-squares solve suffices.  With alpha="scan" the objective
    dm_published_abs (the mean-absolute deviation excluding <33>, the
    convention of the published tables) is minimised on a grid over
    [0.60, 0.72] with step scan_step, then refined by golden section to 1e-4;
    ties break toward smaller alpha.  The grid is one batch (one design
    tensor over alpha, one batched QR solve); each golden-section probe is a
    batch of one.  RankDeficient is raised rather than a minimum-norm answer
    when the states cannot fix all six parameters at some alpha solved: a
    parameter without a supporting state, fewer than six states, or a design
    matrix at which lstsq's rcond=None would drop a singular value.  A
    scan_step that is not finite and positive raises ValueError for either
    kind of alpha.
    """
    _check_positive("fit", scan_step=scan_step)
    states = sorted(dataset, key=lambda s: (s.j, s.m))
    if not states:
        raise ValueError("empty dataset")

    def result_at(a: float) -> FitResult:
        p, res = _solve(states, [a], c_model)
        params = FitParams(*[float(v) for v in p[0]], alpha=a, c_model=c_model)
        residuals = {(s.j, s.m): float(r) for s, r in zip(states, res[0])}
        diag = {**{k: float(v[0]) for k, v in _metrics(states, res).items()},
                "alpha": a, "c_model": c_model, "objective": _OBJECTIVE}
        return FitResult(params=params, residuals=residuals, diagnostics=diag)

    if alpha != "scan":
        return result_at(float(alpha))

    def obj(alphas) -> np.ndarray:
        return _metrics(states, _solve(states, alphas, c_model)[1])[_OBJECTIVE]

    grid = np.arange(0.60, 0.72 + 0.5 * scan_step, scan_step)
    i = int(np.argmin(obj(grid)))  # the first (smallest alpha) on ties
    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, len(grid) - 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = obj([c])[0], obj([d])[0]
    while b - a > 1e-4:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = obj([c])[0]
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = obj([d])[0]
    return result_at(round(0.5 * (a + b), 6))


def predict(p: FitParams, j: int, m: int, dataset=None,
            with_interval: bool = False):
    """Mass prediction at an unfitted (j, m).

    Plain call: mass_model(p, j, m).  For the <33> state with
    with_interval=True and a dataset supplying <30>/<32>, the linear
    L_z-ratio interpolation

        m33 = m30 + [l(alpha,3)/l(alpha,2)] (m32 - m30)

    is used instead, and the experimental errors are propagated through it;
    returns (value, propagated_error).
    """
    if with_interval and (j, m) == (3, 3):
        if dataset is None:
            raise ValueError("interval prediction for <33> needs a dataset")
        by = _states_by_jm(dataset)
        try:
            s30, s32 = by[(3, 0)], by[(3, 2)]
        except KeyError as e:
            raise ValueError("dataset must contain <30> and <32>") from e
        ratio = euler_eigenvalue(p.alpha, 3) / euler_eigenvalue(p.alpha, 2)
        val = s30.mass_exp + ratio * (s32.mass_exp - s30.mass_exp)
        e30 = s30.mass_err or 0.0
        e32 = s32.mass_err or 0.0
        err = math.hypot((1.0 - ratio) * e30, ratio * e32)
        return val, err
    return mass_model(p, j, m)


# ----------------------------------------------------------------------------
# Size estimates.
# ----------------------------------------------------------------------------


def _check_radius_args(sigma_mass, hbar_c, n_nodes) -> None:
    """The radius functions' arguments, checked before any root search."""
    if not math.isfinite(sigma_mass):
        raise ValueError(f"sigma mass must be finite: {sigma_mass:g}")
    _check_positive("radius", hbar_c=hbar_c)
    if not isinstance(n_nodes, (int, np.integer)) or n_nodes < 1 or n_nodes is True:
        raise ValueError(f"n_nodes must be a positive integer, got {n_nodes!r}")


def _octant_radius(sigma_mass: float, quarks: QuarkMasses, alpha: float,
                   hbar_c: float, n_nodes: int, factor: float,
                   k0: float, node_density=None,
                   rho_density=None) -> tuple[float, float]:
    """radius_box/radius_sphere for the ground state of first zero k0, energy
    E0 = factor m_c c^2 (hbar k0/(m_c c size))^(2 alpha) and density
    p_i p_j p_k f, p = node_density(k0 u/size) at the nodes u, f =
    rho_density((k0/size)^(2 alpha) G), G = R_i + R_j + R_k, R = |u|^(2 alpha)
    (1 when None), summed over the sorted triples i <= j <= k (about
    n_nodes^3/6 points): all of it is symmetric in the node indices."""
    constituents = 2.0 * quarks.m_d_c2 + quarks.m_c_c2
    e0 = sigma_mass - constituents
    if e0 < 0:
        raise NegativeZeroPoint(f"sigma mass {sigma_mass:g} below constituent "
                                f"sum {constituents:g}")
    if e0 == 0.0:
        return math.inf, math.inf
    mc2 = quarks.m_c_c2
    X = (e0 / (factor * mc2)) ** (1.0 / (2.0 * alpha))
    size = hbar_c * k0 / (mc2 * X)
    # Gauss-Legendre on [0, size], weights scaled to sum 1 (every use is a ratio)
    xs, w = _gauss_legendre(n_nodes)
    u, w = 0.5 * size * (xs + 1.0), w / w.sum()
    if node_density is not None:
        w = w * node_density(k0 * u / size)
    R = np.abs(u) ** (2.0 * alpha)
    # slab k: the first (k + 1)(k + 2)/2 pairs i <= j, ordered by j, with node
    # k appended; a triple stands for its 6, 3 or 1 distinct permutations, 6
    # or 3 (i < j, i = j) while j < k, then 3 or 1 on the pairs j = k
    j, i = np.tril_indices(n_nodes)
    pair_R, pair_w, diag = R[i] + R[j], w[i] * w[j], i == j
    below, top = pair_w * np.where(diag, 3.0, 6.0), pair_w * np.where(diag, 1.0, 3.0)
    G, W = np.empty((2, n_nodes * (n_nodes + 1) * (n_nodes + 2) // 6))
    for k in range(n_nodes):
        d, m = k * (k + 1) // 2, (k + 1) * (k + 2) // 2  # pairs j < k, j <= k
        s = k * m // 3  # triples in the slabs before k
        np.add(pair_R[:m], R[k], out=G[s:s + m])
        np.multiply(below[:d], w[k], out=W[s:s + d])
        np.multiply(top[d:m], w[k], out=W[s + d:s + m])
    if rho_density is not None:
        W *= rho_density((k0 / size) ** (2.0 * alpha) * G)
    prefactor = (hbar_c / mc2) ** (1.0 - alpha) / gamma(1.0 + alpha)
    return size, prefactor * float(W @ np.sqrt(G, out=G)) / float(W.sum())


def radius_box(sigma_mass: float, quarks: QuarkMasses, alpha: float,
               hbar_c: float = HBARC_MEV_FM,
               n_nodes: int = 64) -> tuple[float, float]:
    """(half-width a, <r>) in fm for the composite in a cubic box.

    The zero-point energy E0 = sigma - (2 m_d + m_c) c^2 fixes a through
    E0 = (3/2) m_c c^2 (hbar k0 / (m_c c a))^(2 alpha) with k0 the first
    cos zero and hbar c = hbar_c (MeV fm); <r> is the ground-state
    expectation of the fractional radius operator over [0, a]^3 with the
    ordinary volume element, the convention behind the published value.

    Equality with the constituent sum is flagged by (inf, inf); below it,
    NegativeZeroPoint is raised.
    """
    _check_radius_args(sigma_mass, hbar_c, n_nodes)
    k0 = find_zeros("cos", alpha, 1, 8.0, xtol=1e-12)[0] * HALF_PI
    # the density psi_i^2 psi_j^2 psi_k^2 is separable: psi^2 at the nodes
    return _octant_radius(sigma_mass, quarks, alpha, hbar_c, n_nodes, 1.5, k0,
                          lambda x: frac_cos(alpha, x) ** 2)


def radius_sphere(sigma_mass: float, quarks: QuarkMasses, alpha: float,
                  hbar_c: float = HBARC_MEV_FM,
                  n_nodes: int = 64) -> tuple[float, float]:
    """(r0, <r>) in fm for the composite in a spherical well.

    r0 comes from E0 = (1/2) m_c c^2 (hbar k_sph/(m_c c r0))^(2 alpha) with
    k_sph the first zero of the radial ground state and hbar c = hbar_c
    (MeV fm); <r> integrates the radial ground state g over [0, r0]^3 like
    radius_box.  g depends on the coordinates only through
    rho = sum |x_i|^(2 alpha), so L_z g = J^2 g = 0 holds by construction.
    """
    _check_radius_args(sigma_mass, hbar_c, n_nodes)
    ground = radial_ground(3, alpha)
    return _octant_radius(sigma_mass, quarks, alpha, hbar_c, n_nodes, 0.5,
                          ground.first_zero,
                          rho_density=lambda rho: ground.g_of_rho(rho) ** 2)


# ----------------------------------------------------------------------------
# Published parameter sets and the mass table report.
# ----------------------------------------------------------------------------

# Published optimum parameter rows: alpha, c-model, m0c2, kappa, B1, B2, B3,
# delta_tau, printed dm_m0, printed dm_all.
TABLE2_ROWS = (
    FitParams(2439.33, 274.66, 108.25, 87.00, 263.69, -129.04, 2.0 / 3.0, "c0"),
    FitParams(2451.26, 263.83, 117.98, 93.39, 259.16, -124.48, 0.681, "c0"),
    FitParams(2452.67, 336.16, 119.79, 95.72, 270.19, -129.00, 0.647, "c1"),
    FitParams(2451.90, 367.41, 116.13, 98.37, 269.46, -124.39, 0.649, "c2"),
)
TABLE2_PRINTED_DM = ((5.68, 8.98), (1.86, 2.02), (1.14, 1.15), (0.73, 0.79))

# Published theoretical masses per parameter set, rows <jm> incl. the <50>
# prediction.
TABLE3_PRINTED = {
    (0, 0): (2439.33, 2451.26, 2452.67, 2451.90),
    (1, 0): (2988.66, 2978.94, 2977.12, 2980.78),
    (1, 1): (3096.92, 3096.92, 3096.92, 3096.92),
    (2, 0): (3426.89, 3417.80, 3417.15, 3413.65),
    (2, 1): (3513.89, 3511.19, 3512.87, 3512.03),
    (2, 2): (3554.00, 3555.85, 3554.68, 3555.26),
    (3, 0): (3772.35, 3773.92, 3770.17, 3770.41),
    (3, 1): (4036.04, 4033.08, 4040.37, 4039.87),
    (3, 2): (4157.60, 4157.02, 4158.39, 4158.30),
    (3, 3): (4263.01, 4264.98, 4260.08, 4260.42),
    (4, 0): (4406.07, 4413.80, 4414.36, 4415.22),
    (5, 0): (4937.06, 4959.54, 4957.54, 4969.07),
}

_TABLE3_SYMBOLS = {
    (0, 0): "Sigma_c0", (1, 0): "eta_c", (1, 1): "J/psi", (2, 0): "chi_c0",
    (2, 1): "chi_c1", (2, 2): "chi_c2", (3, 0): "psi(3770)",
    (3, 1): "psi(4040)", (3, 2): "psi(4160)", (3, 3): "Y(4260)",
    (4, 0): "psi(4415)", (5, 0): "X(4965)",
}


def table3_report(dataset=None) -> list[dict]:
    """Mass table: for every <jm> (including the unobserved <50>) and every
    TABLE2_ROWS parameter row, the model mass, the deviation from
    experiment, and the deviation from the published theoretical value.

    The published table was evidently generated at more alpha digits than
    printed: at the printed 3-decimal alpha the c1/c2 and 0.681 columns
    drift by several MeV at high j.  Each row dict therefore also carries
    `m_th_refined` computed at the best alpha within +-0.003 of the
    printed one (pure diagnostic; the plain m_th is the faithful
    evaluation).
    """
    if dataset is None:
        dataset = default_dataset()
    by_jm = _states_by_jm(dataset)
    jm_list = sorted(TABLE3_PRINTED.keys())
    # the window covers the observed mis-rounding of the printed alphas (0.681
    # evidently computed at ~0.680, 0.649 at ~0.6496); first best on ties
    # one batch per parameter row: the printed alpha, then the window
    at_printed, refined = [], []
    for i, p in enumerate(TABLE2_ROWS):
        alphas = np.concatenate([[p.alpha], np.linspace(
            p.alpha - 0.003, p.alpha + 0.003, 241)])
        masses = _masses(_design_matrix(jm_list, alphas, p.c_model), p.vector())
        dev = np.abs(masses[1:] - [TABLE3_PRINTED[jm][i] for jm in jm_list])
        at_printed.append(masses[0])
        refined.append(masses[1 + int(np.argmin(dev.max(axis=1)))])
    rows = []
    for r, (j, m) in enumerate(jm_list):
        row = {"j": j, "m": m, "symbol": _TABLE3_SYMBOLS.get((j, m), ""),
               "m_exp": by_jm[(j, m)].mass_exp if (j, m) in by_jm else None}
        for i in range(len(TABLE2_ROWS)):
            mth = float(at_printed[i][r])
            label = f"set{i}"
            row[f"{label}_m_th"] = mth
            row[f"{label}_delta_exp"] = (mth - row["m_exp"]
                                         if row["m_exp"] is not None else None)
            printed = TABLE3_PRINTED[(j, m)][i]
            row[f"{label}_printed"] = printed
            row[f"{label}_dev_printed"] = mth - printed
            row[f"{label}_m_th_refined"] = float(refined[i][r])
            row[f"{label}_dev_refined"] = float(refined[i][r]) - printed
        rows.append(row)
    return rows
