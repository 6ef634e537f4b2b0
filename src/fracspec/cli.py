"""Command-line front end: reproduction runs, fits, predictions and checks.
Each command returns its artifact and failed check, if any; main writes the
artifact to --out, a table as CSV with fixed 6-decimal floats (JSON records
when --out ends in .json) and any other payload as JSON.

Exit codes: 0 artifact written and the command's consistency checks passed;
1 artifact written but a check failed (details in the artifact / stderr
JSON); 2 bad input or an unreadable input file.  Any other error (an
uncertifiable sum, a disk error) exits 1, with a JSON error on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
import traceback

import numpy as np

from . import angular, charmfit, spectra, su3fact
from .fraccalc import (PrecisionLoss, frac_cos, frac_exp, frac_sin,
                       mittag_leffler)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2


class DomainExceeded(ValueError):
    """Requested sample points fall outside the certified validity domain."""


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.6f}"
    return str(x)


def _write_atomic(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".fracspec-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write(path: str, artifact) -> None:
    """A table (header, rows) as CSV, or as JSON records at a .json path;
    any other payload as JSON."""
    if isinstance(artifact, tuple):
        header, rows = artifact
        if not path.endswith(".json"):
            return _write_atomic(path, "".join(
                ",".join(map(_fmt, row)) + "\n" for row in [header, *rows]))
        artifact = [dict(zip(header, row)) for row in rows]
    _write_atomic(path, json.dumps(artifact, indent=2, sort_keys=True) + "\n")


def _failure(ok: bool, message: str, **extra):
    """None when a command's check passed, else its stderr report."""
    return None if ok else {"error": message, **extra}


def _fail(error: str, **extra) -> int:
    print(json.dumps({"error": error, **extra}, indent=2, sort_keys=True),
          file=sys.stderr)
    return EXIT_CHECK_FAILED


def _dataset(args) -> list:
    if getattr(args, "dataset", None):
        return charmfit.load_dataset(args.dataset)
    return charmfit.default_dataset()


# ----------------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------------


def _grid(args, lo: str, hi: str, step: str) -> np.ndarray:
    """The grid of options lo to hi by step (e.g. "--x-min"), clipped at hi
    so that rounding never steps past it; ends finite, lo <= hi, step > 0."""
    a, b, h = (getattr(args, o[2:].replace("-", "_")) for o in (lo, hi, step))
    for option, v in ((lo, a), (hi, b)):
        if not math.isfinite(v):
            raise ValueError(f"{option} must be finite: {v:g}")
    if a > b:
        raise ValueError(f"{lo} {a:g} exceeds {hi} {b:g}")
    if not 0.0 < h < math.inf:  # nan fails too
        raise ValueError(f"{step} must be finite and positive: {h:g}")
    return np.minimum(np.arange(a, b + 0.5 * h, h), b)


def cmd_special(args):
    if not 0.0 < args.tol < math.inf:  # an inf --tol certifies nothing
        raise ValueError(f"--tol must be finite and positive: {args.tol:g}")
    if args.beta is not None and args.name != "mlf":
        raise ValueError(f"--beta applies to --name mlf only, not {args.name}")
    xs = _grid(args, "--x-min", "--x-max", "--step")
    if args.name == "mlf":
        beta = args.beta if args.beta is not None else 1.0
        fn = lambda alpha, x, tol: mittag_leffler(alpha, beta, x, tol=tol)
    else:
        fn = {"exp": frac_exp, "cos": frac_cos, "sin": frac_sin}[args.name]
    # the sum certifies the whole range first, so past it (or where a value
    # is too large to round within tol) no artifact is written
    try:
        ys = fn(args.alpha, xs, args.tol)
    except PrecisionLoss as e:
        raise DomainExceeded(
            f"x in [{args.x_min:g}, {args.x_max:g}] is beyond the certified "
            f"range of {args.name}(alpha={args.alpha:g}) at tol {args.tol:g}: "
            f"{e}") from e
    return (["x", "value"], [(float(x), float(y)) for x, y in zip(xs, ys)]), None


def cmd_zeros(args):
    rows = []
    for a in _grid(args, "--alpha-min", "--alpha-max", "--alpha-step"):
        for kind in ("cos", "sin"):
            try:
                scan = spectra.find_zeros(kind, float(a), args.count,
                                          args.x_max)
            except spectra.NoZeros:
                rows.append((float(a), kind, None, "no_zeros"))
                continue
            rows += [(float(a), kind, i, float(r)) for i, r in enumerate(scan.roots)]
    return (["alpha", "kind", "root_index", "root"], rows), None


def cmd_table1(args):
    rows = angular.table1_report()
    cols = ["n", "lz_1", "lz_23", "lz_068", "j2c0_1", "j2c0_23", "j2c0_068",
            "j2c1_065", "j2c1_065_printed", "j2c1_065_dev",
            "j2c2_065", "j2c2_065_printed", "j2c2_065_dev"]
    clean = ["lz_23", "lz_068", "j2c0_1", "j2c0_23", "j2c0_068"]
    worst = max(abs(r[f"{c}_dev"]) for r in rows for c in clean)
    return (cols, [tuple(r[c] for c in cols) for r in rows]), _failure(
        worst <= 1e-4, "reference eigenvalue columns deviate beyond 1e-4",
        worst_deviation=worst)


def cmd_fit(args):
    alpha = args.alpha if args.alpha == "scan" else float(args.alpha)
    return charmfit.fit(_dataset(args), alpha, args.c_model).payload(), None


def cmd_masses(args):
    report = charmfit.table3_report(dataset=_dataset(args))
    cols = ["j", "m", "symbol", "m_exp"]
    for i in range(4):
        cols += [f"set{i}_m_th", f"set{i}_printed", f"set{i}_dev_printed",
                 f"set{i}_dev_refined"]
    worst, worst_ref = (max(abs(r[f"set{i}_dev_{d}"])
                            for r in report for i in range(4))
                        for d in ("printed", "refined"))
    return (cols, [tuple(r[c] for c in cols) for r in report]), _failure(
        worst <= 0.5,
        "published masses not reproduced at printed-parameter precision",
        worst_deviation_mev=worst,
        worst_deviation_alpha_refined_mev=worst_ref,
        note="published table used more alpha digits than printed")


def cmd_predict(args):
    ds = _dataset(args)
    by = {(s.j, s.m): s for s in ds}
    missing = [f"<{j}{m}>" for j, m in ((1, 0), (2, 0), (2, 1), (2, 2))
               if (j, m) not in by]
    if missing:
        raise ValueError(f"predict needs {', '.join(missing)}, which the "
                         f"dataset lacks")
    alpha_chi = charmfit.alpha_from_multiplet(
        by[(2, 0)].mass_exp, by[(2, 1)].mass_exp, by[(2, 2)].mass_exp)
    # the two-state solve and interpolation run at the published-precision
    # extraction (default 0.680) so the band checks mirror the publication;
    # the raw extraction is reported alongside
    alpha = args.alpha if args.alpha is not None else 0.680
    m0c2, kappa = charmfit.two_state_solve(
        by[(1, 0)].mass_exp, by[(2, 0)].mass_exp, alpha)
    p0 = charmfit.FitParams(m0c2, kappa, 0, 0, 0, 0, alpha=alpha)
    m33, e33 = charmfit.predict(p0, 3, 3, dataset=ds, with_interval=True)
    preds = {"alpha_chi_extracted": alpha_chi, "alpha_used": alpha,
             "m0c2": m0c2, "kappa": kappa, "m33": m33, "m33_err": e33}
    for row, label in ((charmfit.TABLE2_ROWS[2], "c1"),
                       (charmfit.TABLE2_ROWS[3], "c2")):
        preds[f"m50_{label}"] = charmfit.predict(row, 5, 0)
    ok = (abs(m33 - 4268.0) <= 22.0 and abs(m0c2 - 2455.0) <= 3.0
          and abs(kappa - 262.4) <= 0.9)
    return preds, _failure(ok, "prediction outside the published bands",
                           **preds)


def cmd_radius(args):
    quarks = charmfit.QuarkMasses(args.m_d_c2, args.m_c_c2)
    a_fm, r_box = charmfit.radius_box(args.sigma_mass, quarks, args.alpha,
                                      args.hbar_c)
    r0_fm, r_sph = charmfit.radius_sphere(args.sigma_mass, quarks, args.alpha,
                                          args.hbar_c)
    payload = {"sigma_mass_mev": args.sigma_mass, "alpha": args.alpha,
               "a_fm": a_fm, "r_mean_box_fm": r_box,
               "r0_fm": r0_fm, "r_mean_sphere_fm": r_sph}
    pub_ok = (abs(a_fm - 0.81) <= 0.01 and abs(r_box - 0.32) <= 0.01
              and abs(r0_fm - 1.08) <= 0.01 and abs(r_sph - 0.33) <= 0.01)
    return payload, _failure(
        pub_ok, "radius chain deviates from the published values", **payload)


def cmd_potential(args):
    if args.grid_points < 1:
        raise ValueError(f"--grid-points must be at least 1: "
                         f"{args.grid_points}")
    with np.errstate(invalid="ignore"):  # an inf width: rejected below
        grid = np.linspace(-args.grid_half_width, args.grid_half_width,
                           args.grid_points)
    return (["x", "v_over_t"], spectra.equivalent_potential(
        args.alpha, args.temperature, args.n_states, grid)), None


def cmd_factorcheck(args):
    clifford = su3fact.clifford_check()
    triple = su3fact.triple_product_check()
    s2 = su3fact.s2_structure()
    payload = {"clifford": clifford, "triple_product": triple, "s2": s2,
               "all_pass": (all(r["pass"] for r in clifford)
                            and triple["pass"] and s2["pass"])}
    return payload, _failure(payload["all_pass"], "factorization checks failed")


# ----------------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------------


def _command(sub, name: str, func, help_text: str, default_out: str):
    """Subcommand running func, its artifact written to --out."""
    sp = sub.add_parser(name, help=help_text)
    sp.set_defaults(func=func)
    sp.add_argument("--out", default=default_out, help="artifact path")
    return sp


@functools.cache  # one parser per process, built on the first call, not at import
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fracspec",
        description="Fractional Schroedinger toolkit: reproduction runs, "
                    "fits, predictions, checks.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = _command(sub, "special", cmd_special,
                  "sample a fractional special function", "special.csv")
    sp.add_argument("--name", choices=("exp", "cos", "sin", "mlf"),
                    required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--beta", type=float, default=None,
                    help="second ML parameter (mlf only)")
    sp.add_argument("--x-min", type=float, default=-10.0)
    sp.add_argument("--x-max", type=float, default=10.0)
    sp.add_argument("--step", type=float, default=0.05)
    sp.add_argument("--tol", type=float, default=1e-9,
                    help="absolute evaluation tolerance")

    sp = _command(sub, "zeros", cmd_zeros,
                  "zero locations of cos/sin eigenfunctions", "zeros.csv")
    sp.add_argument("--alpha-min", type=float, default=0.55)
    sp.add_argument("--alpha-max", type=float, default=1.2)
    sp.add_argument("--alpha-step", type=float, default=0.05)
    sp.add_argument("--count", type=int, default=6)
    sp.add_argument("--x-max", type=float, default=16.0)

    _command(sub, "table1", cmd_table1, "angular-momentum eigenvalue table",
             "table1.csv")

    sp = _command(sub, "fit", cmd_fit, "least-squares mass-formula fit",
                  "fit.json")
    sp.add_argument("--alpha", default="scan",
                    help="fixed alpha value or 'scan'")
    sp.add_argument("--c-model", choices=angular.C_MODELS, default="c0")
    sp.add_argument("--dataset", default=None)

    sp = _command(sub, "masses", cmd_masses,
                  "mass table for the published parameter sets", "masses.csv")
    sp.add_argument("--dataset", default=None)

    sp = _command(sub, "predict", cmd_predict, "alpha extraction, two-state "
                  "solve, <33>/<50> predictions", "predict.json")
    sp.add_argument("--dataset", default=None)
    sp.add_argument("--alpha", type=float, default=None,
                    help="order used for the solve (default: published "
                         "extraction 0.680)")

    sp = _command(sub, "radius", cmd_radius, "box and sphere size estimates",
                  "radius.json")
    sp.add_argument("--sigma-mass", type=float, default=2452.2)
    sp.add_argument("--alpha", type=float, default=2.0 / 3.0)
    sp.add_argument("--m-d-c2", type=float,
                    default=charmfit.QuarkMasses.m_d_c2,
                    help="d-quark rest energy (MeV)")
    sp.add_argument("--m-c-c2", type=float,
                    default=charmfit.QuarkMasses.m_c_c2,
                    help="c-quark rest energy (MeV)")
    sp.add_argument("--hbar-c", type=float, default=charmfit.HBARC_MEV_FM,
                    help="hbar c (MeV fm)")

    sp = _command(sub, "potential", cmd_potential,
                  "equivalent-potential dataset", "potential.csv")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--temperature", type=float, required=True)
    sp.add_argument("--n-states", type=int, required=True)
    sp.add_argument("--grid-points", type=int, default=161)
    sp.add_argument("--grid-half-width", type=float, default=0.95)

    _command(sub, "factorcheck", cmd_factorcheck,
             "Clifford and factorization checks", "factorcheck.json")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # ValueError: DomainExceeded, PoleError, CutoffTooSmall, charmfit errors
    # (UnreadableFile too); FileNotFoundError: --out in a missing directory
    try:
        artifact, failure = args.func(args)
        _write(args.out, artifact)
    except (ValueError, FileNotFoundError, spectra.NoZeros) as e:
        _fail(f"{type(e).__name__}: {e}")
        return EXIT_BAD_INPUT
    except Exception as e:
        frame = traceback.extract_tb(e.__traceback__)[-1]
        return _fail(f"{type(e).__name__}: {e}",
                     where=f"{frame.filename}:{frame.lineno}")
    return _fail(**failure) if failure else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
