"""Per-layer tracing for the fracspec benchmark.

The tracer wraps public fracspec functions at the place each consumer looks
them up (for example ``spectra.frac_cos``, ``charmfit.find_zeros`` and
``angular.gamma``), so ``src/`` stays untouched.  Patches are installed only
around traced passes and removed before outputs are checked.

Coarse layers (root search, quadrature, fits, cubature, reports, CLI) record a
span each: name, start, end, parent span and op id.  Hot leaves (gamma, the
Mittag-Leffler evaluations, eigenvalues) are only counted and timed, because
a span per call would cost more than the call.  Every wrapped call, spanned
or not, takes part in self-time accounting: a layer's self time is its
duration minus the time of the wrapped calls beneath it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np

from fracspec import angular, charmfit, cli, fraccalc, spectra, su3fact

SPAN_CAP = 200_000  # spans kept in memory; later ones are counted as dropped

# Which end-to-end metric (and workload) each per-layer metric should move.
# BENCHMARK.json has no field for this, so the traced run prints it.
TARGETS = {
    "fraccalc.ml_scalar_calls": "zero_sweep ops_per_s",
    "fraccalc.ml_scalar_us": "zero_sweep ops_per_s",
    "fraccalc.ml_vector_points": "zero_sweep, well_observables ops_per_s",
    "fraccalc.ml_vector_us_per_point": "zero_sweep, well_observables ops_per_s",
    "fraccalc.table_builds": "zero_sweep cold_s",
    "fraccalc.table_hit_ratio": "zero_sweep cold_s",
    "fraccalc.cold_extra_s": "zero_sweep cold_s",
    "fraccalc.quad_calls": "well_observables op_p90_ms",
    "fraccalc.quad_self_s": "well_observables op_p90_ms",
    "fraccalc.quad_points_per_call": "well_observables op_p90_ms",
    "fraccalc.gamma_calls": "charm_pipeline ops_per_s",
    "fraccalc.gamma_self_s": "charm_pipeline ops_per_s",
    "fraccalc.precision_loss": "error rate (ok_rate)",
    "spectra.find_zeros_self_s": "zero_sweep ops_per_s, op_p50_ms",
    "spectra.roots": "zero_sweep ops_per_s, op_p50_ms",
    "spectra.scalar_evals_per_root": "zero_sweep ops_per_s, op_p50_ms",
    "spectra.scan_points_per_root": "zero_sweep ops_per_s, op_p50_ms",
    "spectra.uncertified_roots": "error rate (ok_rate)",
    "spectra.max_root_dev": "informational, not gated",
    "spectra.equivalent_potential_self_s": "well_observables ops_per_s",
    "spectra.radial_ground_self_s": "charm_pipeline ops_per_s",
    "angular.eigenvalue_calls": "charm_pipeline ops_per_s",
    "angular.self_s": "charm_pipeline ops_per_s",
    "charmfit.fit_self_s": "charm_pipeline op_p90_ms",
    "charmfit.eigenvalue_calls_per_fit": "charm_pipeline op_p90_ms",
    "charmfit.cubature_points": "charm_pipeline op_p90_ms, peak_rss_mb",
    "charmfit.cubature_ns_per_point": "charm_pipeline op_p90_ms, peak_rss_mb",
    "su3fact.self_s": "charm_pipeline ops_per_s",
    "cli.main_self_s": "charm_pipeline ops_per_s",
    "cli.artifact_bytes": "charm_pipeline ops_per_s",
    "trace_overhead": "none: cost of tracing itself",
}


def _classify_ml(name):
    """Scalar or vector Mittag-Leffler evaluation (name.scalar / name.vector),
    with its point count."""

    def prepare(args, kwargs):
        x = args[1] if len(args) > 1 else kwargs["x"]
        if isinstance(x, (list, tuple, np.ndarray)):
            return name + "_vector", args, kwargs, lambda result: int(np.size(x))
        return name + "_scalar", args, kwargs, lambda result: 1

    return prepare


def _count_integrand(name):
    """Count the points at which the quadrature evaluates its integrand."""

    def prepare(args, kwargs):
        seen = [0]
        f = args[0]

        def counted(u):
            seen[0] += int(np.size(u))
            return f(u)

        return name, (counted,) + tuple(args[1:]), kwargs, lambda result: seen[0]

    return prepare


def _roots_found(name):
    def prepare(args, kwargs):
        return name, args, kwargs, lambda result: len(result)

    return prepare


def _cubature_points(name):
    """Octant cubature points n_nodes**3 of radius_box / radius_sphere."""

    def prepare(args, kwargs):
        n = kwargs.get("n_nodes", args[4] if len(args) > 4 else 64)
        return name, args, kwargs, lambda result: int(n) ** 3

    return prepare


def _plain(name):
    def prepare(args, kwargs):
        return name, args, kwargs, None

    return prepare


# (layer name, record spans?, patch sites, per-call preparation)
_SPECS = (
    ("fraccalc.ml", False,
     ((spectra, "frac_cos"), (spectra, "frac_sin"), (charmfit, "frac_cos"),
      (fraccalc, "frac_cos"), (fraccalc, "frac_sin")), _classify_ml),
    ("fraccalc.certified_floor", False, ((spectra, "certified_floor"),), _plain),
    ("fraccalc.gamma", False,
     ((fraccalc, "gamma"), (angular, "gamma"), (charmfit, "gamma")), _plain),
    ("fraccalc.frac_integral", True, ((fraccalc, "frac_integral"),),
     _count_integrand),
    ("fraccalc.scalar_product", True, ((fraccalc, "scalar_product"),), _plain),
    ("fraccalc.expectation", True, ((fraccalc, "expectation"),), _plain),
    ("spectra.find_zeros", True,
     ((spectra, "find_zeros"), (charmfit, "find_zeros")), _roots_found),
    ("spectra.well_states_1d", True, ((spectra, "well_states_1d"),), _plain),
    ("spectra.equivalent_potential", True,
     ((spectra, "equivalent_potential"),), _plain),
    ("spectra.radial_ground", True,
     ((spectra, "radial_ground"), (charmfit, "radial_ground")), _plain),
    ("angular.euler_eigenvalue", False,
     ((angular, "euler_eigenvalue"), (charmfit, "euler_eigenvalue")), _plain),
    ("angular.j2_eigenvalue", False,
     ((angular, "j2_eigenvalue"), (charmfit, "j2_eigenvalue")), _plain),
    ("angular.lz_eigenvalue", False,
     ((angular, "lz_eigenvalue"), (charmfit, "lz_eigenvalue")), _plain),
    ("angular.c_value", False, ((angular, "c_value"),), _plain),
    ("angular.table1_report", True, ((angular, "table1_report"),), _plain),
    ("charmfit.fit", True, ((charmfit, "fit"),), _plain),
    ("charmfit.table3_report", True, ((charmfit, "table3_report"),), _plain),
    ("charmfit.predict", True, ((charmfit, "predict"),), _plain),
    ("charmfit.radius_box", True, ((charmfit, "radius_box"),), _cubature_points),
    ("charmfit.radius_sphere", True, ((charmfit, "radius_sphere"),),
     _cubature_points),
    ("su3fact.clifford_check", True, ((su3fact, "clifford_check"),), _plain),
    ("su3fact.triple_product_check", True,
     ((su3fact, "triple_product_check"),), _plain),
    ("su3fact.s2_structure", True, ((su3fact, "s2_structure"),), _plain),
    ("cli.main", True, ((cli, "main"),), _plain),
)


class Tracer:
    """Counts, self times and spans of the wrapped fracspec layers.

    ``stats[name]`` is ``[calls, total_s, self_s, work]``; ``work`` is
    the layer's own unit (points, roots, cubature nodes).  ``under[scope][leaf]``
    is ``[calls, work]`` of ``leaf`` beneath calls of ``scope``.
    """

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.precision_loss = 0
        self.op_id = None
        self._next_span = 0
        self._stack: list[list] = []
        self._patches = []
        for name, span, sites, prep in _SPECS:
            prepare = prep(name)
            for module, attr in sites:
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    self._patches.append(
                        (module, attr, original, self._wrap(span, original, prepare)))
        self.reset()

    def reset(self) -> None:
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.under = defaultdict(lambda: defaultdict(lambda: [0, 0]))
        self.precision_loss = 0

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def run_op(self, op_id: str, kind: str, fn):
        """Run one benchmark op as the root span of its call tree."""
        self.op_id = op_id
        return self._call(True, fn, _plain("op." + kind), (), {})

    def _wrap(self, span, fn, prepare):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(span, fn, prepare, args, kwargs)

        return wrapper

    def _call(self, span, fn, prepare, args, kwargs):
        name, args, kwargs, work_of = prepare(args, kwargs)
        stack = self._stack
        parent = stack[-1] if stack else None
        parent_span = parent[3] if parent is not None else None
        span_id = None
        if span:
            span_id = self._next_span
            self._next_span += 1
        # [child seconds, descendant counts, own span id, span id for children]
        frame = [0.0, None, span_id, span_id if span else parent_span]
        stack.append(frame)
        failed = False
        result = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            failed = True
            if isinstance(exc, fraccalc.PrecisionLoss) and name.startswith("fraccalc.ml"):
                self.precision_loss += 1
            raise
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            work = work_of(result) if (work_of is not None and not failed) else 0
            st = self.stats[name]
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[0]
            st[3] += work
            below = frame[1]
            if below:
                mine = self.under[name]
                for leaf, (c, w) in below.items():
                    acc = mine[leaf]
                    acc[0] += c
                    acc[1] += w
            if parent is not None:
                parent[0] += dur
                counts = parent[1]
                if counts is None:
                    counts = parent[1] = {}
                if below:
                    for leaf, (c, w) in below.items():
                        acc = counts.setdefault(leaf, [0, 0])
                        acc[0] += c
                        acc[1] += w
                acc = counts.setdefault(name, [0, 0])
                acc[0] += 1
                acc[1] += work
            if span:
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, name, t0 - self.origin,
                                       t1 - self.origin, parent_span, self.op_id))
                else:
                    self.dropped_spans += 1

    # -- derived metrics ------------------------------------------------------

    def _get(self, name, field):
        return self.stats[name][field] if name in self.stats else 0

    def _self_of(self, prefix):
        return sum(v[2] for k, v in self.stats.items() if k.startswith(prefix))

    def layer_metrics(self, passes: int, time_scale: float) -> dict:
        """Per-pass layer metrics from the stats accumulated over `passes`
        traced warm passes.  Times are multiplied by `time_scale`, the
        host-speed factor of those passes (hostspeed.py)."""
        g = self._get

        def ratio(a, b):
            return a / b if b else 0.0

        per = 1.0 / max(passes, 1)
        sec = time_scale * per
        ml_s_calls = g("fraccalc.ml_scalar", 0)
        ml_v_points = g("fraccalc.ml_vector", 3)
        roots = g("spectra.find_zeros", 3)
        fz_under = self.under.get("spectra.find_zeros", {})
        fit_under = self.under.get("charmfit.fit", {})
        cub_points = g("charmfit.radius_box", 3) + g("charmfit.radius_sphere", 3)
        cub_self = g("charmfit.radius_box", 2) + g("charmfit.radius_sphere", 2)
        quad_calls = g("fraccalc.frac_integral", 0)
        fits = g("charmfit.fit", 0)
        return {
            "fraccalc.ml_scalar_calls": ml_s_calls * per,
            "fraccalc.ml_scalar_us":
                1e6 * time_scale * ratio(g("fraccalc.ml_scalar", 2), ml_s_calls),
            "fraccalc.ml_vector_points": ml_v_points * per,
            "fraccalc.ml_vector_us_per_point":
                1e6 * time_scale * ratio(g("fraccalc.ml_vector", 2), ml_v_points),
            "fraccalc.quad_calls": quad_calls * per,
            "fraccalc.quad_self_s": g("fraccalc.frac_integral", 2) * sec,
            "fraccalc.quad_points_per_call":
                ratio(g("fraccalc.frac_integral", 3), quad_calls),
            "fraccalc.gamma_calls": g("fraccalc.gamma", 0) * per,
            "fraccalc.gamma_self_s": g("fraccalc.gamma", 2) * sec,
            "fraccalc.precision_loss": self.precision_loss * per,
            "spectra.find_zeros_self_s": g("spectra.find_zeros", 2) * sec,
            "spectra.roots": roots * per,
            "spectra.scalar_evals_per_root":
                ratio(fz_under.get("fraccalc.ml_scalar", (0, 0))[0], roots),
            "spectra.scan_points_per_root":
                ratio(fz_under.get("fraccalc.ml_vector", (0, 0))[1], roots),
            "spectra.equivalent_potential_self_s":
                g("spectra.equivalent_potential", 2) * sec,
            "spectra.radial_ground_self_s": g("spectra.radial_ground", 2) * sec,
            "angular.eigenvalue_calls": g("angular.euler_eigenvalue", 0) * per,
            "angular.self_s": self._self_of("angular.") * sec,
            "charmfit.fit_self_s": g("charmfit.fit", 2) * sec,
            "charmfit.eigenvalue_calls_per_fit":
                ratio(fit_under.get("angular.euler_eigenvalue", (0, 0))[0], fits),
            "charmfit.cubature_points": cub_points * per,
            "charmfit.cubature_ns_per_point":
                1e9 * time_scale * ratio(cub_self, cub_points),
            "su3fact.self_s": self._self_of("su3fact.") * sec,
            "cli.main_self_s": g("cli.main", 2) * sec,
        }

    def table_lookups(self) -> int:
        """Ratio-table lookups made so far: one per Mittag-Leffler evaluation
        and one per certified-floor estimate."""
        g = self._get
        return (g("fraccalc.ml_scalar", 0) + g("fraccalc.ml_vector", 0)
                + g("fraccalc.certified_floor", 0))

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")
