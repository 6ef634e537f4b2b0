"""fracspec benchmark: seeded workloads, end-to-end metrics, traced run.

Run from the repository root:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--size full|tiny]

Each workload runs in a fresh process with one closed-loop client: ops are
issued back to back, and BLAS/OpenMP threads are pinned to 1.  A run first
times ``import fracspec.cli`` in fresh interpreters (set-up), then makes one
cold pass over the op list with empty caches, then warm passes until
``--seconds`` of warm passes and enough latency samples are measured.  Every
op's output is checked (see workloads.py); checks run between passes and are
not timed.

--trace 0 prints the end-to-end metrics:
  setup_s      median time of ``python -c "import fracspec.cli"``
  cold_s       time of the cold pass (sum of its op latencies)
  ops_per_s    ops per second over the warm passes
  op_p50_ms    median per-op latency over the warm passes
  op_p90_ms    90th-percentile per-op latency (>= 10 samples beyond it)
  peak_rss_mb  ru_maxrss of the workload process
  ok_rate      share of attempted ops whose outcome passed its check
               (1 - error_rate; the error rate itself is printed as well)
All times are wall times scaled by the host-speed reference kernel timed
next to the work (hostspeed.py); the raw wall times are printed too.
--trace 1 alternates traced and untraced warm passes and prints the
per-layer metrics of tracer.py, with trace_overhead = traced ops/s divided by
untraced ops/s, and writes the spans to .perfbench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Known-red ops (workloads.py) count as failed
while the defect they probe stands; ``correct`` is false when any other op
fails.  ``--workload all`` (the default) runs each workload in its own
subprocess.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("zero_sweep", "well_observables", "charm_pipeline")
OUT_DIR = ".perfbench_out"
SETUP_REPEATS = 7
MIN_SAMPLES = 110        # so that at least 10 warm samples lie beyond p90
MAX_RUN_S = 150.0        # stop adding passes after this, to end within 180 s


def metric_units(root: str) -> tuple:
    """{name: unit} of the end-to-end and the per-layer metrics, from
    BENCHMARK.json at the repository root."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def child_env(root: str) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(root: str, repeats: int) -> tuple:
    """Median wall time of a fresh interpreter importing fracspec.cli, raw
    and scaled by the host-speed kernel timed around each import.  One
    untimed import first writes the bytecode cache."""
    import hostspeed

    cmd = [sys.executable, "-c", "import fracspec.cli"]
    env = child_env(root)
    subprocess.run(cmd, cwd=root, env=env, check=True, timeout=120)
    hostspeed.warm_up()
    raw, spans, samples = [], [], []
    for _ in range(repeats):
        hostspeed.sample(5, samples)
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=root, env=env, check=True, timeout=120)
        t1 = time.perf_counter()
        raw.append(t1 - t0)
        spans.append((t0, t1))
    hostspeed.sample(5, samples)
    factors = hostspeed.scale_factors(samples, spans)
    return statistics.median(raw), statistics.median(x * f for x, f in zip(raw, factors))


def _fingerprint(op, out) -> str:
    exc = None if out.exc is None else (type(out.exc).__name__, str(out.exc))
    payload = (op.op_id, out.value, exc, op.inputs())
    try:
        blob = pickle.dumps(payload, protocol=4)
    except (pickle.PicklingError, TypeError, AttributeError):
        blob = repr(payload).encode()
    return hashlib.sha1(blob).hexdigest()


def run_pass(ops, tracer=None):
    """Issue every op once, back to back, sampling the host-speed kernel
    between ops (three times after a long op).  Returns (raw_wall_s, raw
    latencies, scaled latencies, outcomes)."""
    import hostspeed
    from workloads import Outcome

    lat, spans, samples, outs = [], [], [], []
    t_pass = time.perf_counter()
    for op in ops:
        hostspeed.sample(3 if lat and lat[-1] > hostspeed.LONG_OP_S else 1, samples)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = Outcome(op.call())
            else:
                out = Outcome(tracer.run_op(op.op_id, op.kind, op.call))
        except Exception as exc:  # the op's outcome; its check judges it
            out = Outcome(exc=exc)
        t1 = time.perf_counter()
        lat.append(t1 - t0)
        spans.append((t0, t1))
        outs.append(out)
    hostspeed.sample(3 if lat[-1] > hostspeed.LONG_OP_S else 1, samples)
    wall = time.perf_counter() - t_pass
    factors = hostspeed.scale_factors(samples, spans)
    return wall, lat, [x * f for x, f in zip(lat, factors)], outs


def check_pass(ops, outs, cache: dict) -> list:
    """(op, problems) for every op whose outcome fails its check.  Verdicts
    are cached by op, outcome and inputs, so an unchanged output is judged
    once."""
    failures = []
    for op, out in zip(ops, outs):
        key = _fingerprint(op, out)
        problems = cache.get(key)
        if problems is None:
            try:
                problems = list(op.check(out))
            except Exception as exc:  # a check that cannot judge the output fails it
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            cache[key] = problems
        if problems:
            failures.append((op, problems))
    return failures


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: str) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a
    git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str, name: str, seed: int, seconds: float, trace: bool,
                size: str) -> dict:
    import mpmath
    import numpy

    import fracspec

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "fracspec": fracspec.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "git_sha": _git_sha(root),
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _import_fracspec(root: str):
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import fracspec

    where = os.path.realpath(os.path.dirname(fracspec.__file__))
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"fracspec imported from {where}, not from {src}")


def _p50_p90(samples):
    q = statistics.quantiles(samples, n=100, method="inclusive")
    return q[49], q[89]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", root: str = ".",
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload in this process and return its result record."""
    root = os.path.abspath(root)
    _import_fracspec(root)
    from fracspec import fraccalc
    from tracer import TARGETS, Tracer
    from workloads import WORKLOADS

    e2e_units, layer_units = metric_units(root)
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir)
    t_run = time.perf_counter()
    try:
        setup_raw, setup_s = (None, None) if trace else measure_setup(root, setup_repeats)
        wl = WORKLOADS[name](random.Random(seed), size, workdir)
        tracer = Tracer() if trace else None
        cache: dict = {}
        failures: dict = {}
        attempted = failed = 0

        def judge(outs):
            nonlocal attempted, failed
            found = check_pass(wl.ops, outs, cache)
            attempted += len(outs)
            failed += len(found)
            for op, problems in found:
                failures.setdefault(op.op_id, (op.known_red, problems))

        import hostspeed

        hostspeed.warm_up()
        tables0 = len(fraccalc._TABLES)
        if tracer:
            tracer.install()
        _, cold_raw, cold_lat, outs = run_pass(wl.ops, tracer)
        cold_s = sum(cold_lat)
        if tracer:
            tracer.uninstall()
            cold_builds = len(fraccalc._TABLES) - tables0
            cold_lookups = tracer.table_lookups()
            tracer.reset()
        judge(outs)

        # per warm pass: (raw wall, raw latencies, scaled latencies)
        warm, traced_passes = [], []
        measured = 0.0
        i = 0
        while True:
            traced = tracer is not None and i % 2 == 0
            if traced:
                tracer.install()
            wall, raw, scaled, outs = run_pass(wl.ops, tracer if traced else None)
            if traced:
                tracer.uninstall()
            (traced_passes if traced else warm).append((wall, raw, scaled))
            judge(outs)
            i += 1
            measured += wall
            if trace:
                enough = measured >= seconds and traced_passes and warm
            else:
                enough = (measured >= seconds and len(warm) >= 2
                          and len(warm) * len(wl.ops) >= MIN_SAMPLES)
            overdue = (time.perf_counter() - t_run > MAX_RUN_S and warm
                       and (traced_passes or not trace))
            if enough or overdue:
                break

        warm_lat = [x for _, _, scaled in warm for x in scaled]
        warm_raw = [x for _, raw, _ in warm for x in raw]
        p50, p90 = _p50_p90(warm_lat)
        raw_p50, raw_p90 = _p50_p90(warm_raw)
        e2e = {
            "setup_s": setup_s,
            "cold_s": cold_s,
            "ops_per_s": len(warm_lat) / sum(warm_lat),
            "op_p50_ms": 1e3 * p50,
            "op_p90_ms": 1e3 * p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_rate": (attempted - failed) / attempted,
        }
        record = {
            "workload": name,
            "ops_per_pass": len(wl.ops),
            "warm_passes": len(warm),
            "traced_passes": len(traced_passes),
            "warm_samples": len(warm_lat),
            "samples_beyond_p90": sum(x > p90 for x in warm_lat),
            "raw_wall": {"setup_s": setup_raw, "cold_s": sum(cold_raw),
                         "ops_per_s": len(warm_raw) / sum(warm_raw),
                         "op_p50_ms": 1e3 * raw_p50, "op_p90_ms": 1e3 * raw_p90},
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "correct": all(known for known, _ in failures.values()),
            "failures": {k: {"known_red": kr, "problems": p}
                         for k, (kr, p) in failures.items()},
            "env": environment(root, name, seed, seconds, trace, size),
        }
        if trace:
            traced_scaled = [sum(scaled) for _, _, scaled in traced_passes]
            time_scale = sum(traced_scaled) / sum(sum(raw) for _, raw, _ in traced_passes)
            layer = tracer.layer_metrics(len(traced_passes), time_scale)
            layer.update({
                "fraccalc.table_builds": cold_builds,
                "fraccalc.table_hit_ratio":
                    1.0 - cold_builds / cold_lookups if cold_lookups else 0.0,
                "fraccalc.cold_extra_s": cold_s - statistics.median(traced_scaled),
                "spectra.uncertified_roots": wl.uncertified_roots(),
                "spectra.max_root_dev": wl.max_root_dev(),
                "cli.artifact_bytes": wl.artifact_bytes(),
                "trace_overhead": statistics.median(sum(s) for _, _, s in warm)
                / statistics.median(traced_scaled),
            })
            record["metrics"] = {k: {"value": layer[k], "unit": u}
                                 for k, u in layer_units.items()}
            record["targets"] = TARGETS
            record["dropped_spans"] = tracer.dropped_spans
            spans = os.path.join(out_dir, f"{name}-seed{seed}.spans.jsonl")
            tracer.write_spans(spans)
            record["spans_file"] = os.path.relpath(spans, root)
        else:
            record["metrics"] = {k: {"value": e2e[k], "unit": u}
                                 for k, u in e2e_units.items()}
        result_path = os.path.join(out_dir, f"{name}-seed{seed}-trace{int(trace)}.json")
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def print_report(record: dict) -> None:
    print(f"# {record['workload']}: {record['ops_per_pass']} ops/pass, cold pass + "
          f"{record['warm_passes']} warm + {record['traced_passes']} traced passes, "
          f"{record['warm_samples']} warm latency samples "
          f"({record['samples_beyond_p90']} beyond p90)")
    targets = record.get("targets", {})
    for key, m in record["metrics"].items():
        note = f"   -> {targets[key]}" if key in targets else ""
        print(f"{key:38s} {m['value']:.6g} {m['unit']}{note}")
    for key, value in record["raw_wall"].items():
        if value is not None:
            print(f"{'raw ' + key:38s} {value:.6g} (unscaled wall time)")
    print(f"{'error_rate':38s} {record['error_rate']:.6g} ratio "
          f"({record['failed']} of {record['attempted']} ops)")
    for op_id, f in record["failures"].items():
        tag = "known-red" if f["known_red"] else "FAILED"
        print(f"  {tag} {op_id}: {f['problems'][0]}")
    if record.get("spans_file"):
        print(f"spans written to {record['spans_file']}")
    print("env " + json.dumps(record["env"], sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few ops per workload, for the smoke test")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fracspec", "__init__.py")):
        print("perfbench: ./src/fracspec not found; run from the repository root",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    if args.workload == "all":
        codes = []
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--size", args.size]
            codes.append(subprocess.run(cmd, cwd=root).returncode)
        return max(codes)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.size, root)
    print_report(record)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
