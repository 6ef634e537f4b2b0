"""Smoke test of the benchmark at tiny size.  Run from the repository root:

    python3 -m pytest perfbench/smoke.py

It runs every workload once untraced and once traced and checks that every
metric named in BENCHMARK.json is reported with its unit, that an injected
wrong root is counted as a failed op, and that the benchmark refuses to run
in a directory without the fracspec sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def _bench(cwd, *args):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_reported_with_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0.5",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = BENCH["end_to_end"] if trace == 0 else BENCH["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
        if trace == 0:
            assert got["value"] > 0.0, m["name"]


def test_injected_wrong_root_is_a_failed_op(monkeypatch):
    for path in (HERE, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import run
    from fracspec import spectra

    def once():
        return run.run_workload("zero_sweep", 1, 0.1, False, "tiny", ROOT,
                                setup_repeats=1)

    clean = once()
    real = spectra.find_zeros

    def shifted(kind, alpha, count, x_max, *args, **kwargs):
        scan = real(kind, alpha, count, x_max, *args, **kwargs)
        if kind == "cos" and count == 6:
            roots = list(scan.roots)
            roots[0] += 1e-3
            return spectra.ZeroScan(tuple(roots), scan.complete)
        return scan

    monkeypatch.setattr(spectra, "find_zeros", shifted)
    bad = once()
    # tiny zero_sweep: 4 alphas x (cos, sin) + 2 deep probes per pass; the
    # shift breaks the 4 cos ops, whatever the known-red probes do
    assert clean["correct"]
    assert not bad["correct"]
    assert bad["error_rate"] - clean["error_rate"] == pytest.approx(4 / 10)
    problems = {op: f["problems"][0] for op, f in bad["failures"].items()
                if not f["known_red"]}
    assert "off the exact integers" in problems.pop("cos@1.0")
    assert len(problems) == 3
    assert all("not certified" in p for p in problems.values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "zero_sweep", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
