"""Command-line surface: artifacts, determinism, exit codes."""

import errno
import json
import math
import os
import warnings
from importlib import resources

import pytest

from fracspec import charmfit, cli
from fracspec.cli import main
from fracspec.fraccalc import PrecisionLoss, frac_cos


def run(args):
    return main(args)


# --- special -------------------------------------------------------------------


def test_special_cos_classical(tmp_path):
    out = tmp_path / "cos.csv"
    rc = run(["special", "--name", "cos", "--alpha", "1.0",
              "--x-min", "-10", "--x-max", "10", "--step", "0.25",
              "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,value"
    for line in lines[1:]:
        x, v = map(float, line.split(","))
        assert v == pytest.approx(math.cos(x), abs=1e-6)


def _column_max(path, lo, hi):
    rows = [tuple(map(float, ln.split(",")))
            for ln in path.read_text().strip().splitlines()[1:]]
    return max(abs(v) for x, v in rows if lo <= abs(x) <= hi)


def test_special_amplitude_decay_below_one(tmp_path):
    out = tmp_path / "c09.csv"
    assert run(["special", "--name", "cos", "--alpha", "0.9",
                "--x-min", "-10", "--x-max", "10", "--step", "0.05",
                "--out", str(out)]) == 0
    assert _column_max(out, 5.0, 10.0) < _column_max(out, 0.0, 5.0)


def test_special_amplitude_growth_above_one(tmp_path):
    out = tmp_path / "c11.csv"
    assert run(["special", "--name", "cos", "--alpha", "1.1",
                "--x-min", "-10", "--x-max", "10", "--step", "0.05",
                "--out", str(out)]) == 0
    assert _column_max(out, 5.0, 10.0) > _column_max(out, 0.0, 5.0)


def test_special_domain_exceeded(tmp_path, capsys):
    out = tmp_path / "wide.csv"
    rc = run(["special", "--name", "cos", "--alpha", "1.0",
              "--x-min", "-500", "--x-max", "500", "--step", "10",
              "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    # the message carries the sum's own: the largest |z| and the bound reached
    err = json.loads(capsys.readouterr().err)["error"]
    assert err.startswith("DomainExceeded")
    assert "at |z|=250000; bound reached" in err


def test_special_domain_below_one(tmp_path):
    # E_{0.1,1} certifies only up to |z| ~ 0.945 < 1, yet covers x <= 0.5
    out = tmp_path / "c005.json"
    assert run(["special", "--name", "cos", "--alpha", "0.05", "--x-min", "0",
                "--x-max", "0.5", "--step", "0.1", "--format", "json",
                "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    xs = [r["x"] for r in rows]
    assert len(xs) == 6
    assert [r["value"] for r in rows] == list(frac_cos(0.05, xs))


def test_special_mlf(tmp_path):
    out = tmp_path / "mlf.csv"
    rc = run(["special", "--name", "mlf", "--alpha", "1.0", "--beta", "1.0",
              "--x-min", "-2", "--x-max", "2", "--step", "0.5",
              "--out", str(out)])
    assert rc == 0
    rows = [tuple(map(float, ln.split(",")))
            for ln in out.read_text().strip().splitlines()[1:]]
    for x, v in rows:
        assert v == pytest.approx(math.exp(x), abs=1e-6)


# --- zeros ---------------------------------------------------------------------


def test_zeros_classical_and_empty(tmp_path):
    out = tmp_path / "zeros.csv"
    rc = run(["zeros", "--alpha-min", "0.45", "--alpha-max", "1.0",
              "--alpha-step", "0.55", "--count", "3", "--x-max", "8",
              "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "no_zeros" in text
    rows = [ln.split(",") for ln in text.strip().splitlines()[1:]]
    cos1 = [float(r[3]) for r in rows if r[0] == "1.000000"
            and r[1] == "cos" and r[3] != "no_zeros"]
    assert cos1 == pytest.approx([1.0, 3.0, 5.0], abs=1e-5)


def test_zeros_up_to_alpha_one_and_a_half(tmp_path):
    # the amplitude reaches ~1e8 before the 12th root at alpha 1.4 and 1.5
    out = tmp_path / "zeros.csv"
    assert run(["zeros", "--alpha-min", "1.3", "--alpha-max", "1.5",
                "--alpha-step", "0.1", "--count", "12", "--x-max", "30",
                "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 3 * 2 * 12


def test_zeros_deterministic(tmp_path):
    a = tmp_path / "z1.csv"
    b = tmp_path / "z2.csv"
    args = ["zeros", "--alpha-min", "0.8", "--alpha-max", "1.0",
            "--alpha-step", "0.1", "--count", "2", "--x-max", "6"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# --- tables and fits --------------------------------------------------------------


def test_table1_artifact(tmp_path):
    out = tmp_path / "t1.csv"
    assert run(["table1", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 8
    header = lines[0].split(",")
    assert "lz_23" in header and "j2c1_065_dev" in header


def test_table1_json_matches_csv(tmp_path):
    c = tmp_path / "t1.csv"
    j = tmp_path / "t1.json"
    assert run(["table1", "--out", str(c)]) == 0
    assert run(["table1", "--out", str(j), "--format", "json"]) == 0
    rows = json.loads(j.read_text())
    line1 = c.read_text().strip().splitlines()[3].split(",")
    header = c.read_text().strip().splitlines()[0].split(",")
    for k, v in zip(header, line1):
        assert float(v) == pytest.approx(float(rows[2][k]), abs=1e-6)


def test_fit_artifact(tmp_path):
    out = tmp_path / "fit.json"
    assert run(["fit", "--alpha", "0.681", "--c-model", "c0",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["params"]["m0c2"] == pytest.approx(2451.26, abs=2.0)
    assert payload["diagnostics"]["dm_published_abs"] < 2.12


def test_fit_scan_artifact(tmp_path):
    out = tmp_path / "scan.json"
    assert run(["fit", "--alpha", "scan", "--c-model", "c0",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert abs(payload["params"]["alpha"] - 0.681) <= 0.005


def test_fit_bad_dataset(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["fit", "--alpha", "0.68", "--dataset", str(bad),
                "--out", str(tmp_path / "x.json")]) == 2


def test_masses_artifact_honest_exit(tmp_path):
    # artifact always written; exit 1 because the published table cannot be
    # matched at printed-alpha precision (documented defect)
    out = tmp_path / "masses.csv"
    rc = run(["masses", "--out", str(out)])
    assert rc == 1
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 13


def test_predict_artifact(tmp_path):
    out = tmp_path / "pred.json"
    assert run(["predict", "--out", str(out)]) == 0
    p = json.loads(out.read_text())
    assert p["m33"] == pytest.approx(4268.0, abs=22.0)
    assert p["m0c2"] == pytest.approx(2455.0, abs=3.0)
    assert p["kappa"] == pytest.approx(262.4, abs=0.9)


def test_radius_artifact_honest_exit(tmp_path):
    out = tmp_path / "radius.json"
    rc = run(["radius", "--out", str(out)])
    assert rc == 1  # sphere chain cannot match the published values
    p = json.loads(out.read_text())
    assert p["a_fm"] == pytest.approx(0.81, abs=0.01)
    assert p["r_mean_box_fm"] == pytest.approx(0.32, abs=0.01)
    assert p["r0_fm"] == pytest.approx(1.1222, abs=0.001)


def test_radius_of_a_tiny_well_is_finite(tmp_path):
    # E0 = 1e300 MeV: a well of ~1e-224 fm, far from the published values
    out = tmp_path / "radius.json"
    assert run(["radius", "--sigma-mass", "1e300", "--out", str(out)]) == 1
    p = json.loads(out.read_text())
    for key in ("a_fm", "r_mean_box_fm", "r0_fm", "r_mean_sphere_fm"):
        assert 0.0 < p[key] < math.inf, key


def test_radius_bad_input(tmp_path):
    assert run(["radius", "--sigma-mass", "100",
                "--out", str(tmp_path / "r.json")]) == 2


@pytest.mark.parametrize("args", [
    ["radius", "--alpha", "0.3"],
    ["special", "--name", "cos", "--alpha", "0.8", "--step", "0"],
    ["special", "--name", "sin", "--alpha", "0.8", "--step", "-0.5"],
    ["zeros", "--alpha-step", "0"],
    ["predict", "--dataset", "WITHOUT_21_22"],
    # beyond the certified positive axis, where the value grows
    ["special", "--name", "exp", "--alpha", "1.0", "--x-min", "0",
     "--x-max", "25", "--step", "1"],
    ["special", "--name", "mlf", "--alpha", "1.0", "--x-min", "-2",
     "--x-max", "30", "--step", "1"],
    # alpha > 1: cos grows on the negative axis past what rounds within tol
    ["special", "--name", "cos", "--alpha", "1.5", "--x-min", "0",
     "--x-max", "34", "--step", "0.5"],
    # a directory where a file is expected: IsADirectoryError, an OSError
    ["fit", "--alpha", "0.68", "--dataset", "DIR"],
    ["masses", "--dataset", "DIR"],
    ["radius", "--config", "DIR"],
    # nan passes a `<= 0` guard
    ["potential", "--alpha", "0.9", "--temperature", "nan", "--n-states", "5"],
    ["radius", "--sigma-mass", "nan"],
    ["radius", "--sigma-mass", "inf"],
    # a scan range that is empty or nan
    ["zeros", "--x-max", "nan"],
    ["zeros", "--x-max", "0"],
    ["zeros", "--x-max", "-3"],
    # a grid with non-finite points
    ["potential", "--alpha", "0.9", "--temperature", "3", "--n-states", "40",
     "--grid-half-width", "nan"],
    ["potential", "--alpha", "0.9", "--temperature", "3", "--n-states", "40",
     "--grid-half-width", "inf"],
    # a non-finite mass or error in a dataset (json reads NaN and Infinity),
    # a non-finite quark mass in a config
    ["fit", "--alpha", "0.68", "--dataset", "BUNDLED:mass_mev=nan"],
    ["fit", "--alpha", "0.68", "--dataset", "BUNDLED:mass_mev=inf"],
    ["fit", "--alpha", "0.68", "--dataset", "BUNDLED:err_mev=nan"],
    ["fit", "--alpha", "0.68", "--dataset", "BUNDLED:err_mev=-1"],
    # a state label that is not an integer
    ["fit", "--alpha", "0.68", "--dataset", "BUNDLED:j=1.7"],
    ["radius", "--config", 'CONFIG:{"quark_masses": {"m_c_c2": NaN}}'],
    ["radius", "--config", 'CONFIG:{"quark_masses": {"m_d_c2": Infinity}}'],
    # a config of the wrong shape, or with a key radius does not read
    ["radius", "--config", "CONFIG:[1, 2]"],
    ["radius", "--config", 'CONFIG:{"quark_masses": 5}'],
    ["radius", "--config", 'CONFIG:{"alpha": [0.7]}'],
    ["radius", "--config", 'CONFIG:{"hbar_c": null}'],
    ["radius", "--config", 'CONFIG:{"alpha": 0.7}'],
    ["radius", "--config", 'CONFIG:{"hbar_c": 190.0, "c_model": "c1"}'],
    ["radius", "--config", 'CONFIG:{"quark_masses": {"m_u_c2": 300}}'],
    # a state count below one
    ["potential", "--alpha", "0.9", "--temperature", "3", "--n-states", "0"],
    ["potential", "--alpha", "0.9", "--temperature", "3", "--n-states", "-1"],
    # --beta where it has no meaning
    ["special", "--name", "cos", "--alpha", "0.8", "--beta", "5"],
    # fewer states than the six parameters, each parameter supported
    ["fit", "--alpha", "0.68", "--dataset", "FIVE_STATES"],
    # a non-finite Mittag-Leffler parameter
    ["special", "--name", "mlf", "--alpha", "1", "--beta", "inf"],
    ["special", "--name", "mlf", "--alpha", "nan"],
])
def test_bad_input_is_a_json_error(tmp_path, capsys, args):
    bundled = json.loads(resources.files("fracspec.data")
                         .joinpath("charmonium.json").read_text())
    subsets = {"WITHOUT_21_22": lambda jm: jm not in ((2, 1), (2, 2)),
               "FIVE_STATES": lambda jm: jm in ((0, 0), (1, 1), (2, 1),
                                                (3, 0), (3, 1))}
    for label, keep in subsets.items():
        if label in args:
            partial = tmp_path / "partial.json"
            partial.write_text(json.dumps(
                [r for r in bundled if keep((r["j"], r["m"]))]))
            args = [str(partial) if a == label else a for a in args]
    args = [str(tmp_path) if a == "DIR" else a for a in args]
    for n, a in enumerate(args):
        kind, _, text = a.partition(":")
        if kind == "BUNDLED":  # the bundled dataset with one <00> field set
            key, value = text.split("=")
            text = json.dumps([{**bundled[0], key: float(value)}] + bundled[1:])
        if kind in ("BUNDLED", "CONFIG"):
            path = tmp_path / f"input{n}.json"
            path.write_text(text)
            args[n] = str(path)
    out = tmp_path / "out"
    assert run(args + ["--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error" in json.loads(err)


def test_scan_past_the_amplitude_range_warns_nothing(tmp_path, capsys):
    # past the amplitude range the scan values grow huge; stderr must
    # still be one JSON object, with no numpy warning ahead of it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["zeros", "--x-max", "500", "--alpha-min", "1.2",
                  "--alpha-max", "1.2", "--count", "400",
                  "--out", str(tmp_path / "z.csv")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"].startswith("ValueError")


def test_scan_to_500_at_alpha_0_6_is_certified(tmp_path, capsys):
    # the large-argument branch covers the scan: one cos root, no sin root
    out = tmp_path / "z.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["zeros", "--x-max", "500", "--alpha-min", "0.6",
                  "--alpha-max", "0.6", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert out.read_text().splitlines()[1:] == [
        "0.600000,cos,0,1.396881", "0.600000,sin,,no_zeros"]


@pytest.mark.parametrize("args", [
    ["special", "--name", "cos", "--alpha", "0.8", "--step", "inf"],
    ["zeros", "--alpha-step", "inf"],
])
def test_infinite_grid_step_names_the_option(tmp_path, capsys, args):
    out = tmp_path / "out.csv"
    assert run(args + ["--out", str(out)]) == 2
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == f"ValueError: {args[-2]} must be finite and positive: inf"


def test_potential_past_the_finite_spectrum_is_cut_off(tmp_path, capsys):
    # alpha 0.8 has 7 states; the last weight at T = 12 is far above 1e-8
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["potential", "--alpha", "0.8", "--temperature", "12",
                  "--n-states", "18", "--grid-half-width", "3",
                  "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)["error"]
    assert err.startswith("CutoffTooSmall: cutoff weight 5.10e-02")


@pytest.mark.parametrize("args", [
    # beyond the certified range: PrecisionLoss, raised before any artifact
    ["potential", "--alpha", "0.95", "--temperature", "12", "--n-states", "18",
     "--grid-half-width", "3"],
    ["potential", "--alpha", "0.9", "--temperature", "12", "--n-states", "18",
     "--grid-half-width", "3"],
    # bundled data, no user range: a certification failure is not bad input
    ["masses"],
])
def test_certification_failure_exits_1_with_json_error(tmp_path, capsys,
                                                       monkeypatch, args):
    if args == ["masses"]:
        def uncertified(**kwargs):
            raise PrecisionLoss("cannot certify")
        monkeypatch.setattr(charmfit, "table3_report", uncertified)
    out = tmp_path / "out"
    assert run(args + ["--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err)["error"].startswith("PrecisionLoss")


@pytest.mark.parametrize("args", [
    ["radius"],
    ["masses"],
    ["factorcheck"],
])
def test_unexpected_error_exits_1_with_json_error(tmp_path, capsys,
                                                  monkeypatch, args):
    def broken(*args, **kwargs):
        raise raised

    raised = None
    if args == ["radius"]:
        raised = ZeroDivisionError("float division by zero")
        monkeypatch.setattr(charmfit, "radius_box", broken)
    elif args == ["masses"]:
        raised = RuntimeError("unforeseen")
        monkeypatch.setattr(charmfit, "table3_report", broken)
    elif args == ["factorcheck"]:
        # a write that fails for want of disk space is not bad input
        raised = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        monkeypatch.setattr(cli, "_write_atomic", broken)
    out = tmp_path / "out"
    assert run(args + ["--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    payload = json.loads(err)
    assert payload["error"].split(":")[0] in (
        "ZeroDivisionError", "RuntimeError", "OSError")
    # the file and line the error rose from
    path, line = payload["where"].rsplit(":", 1)
    assert path.endswith(".py") and int(line) > 0


@pytest.mark.parametrize("args", [
    ["fit", "--tol", "1e-3"],
    ["zeros", "--tol", "1e-3"],
    ["radius", "--format", "json"],
    ["predict", "--format", "csv"],
])
def test_ignored_flags_are_rejected(tmp_path, capsys, args):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(args + ["--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_special_exp_within_the_positive_range(tmp_path):
    out = tmp_path / "exp.csv"
    assert run(["special", "--name", "exp", "--alpha", "1.0", "--x-min", "-10",
                "--x-max", "10", "--step", "0.5", "--out", str(out)]) == 0
    rows = [tuple(map(float, ln.split(",")))
            for ln in out.read_text().strip().splitlines()[1:]]
    assert len(rows) == 41
    for x, v in rows:
        assert v == pytest.approx(math.exp(x), abs=1e-6)


def test_potential_artifact(tmp_path):
    out = tmp_path / "pot.csv"
    assert run(["potential", "--alpha", "0.9", "--temperature", "12",
                "--n-states", "18", "--grid-points", "61",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,v_over_t"
    assert len(lines) == 62


def test_potential_cutoff_bad_input(tmp_path):
    assert run(["potential", "--alpha", "1.0", "--temperature", "100",
                "--n-states", "5", "--out", str(tmp_path / "p.csv")]) == 2


def test_factorcheck_artifact(tmp_path):
    out = tmp_path / "fc.json"
    assert run(["factorcheck", "--out", str(out)]) == 0
    p = json.loads(out.read_text())
    assert p["all_pass"] is True
    assert len(p["clifford"]) == 27
    assert p["triple_product"]["pass"] is True


def test_config_file(tmp_path, capsys):
    # LEDGER.md criterion 7: hbar_c = 189.9 MeV fm brings r0 to the
    # published 1.08 fm; the other published values still fail (exit 1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"hbar_c": 189.9}))
    out = tmp_path / "radius.json"
    assert run(["radius", "--config", str(cfg), "--out", str(out)]) == 1
    assert round(json.loads(out.read_text())["r0_fm"], 4) == 1.0800
    # a key radius does not read is bad input, named in the error
    cfg.write_text(json.dumps({"hbar_c": 189.9, "alpha": 0.7}))
    capsys.readouterr()
    assert run(["radius", "--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown config key(s) alpha" in json.loads(
        capsys.readouterr().err)["error"]
