"""The numbers the documents print: LEDGER.md's computed values to their
printed digits, and README.md's example commands to their exact artifacts."""

import hashlib
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from fracspec.charmfit import (QuarkMasses, default_dataset, radius_box,
                               radius_sphere, table3_report)
from fracspec.cli import main
from fracspec.fraccalc import HBARC_MEV_FM
from fracspec.spectra import radial_ground

ROOT = Path(__file__).resolve().parent.parent
SIGMA = 2452.2  # MeV, the Sigma_c^0(2455) of LEDGER.md's criterion 7


def _digits(x, places):
    return f"{x:.{places}f}"


def _printed(*values):
    """values, each checked to be printed in LEDGER.md, so that an edit of
    one printed digit fails the test that recomputes it."""
    text = (ROOT / "LEDGER.md").read_text()
    assert [v for v in values if v not in text] == []
    return list(values)


# --- LEDGER.md -----------------------------------------------------------------


# (radius function, alpha, keyword inputs, printed values): criterion 7's
# tables, the rows the other tests do not hold
RADII = [
    (radius_box, 2.0 / 3.0, {}, ("0.8159", "0.3231")),
    (radius_sphere, 0.71129, {}, ("0.9527", "0.3370")),
    (radius_box, 0.71129, {}, ("0.7093", "0.3125")),
    (radius_sphere, 2.0 / 3.0, {"hbar_c": 189.9}, ("1.0800", "0.3314")),
    (radius_box, 2.0 / 3.0, {"hbar_c": 189.9}, ("0.7851", "0.3109")),
    (radius_sphere, 2.0 / 3.0, {"m_c_c2": 1373.21}, ("1.0800", "0.3379")),
    (radius_box, 2.0 / 3.0, {"m_c_c2": 1373.21}, ("0.7852", "0.3170")),
]


@pytest.mark.parametrize("radius,alpha,inputs,printed", RADII)
def test_ledger_radii(radius, alpha, inputs, printed):
    quarks = QuarkMasses(m_c_c2=inputs.get("m_c_c2", 1400.0))
    got = radius(SIGMA, quarks, alpha, hbar_c=inputs.get("hbar_c",
                                                          HBARC_MEV_FM))
    assert [_digits(v, 4) for v in got] == _printed(*printed)


def test_ledger_mass_table_deviations(tmp_path, capsys):
    # criterion 3: the worst deviation at the printed alphas and refined
    assert main(["masses", "--out", str(tmp_path / "masses.csv")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert [_digits(err["worst_deviation_mev"], 2),
            _digits(err["worst_deviation_alpha_refined_mev"], 3)] \
        == _printed("7.85", "0.104")


def test_ledger_mass_table_rows():
    # criterion 3: the worst deviation of the alpha 2/3 row, and of the c1
    # and c2 rows, at their printed alphas
    rows = table3_report(default_dataset())
    worst = [max(abs(r[f"set{i}_dev_printed"]) for r in rows) for i in range(4)]
    assert [_digits(worst[0], 3), _digits(worst[2], 2), _digits(worst[3], 2)] \
        == _printed("0.053", "3.90", "5.88")


def test_ledger_radial_zero():
    # criterion 6: g at the published zero, the first zeros around it, and
    # the alpha at which the first zero is the published one
    assert [_digits(radial_ground(3, 2.0 / 3.0).g(3.1652 * math.pi / 2), 4)] \
        == _printed("0.0371")
    assert [_digits(radial_ground(3, a).first_zero_scaled, 4)
            for a in (0.68, 0.70, 0.72)] \
        == _printed("3.4869", "3.2719", "3.0891")
    lo, hi = 0.70, 0.72  # the first zero falls with alpha
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if radial_ground(3, mid).first_zero_scaled > 3.1652:
            lo = mid
        else:
            hi = mid
    assert [_digits(lo, 6), _digits(hi, 6)] == _printed("0.711288") * 2


def test_ledger_published_root_radius():
    # criterion 7: the published root with the published energy formula
    # E0 = (1/2) m_c c^2 (hbar k / (m_c c r0))^(2 alpha)
    alpha, quarks = 2.0 / 3.0, QuarkMasses()
    e0 = SIGMA - (2.0 * quarks.m_d_c2 + quarks.m_c_c2)
    r0 = HBARC_MEV_FM * 3.1652 * math.pi / 2 / (
        quarks.m_c_c2 * (2.0 * e0 / quarks.m_c_c2) ** (1.0 / (2.0 * alpha)))
    assert [_digits(r0, 4)] == _printed("0.9725")


# --- README.md -----------------------------------------------------------------


# exit code and artifact sha256 of each example command, as README.md prints
# it; the digests hold for the toolchain of ROADMAP.md's state line (the last
# bits of a float can differ with another libm or numpy)
README_ARTIFACTS = {
    "fracspec special --name cos --alpha 0.9 --x-min -10 --x-max 10 --step "
    "0.05 --out cos09.csv":
        (0, "7886ad5e5922fdb0b6ac60e315c0695f6b7e86c564e7a2b9633d285b70bffcd3"),
    "fracspec zeros --alpha-min 0.55 --alpha-max 1.2 --alpha-step 0.05 "
    "--count 6 --out zeros.csv":
        (0, "2fec1078babbf1b32466116464556f024275da8fe759de78f927df31747bdfc8"),
    "fracspec table1 --out table1.csv":
        (0, "fb6af38084a784a7c04a06517587f50db5617d2ff111d4101bd93a2f0bd4739f"),
    "fracspec fit --alpha scan --c-model c0 --out fit.json":
        (0, "cbde33624b6337b3282b55514c9f28b947508569d678b9706c28e12924bbaafc"),
    "fracspec masses --out masses.csv":
        (1, "03a83b24d5fcc25056e2fdc7d5df53c34247689385dfbf5fc541869a1ebf3b64"),
    "fracspec predict --out predict.json":
        (0, "23ad117e03f971968437f3525ce3140d832cebfa95cb84a60adf9faae7355bef"),
    "fracspec radius --out radius.json":
        (1, "254fddd4f4a7a2e5f1edee31fd7a94182864193f9ebe99e9e6dc17d51cf5dcaf"),
    "fracspec potential --alpha 0.9 --temperature 12 --n-states 18 --out "
    "pot.csv":
        (0, "a95e212800e06b75c05bd03e1e84c4db50323d2bfa43a32405b8a198eac3d5b2"),
    "fracspec factorcheck --out factorcheck.json":
        (0, "72e6f3d8ecace91b6dc508ec7db6e1200d48755f4ddb6b89a195186a065ec746"),
    "fracspec radius --hbar-c 189.9 --out radius.json":
        (1, "a2ff6eaed3562f2a2691dd4183f93b6193a665e32dc64a560f14a5634462ced4"),
}


def test_readme_examples_write_the_listed_artifacts(tmp_path, capsys):
    text = (ROOT / "README.md").read_text()
    commands = [line.split("#")[0].strip()
                for line in re.findall(r"^fracspec .*$", text, re.M)]
    assert commands == list(README_ARTIFACTS)
    for i, command in enumerate(commands):
        argv = shlex.split(command)[1:]
        at = argv.index("--out") + 1
        out = tmp_path / str(i) / argv[at]
        out.parent.mkdir()
        argv[at] = str(out)
        rc = main(argv)
        capsys.readouterr()  # the exit-1 commands report on stderr
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert (rc, digest) == README_ARTIFACTS[command], command
