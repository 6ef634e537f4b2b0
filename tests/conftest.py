"""Shared independent oracles for the test suite.

The oracles deliberately avoid the library's own code paths: gamma comes
from Spouge's formula evaluated in 60-digit mpmath arithmetic (not
mpmath.gamma), and the Mittag-Leffler reference sums its series directly in
extended precision with that same Spouge gamma until the terms drop below
1e-30.
"""

import mpmath as mp
import pytest


def spouge_gamma_mp(xm, a=32):
    """Spouge-formula gamma for an mpf argument inside an mp.workdps block."""
    if xm < mp.mpf("0.5"):
        return mp.pi / (mp.sin(mp.pi * xm) * spouge_gamma_mp(1 - xm, a))
    z = xm - 1
    acc = mp.sqrt(2 * mp.pi)
    for k in range(1, a):
        ck = ((-1) ** (k - 1)) * mp.mpf(a - k) ** (k - mp.mpf("0.5")) \
            * mp.e ** (a - k) / mp.factorial(k - 1)
        acc += ck / (z + k)
    return (z + a) ** (z + mp.mpf("0.5")) * mp.e ** (-(z + a)) * acc


def spouge_gamma(x: float, dps: int = 60) -> float:
    """Double-precision view of the Spouge oracle."""
    with mp.workdps(dps):
        return float(spouge_gamma_mp(mp.mpf(x)))


def ml_partial_sum_oracle(alpha, beta, z, dps: int = 60) -> float:
    """Brute-force E_{alpha,beta}(z): extended-precision partial sums until
    the term magnitude falls below 1e-30, gamma via the Spouge oracle."""
    with mp.workdps(dps):
        am, bm, zm = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
        s = mp.mpf(0)
        n = 0
        while True:
            s += zm ** n / spouge_gamma_mp(am * n + bm)
            n += 1
            if n > 10 and abs(zm ** n / spouge_gamma_mp(am * n + bm)) \
                    < mp.mpf(10) ** (-30):
                break
        return float(s)


def ml_series_mp(alpha, beta, z):
    """E_{alpha,beta}(z) for mpf arguments at the current mpmath precision:
    the series summed until its terms are decreasing and below 10^-(dps+5)
    (gamma via mpmath; call inside an mp.workdps block)."""
    tiny = mp.mpf(10) ** (-(mp.mp.dps + 5))
    s = mp.mpf(0)
    prev = mp.inf
    n = 0
    while True:
        t = z ** n / mp.gamma(alpha * n + beta)
        s += t
        if abs(t) < tiny and abs(t) < prev:
            return s
        prev = abs(t)
        n += 1


@pytest.fixture(scope="session")
def bundled_dataset():
    from fracspec.charmfit import default_dataset

    return default_dataset()
