"""fracspec: numerical toolkit for the Caputo-fractional Schroedinger
machinery, covering special functions, bound-state spectra, the deformed
SO(3) angular-momentum algebra, SU(3) triple-factorization checks, and the
charmonium mass-formula fit."""

from .fraccalc import (
    AlphaContext,
    FracSeries,
    PoleError,
    PrecisionLoss,
    QuadratureFailure,
    DegenerateNorm,
    caputo_derivative,
    expectation,
    frac_cos,
    frac_exp,
    frac_integral,
    frac_sin,
    gamma,
    mittag_leffler,
    rgamma,
    scalar_product,
)

__version__ = "0.1.0"
