"""Double-double (compensated) polynomial evaluation.

A double-double value is a pair (hi, lo) of floats with hi + lo representing
the value and |lo| <= 0.5 ulp(hi), giving ~31 significant decimal digits.
Only Horner's rule is provided, with the error-free product (Dekker
splitting, no fma assumed) and sum inlined.  z may be a float or a numpy
array; the arithmetic is elementwise either way.  The Mittag-Leffler sums
use it where their certificate rules out a plain double Horner pass.

The splitting constant limits operands to |a| < 2^996; series terms here
stay far below that.
"""

_SPLIT = 134217729.0  # 2**27 + 1


def dd_horner(hi, lo, z):
    """sum_n (hi[n] + lo[n]) * z**n in double-double by Horner's rule.

    hi and lo are non-empty sequences of equal length (lists or
    array('d')), the high and low parts of the coefficients.  Each step
    computes acc*z exactly as p + e (Dekker), adds the next coefficient with
    an error-free two-sum and renormalises once, so the absolute error of a
    step stays of order 2^-104 (|acc*z| + |coeff|).  Returns (hi, lo).
    """
    c = _SPLIT * z
    zh = c - (c - z)
    zl = z - zh
    ahi, alo = hi[-1], lo[-1]
    for chi, clo in zip(hi[-2::-1], lo[-2::-1]):
        p = ahi * z
        c = _SPLIT * ahi
        ah = c - (c - ahi)
        al = ahi - ah
        e = ((ah * zh - p) + ah * zl + al * zh) + al * zl + alo * z
        s = p + chi
        bb = s - p
        e += ((p - (s - bb)) + (chi - bb)) + clo
        ahi = s + e
        alo = e - (ahi - s)
    return ahi, alo
