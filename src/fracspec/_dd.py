"""Double-double (compensated) polynomial evaluation.

A double-double value is a pair (hi, lo) of floats with hi + lo representing
the value and |lo| <= 0.5 ulp(hi), giving ~31 significant decimal digits.
Only Horner's rule is provided, with the error-free product (Dekker
splitting, no fma assumed) and sum inlined.  z may be a float or a numpy
array; the arithmetic is elementwise either way.

The splitting constant limits operands to |a| < 2^996; series terms here
stay far below that.
"""

_SPLIT = 134217729.0  # 2**27 + 1


def dd_horner(coeffs, z):
    """sum_n coeffs[n] * z**n in double-double by Horner's rule.

    coeffs is a non-empty sequence of (hi, lo) pairs.  Each step computes
    acc*z exactly as p + e (Dekker), adds the next coefficient with an
    error-free two-sum and renormalises once, so the absolute error of a
    step stays of order 2^-104 (|acc*z| + |coeff|).  Returns (hi, lo).
    """
    c = _SPLIT * z
    zh = c - (c - z)
    zl = z - zh
    hi, lo = coeffs[-1]
    for chi, clo in coeffs[-2::-1]:
        p = hi * z
        c = _SPLIT * hi
        ah = c - (c - hi)
        al = hi - ah
        e = ((ah * zh - p) + ah * zl + al * zh) + al * zl + lo * z
        s = p + chi
        bb = s - p
        e += ((p - (s - bb)) + (chi - bb)) + clo
        hi = s + e
        lo = e - (hi - s)
    return hi, lo
