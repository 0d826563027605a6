"""Genus-1 Arakelov quantities for the curve C / (Z + tau Z).

Closed forms, through log|eta| and the q-product:

    Area_Ar        = 2 pi y |eta(tau)|^2
    log det(D_Ar)  = log 2pi + 2 log y + 6 log|eta(tau)|
    D_Ar           = log det - log Area = log(y |eta(tau)|^4)
    upper bound    : log det(D_Ar) < log 2pi + 2 log y - pi y/2 + 3/(pi y)
    bound slack    = bound - log det = 3/(pi y) - 6 log|prod (1 - q^n)|

The bound constant is 3/(pi y), the value the proof chain and the small-genus
listing agree on; the alternative 6/(pi y) printed in the statement it derives
from is tracked by the claims registry, not used here.  D_Ar is modular
invariant, so it is computed at the exactly reduced point tau' alone, as
log y' - pi y'/3 + 4 log|prod (1 - q'^n)|; Area and log det individually are
not invariant.  The slack is the one identity above at every tau.

Every function takes one point tau and computes on Python floats; every
series runs to the fixed truncations of numerics.  The slack is positive for
every tau, since log|prod (1 - q^n)| <= |q|/(1 - |q|) <= 1/(2 pi y); CL-19
(claims) certifies the bound from that inequality.
"""

import math
import sys

from .numerics import LN_2PI, UpperHalfPoint, _domain_error, _qseries, _reduce, log_abs_eta

_SQRT3_2 = math.sqrt(3.0) / 2.0  # the double just below sqrt(3)/2: every reduced y' is >= it


def _finite(value: float, routine: str, tau: UpperHalfPoint) -> float:
    """value, or the domain error of routine at tau where it overflowed to inf."""
    if value > sys.float_info.max:
        raise _domain_error(routine, f"a result <= {sys.float_info.max!r}", tau=tau)
    return value


def log_arakelov_area(tau: UpperHalfPoint) -> float:
    """log Area_Ar = log 2pi + log y + 2 log|eta|, stable at large y."""
    return LN_2PI + math.log(tau.y) + 2.0 * log_abs_eta(tau)


def arakelov_area(tau: UpperHalfPoint) -> float:
    """Area_Ar = 2 pi y |eta(tau)|^2; ValueError where it is below the smallest
    normal double (reduced y above ~1370), which log_arakelov_area is not."""
    log_area = log_arakelov_area(tau)
    if log_area < math.log(sys.float_info.min):
        raise _domain_error("arakelov_area", "log Area_Ar >= log(sys.float_info.min)", tau=tau)
    return math.exp(log_area)


def arakelov_logdet(tau: UpperHalfPoint) -> float:
    """log det under the Arakelov metric: log 2pi + 2 log y + 6 log|eta|."""
    return LN_2PI + 2.0 * math.log(tau.y) + 6.0 * log_abs_eta(tau)


def d_ar_elliptic(tau: UpperHalfPoint) -> float:
    """D_Ar = log(det / Area) = log y + 4 log|eta|; scale and modular invariant,
    so it is evaluated at the exactly reduced point tau' alone, as
    log y' - pi y'/3 + 4 log|prod (1 - q'^n)|: every exact image of tau gives
    the same bits, within 1e-15 |D_Ar| of 40-digit mpmath at tau'."""
    return _d_ar_at(*_reduce(tau.x, tau.y, "d_ar_elliptic")[:2])


def _d_ar_at(x: float, y: float) -> float:
    """D_Ar at a reduced point (x, y): log y - pi y/3 + 4 log|prod (1 - q^n)|."""
    return math.log(y) - math.pi * y / 3.0 + 4.0 * _qseries(x, y)


def elliptic_upper_bound_log(tau: UpperHalfPoint) -> float:
    """log(2 pi y^2 e^(-pi y/2 + 3/(pi y))); depends on y only.  ValueError
    below y ~ 5.3e-309, where 3/(pi y) overflows."""
    y = tau.y
    return _finite(LN_2PI + 2.0 * math.log(y) - 0.5 * math.pi * y + 3.0 / (math.pi * y),
                   "elliptic_upper_bound_log", tau)


def bound_slack(tau: UpperHalfPoint) -> float:
    """elliptic_upper_bound_log - arakelov_logdet, as the identity
    3/(pi y) - 6 log|prod (1 - q^n)| at every tau: free of the cancellation
    between two values near -pi y/2 at large y.  Where y >= sqrt(3)/2 the
    q-product is the series at x - round(x) (exact in doubles); below, it is
    log_abs_eta(tau) + pi y/12, through the exactly reduced point.  ValueError
    where the sum overflows: below y ~ 5.3e-309, or at a cusp (0.5 + 5.4e-309i)."""
    y = tau.y
    if y >= _SQRT3_2:
        log_qprod = _qseries(tau.x - round(tau.x), y)
    else:
        log_qprod = log_abs_eta(tau) + math.pi * y / 12.0
    return _finite(3.0 / (math.pi * y) - 6.0 * log_qprod, "bound_slack", tau)


def faltings_delta_elliptic(tau: UpperHalfPoint, reading: str = "direct") -> float:
    """delta via the genus-1 torsion relation -6 D_Ar + a(1), under either
    normalization reading; a(1) = -8 log 2pi, as the (1 - g) K term of
    a(g) vanishes at g = 1.

    "direct" applies the relation as printed; "shifted" adds 4 log 2pi (the
    delta vs delta' offset).  The two readings differ by a constant the
    source leaves ambiguous at g = 1, so both are exposed as data and the
    claims registry records the comparison instead of adjudicating.
    ValueError where -6 D_Ar overflows: reduced y' above ~2.86e307.
    """
    if reading not in ("direct", "shifted"):
        raise _domain_error("faltings_delta_elliptic", "'direct' or 'shifted'", reading=reading)
    value = -6.0 * d_ar_elliptic(tau) + (-8.0 * LN_2PI)
    if reading == "shifted":
        value += 4.0 * LN_2PI
    return _finite(value, "faltings_delta_elliptic", tau)
