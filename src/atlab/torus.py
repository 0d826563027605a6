"""Flat-torus spectral engine.

The torus is R^2 / L with L = (1/sqrt y)(Z + tau Z), the unit-area lattice,
so the Laplace eigenvalues are

    lambda_{m,n} = 4 pi^2 |m + n tau|^2 / y =: 4 pi^2 Q(m, n),   (m, n) != (0, 0),

with a one-dimensional kernel (the constants).  Q is the same quadratic form
on the dual lattice, which is what makes the Poisson-summed heat trace

    Theta(t) = sum_{m,n} e^(-lambda t) = (1/(4 pi t)) sum_{m,n} e^(-Q/(4 t))

a sum over the identical Q family.  The two forms meet term by term at the
self-dual point t* = 1/(4 pi): with t = t* w and theta(w) = sum' e^(-pi Q w),
1 + theta(w) = (1 + theta(1/w)) / w.  So w -> 1/w folds the Mellin integral
over (0, t*] onto [t*, inf) (Riemann's theta split, the one that proves the
functional equation), and the spectral zeta function is continued as

    zeta(s) Gamma(s) = (4 pi)^-s [G(s) + 1/(s-1) - 1/s],
    G(s) = int_1^inf (w^(s-1) + w^(-s)) theta(w) dw = sum'_Q [E_{1-s}(pi Q) + E_s(pi Q)],

with E_p(z) = int_1^inf w^-p e^(-z w) dw integrating each lattice term in
closed form (Crandall's 1998 expansion of the Epstein zeta function).
The regularized determinant is log det = -zeta'(0) = gamma_E + 1 - log(4 pi) - G(0).
The closed form log det = log(y |eta(tau)|^4) is the genus-1 invariant D_Ar
(`elliptic.d_ar_elliptic`), computed from the eta kernel; it never enters the
oracle path.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple

from .elliptic import d_ar_elliptic
from .numerics import EULER_GAMMA, UpperHalfPoint

ZETA_S_MIN, ZETA_S_MAX = -10.0, 3.0  # spectral_zeta's verified range
LATTICE_TAIL_TOL = 1e-18  # lattice heat sums drop terms below this
ORACLE_Y_MIN, ORACLE_Y_MAX = 1e-4, 1e4  # the oracle's verified domain in y

# E_p's continued-fraction depth on [_CF_EDGES[i], _CF_EDGES[i+1]) (the last one
# open): every 0 <= p <= 11 within 4.7e-16 of mpmath on [1, 41.5], past z = log 1e18.
_CF_EDGES = (1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0, 24.0, 32.0)
_CF_DEPTHS = (119, 92, 80, 58, 51, 44, 39, 30, 25, 20, 18, 15, 13, 12, 11, 10)
# The continued fraction's loop constants for each depth of _CF_DEPTHS, built from
# one tuple of (k + k, k, k*k) for k = 119, ..., 1: k (p - 1 + k) is k*k exactly at p = 1.
_CF_STEPS = tuple([(k + k, k, k * k) for k in map(float, range(_CF_DEPTHS[0], 0, -1))])
_CF_STEPS = tuple([_CF_STEPS[-d:] for d in _CF_DEPTHS])


class UnitTorus(NamedTuple):
    """Unit-area flat torus parametrized by tau in the upper half-plane."""

    tau: UpperHalfPoint


def _q_values(torus: UnitTorus, qmax: float) -> list[float]:
    """The nonzero values of Q(m,n) = ((m + n x)^2 + (n y)^2)/y <= qmax over
    half the lattice, one (m, n) of each pair +-(m, n), in no set order: the
    family every lattice sum of the oracle runs over, at x mod 1.
    Q(-m,-n) = Q(m,n) bit for bit, so each sum over the lattice is twice
    the sum over this list.

    Z + tau Z is the lattice of tau + k, so x is first shifted by round(x)
    (exact in doubles): any finite x gives the Q set of x - round(x), and n x
    stays small.  Row n >= 0 spans ceil(-nx - half) <= m <= floor(-nx + half),
    half^2 = qmax y - (n y)^2, and row 0 its m >= 1 only: the oracle's cut,
    qmax ~13.2, gives at most 363 values over y in [1e-4, 1e4]."""
    x, y = torus.tau.x, torus.tau.y
    x -= round(x)
    q = []
    for n in range(int(math.floor(math.sqrt(qmax / y))) + 1):
        nx, ny2 = n * x, (n * y) ** 2
        rad = qmax * y - ny2
        if rad >= 0.0:
            half = math.sqrt(rad)
            lo = math.ceil(-nx - half) if n else 1
            q += [v for m in range(lo, math.floor(-nx + half) + 1)
                  if (v := ((m + nx) ** 2 + ny2) / y) <= qmax]
    return q


def _expint(p: float, z: float) -> float:
    """E_p(z) = int_1^inf w^-p e^(-z w) dw at one point: one exp, then
    _expints (a table-driven continued fraction for z >= 1, the series and
    one E_p(1) below)."""
    return _expints(p, [z], [math.exp(-z)])[0]


def _expints(p: float, zs: list[float], e_zs: list[float]) -> list[float]:
    """E_p(z) = int_1^inf w^-p e^(-z w) dw for each z of zs, given e_zs = [e^-z],
    within 9e-16 relative of mpmath for -10 <= p <= 11 and
    pi ORACLE_Y_MIN <= z <= 41.5.

    p = 0 is e^-z / z; a negative p steps down from p + ceil(-p) by
    E_q = (e^-z - q E_{q+1}) / z, a sum of positive terms.  For z >= 1 it is
    e^-z / (z+p - 1 p/(z+p+2 - 2(p+1)/(z+p+4 - ...))) at the depth _CF_DEPTHS
    gives z; for z < 1 the pole-free identity (split at w = 1/z)

        E_p(z) = z^(p-1) E_p(1) + sum_k (-z)^k/k! phi(k+1-p),
        phi(a) = (z^-a - 1)/a = expm1(a L)/a,  phi(0) = L = -log z,

    where the textbook Gamma(1-p) z^(p-1) - sum ... loses about eps/|p - n|
    next to an integer n.  expm1 serves |a L| < 1 only: elsewhere the
    rounding of a L would cost |a L| ulps that pow does not.

    Per z this costs no exp of its own (the caller's e^-z serves both orders
    of a lattice term and the step-down), and either the series or the
    continued fraction, which reads its loop constants from _CF_STEPS (k*k in
    place of k (p - 1 + k) at p = 1).  E_p(1) is evaluated once per call,
    and only if some z < 1.  Each value has the bits it had when every term
    computed its own exp, E_p(1) and loop constants."""
    if p == 0.0:
        return [e_z / z for z, e_z in zip(zs, e_zs)]
    if p < 0.0:
        k = math.ceil(-p)
        q = p + k
        values = _expints(q, zs, e_zs)
        for _ in range(k):
            q -= 1.0
            values = [(e_z - q * value) / z for z, e_z, value in zip(zs, e_zs, values)]
        return values
    e_p1 = _expint(p, 1.0) if min(zs, default=1.0) < 1.0 else 0.0
    p1 = p - 1.0
    values = []
    for z, e_z in zip(zs, e_zs):
        if z < 1.0:
            big_l, total, term, k = -math.log(z), 0.0, 1.0, 0
            while True:
                a = k + 1.0 - p
                if not a:
                    phi = big_l
                elif abs(a * big_l) < 1.0:
                    phi = math.expm1(a * big_l) / a
                else:
                    phi = (z ** -a - 1.0) / a
                step = term * phi
                total += step
                if abs(step) <= 1e-17 * abs(total):
                    break
                k += 1
                term *= -z / k
            values.append(z ** p1 * e_p1 + total)
            continue
        steps = _CF_STEPS[bisect_right(_CF_EDGES, z) - 1]
        b = z + p - 2.0  # b + 2k = z+p + 2(k-1), rounded once
        t = b + 2.0 * len(steps) + 2.0
        if p == 1.0:
            for k2, _, kk in steps:
                t = b + k2 - kk / t
        else:
            for k2, k, _ in steps:
                t = b + k2 - k * (p1 + k) / t
        values.append(e_z / t)
    return values


def _rgamma(s: float) -> float:
    """1/Gamma(s), zero at the poles s = 0, -1, -2, ..."""
    if s <= 0.0 and s == round(s):
        return 0.0
    return 1.0 / math.gamma(s)


def _mellin_g(torus: UnitTorus, s: float) -> float:
    """G(s) = sum'_Q [E_{1-s}(pi Q) + E_s(pi Q)], rounded once (math.fsum)
    over half the lattice and doubled.  Each term costs one exp, e^(-pi Q),
    which both orders share, and at each order either a table-driven
    continued fraction (pi Q >= 1) or a series (pi Q < 1); E_p(1), which the
    series needs, is evaluated once per order per call (_expints).

    A term with Q > log(1/LATTICE_TAIL_TOL)/pi (~13.2) is below the tail
    tolerance, so Q is enumerated once, up to that cut.  The Q set is never
    empty: Q_min <= 2/sqrt(3) (the Hermite constant of a unit-area lattice).

    An array tau, or y outside [ORACLE_Y_MIN, ORACLE_Y_MAX], raises ValueError before
    Q is enumerated: the Q set grows like sqrt(max(y, 1/y)).  Any finite x is fine.
    """
    torus.tau._refuse_array("the spectral oracle")
    x, y = torus.tau.x, torus.tau.y
    if not ORACLE_Y_MIN <= y <= ORACLE_Y_MAX:
        raise ValueError(f"the spectral oracle needs {ORACLE_Y_MIN:g} <= y <= {ORACLE_Y_MAX:g}, "
                         f"got tau = {x!r}+{y!r}i")
    zs = [math.pi * q for q in _q_values(torus, math.log(1.0 / LATTICE_TAIL_TOL) / math.pi)]
    e_zs = [math.exp(-z) for z in zs]
    return 2.0 * math.fsum([a + b for a, b in zip(_expints(1.0 - s, zs, e_zs), _expints(s, zs, e_zs))])


def spectral_zeta(torus: UnitTorus, s: float) -> float:
    """zeta_tau(s) = sum' lambda^-s, continued through the self-dual split as

        (4 pi)^-s [rgamma(s) (G(s) + 1/(s-1)) - rgamma(s+1)]

    (the -1/s term folded into 1/Gamma(s+1), regular at s = 0, where
    rgamma(0) = 0 leaves exactly -1.0 whenever G(0) is finite).  Verified for
    -10 <= s <= 3, |s-1| >= 0.05, against the Chowla-Selberg series (within
    1.3e-15 relative on an s grid of step 0.1 at five taus with y >= 0.9);
    other s raise ValueError.  Over this range E_s and E_{1-s} keep to the
    orders -10 <= p <= 11 that _expint is verified for.
    tau must be a scalar in logdet_oracle's domain (any x, 1e-4 <= y <= 1e4), else ValueError.
    """
    if not ZETA_S_MIN <= s <= ZETA_S_MAX:
        raise ValueError(f"spectral_zeta needs {ZETA_S_MIN:g} <= s <= {ZETA_S_MAX:g}, got {s!r}")
    if abs(s - 1.0) < 0.05:
        raise ValueError("spectral_zeta has a simple pole at s = 1; need |s-1| >= 0.05")
    g = _mellin_g(torus, s)
    return (4.0 * math.pi) ** -s * (_rgamma(s) * (g + 1.0 / (s - 1.0)) - _rgamma(s + 1.0))


def logdet_oracle(torus: UnitTorus, metric_scale: float = 1.0) -> float:
    """-zeta'(0) from the self-dual split, never touching the eta closed form.

    zeta(s) = (4 pi)^-s F(s) with F(s) = rgamma(s) (G(s) + 1/(s-1)) - rgamma(s+1),
    F(0) = -1 and F'(0) = G(0) - 1 - gamma_E, so

        log det = gamma_E + 1 - log(4 pi) - G(0).

    metric_scale = g rescales the metric by g^2 (eigenvalues by 1/g^2, area
    by g^2).  The self-dual point moves to t* = g^2/(4 pi), where the integrand
    is the same e^(-pi Q w), so the result is exactly scaled_logdet(log det, g);
    a non-finite or non-positive g raises ValueError there.
    Verified for 1e-4 <= y <= 1e4 and any finite x within 1e-12
    max(1, |closed form|).  The lattice is taken at x mod 1 (_q_values), so
    x and x - round(x) give the same bits; no S inversion enters.  An array
    tau or another y, non-finite ones included, raise ValueError before
    anything is enumerated.
    """
    g0 = _mellin_g(torus, 0.0)
    return scaled_logdet(EULER_GAMMA + 1.0 - math.log(4.0 * math.pi) - g0, metric_scale)


# log det = log(y |eta(tau)|^4) = D_Ar, the closed form (modular invariant).
logdet_closed = d_ar_elliptic


def scaled_logdet(base_logdet: float, gamma: float) -> float:
    """Metric scaling law: log det(gamma^2 g) = 2 log gamma + log det(g)."""
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    return base_logdet + 2.0 * math.log(gamma)


class DetComparison(NamedTuple):
    """Closed-form vs oracle log-determinant for one torus."""

    tau: UpperHalfPoint
    logdet_closed: float
    logdet_oracle: float
    difference: float  # oracle - closed


def compare_logdet(tau: UpperHalfPoint) -> DetComparison:
    """Both routes at a scalar tau; an array tau is refused before either runs."""
    tau._refuse_array("the spectral oracle")
    closed = logdet_closed(tau)
    oracle = logdet_oracle(UnitTorus(tau))
    return DetComparison(tau, closed, oracle, oracle - closed)
