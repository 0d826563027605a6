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
(`elliptic.d_ar_elliptic`), computed from the q-series at the exactly reduced
point; it never enters the oracle path.
"""

import math
from bisect import bisect_right
from typing import NamedTuple

from .elliptic import _d_ar_at, d_ar_elliptic
from .numerics import EULER_GAMMA, UpperHalfPoint, _domain_error, _reduce

ZETA_S_MIN, ZETA_S_MAX = -10.0, 11.0  # spectral_zeta's verified range
LATTICE_TAIL_TOL = 1e-18  # lattice heat sums drop terms below this
ORACLE_Y_MAX = 1e4  # the oracle's verified domain: reduced y' <= this
AGREEMENT_TOL = 1e-12  # the routes agree: |oracle - closed| / max(1, |closed|) <= this

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


def _q_values(x: float, y: float, qmax: float) -> list[float]:
    """The nonzero values of Q(m,n) = ((m + n x)^2 + (n y)^2)/y <= qmax over
    half the lattice of x + iy, one (m, n) of each pair +-(m, n), in no set
    order: the family every lattice sum of the oracle runs over.
    Q(-m,-n) = Q(m,n) bit for bit, so each sum over the lattice is twice
    the sum over this list.

    Row n >= 0 spans ceil(-nx - half) <= m <= floor(-nx + half),
    half^2 = qmax y - (n y)^2, and row 0 its m >= 1 only: at the oracle's
    reduced point and cut (|x| <= 1/2, sqrt(3)/2 <= y <= 1e4, qmax ~13.2)
    that is at most 4 rows and 363 values."""
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
    """E_p(z) at one point: _e_p with its own exp."""
    return _e_p(p, z, math.exp(-z))


def _e_p(p: float, z: float, e_z: float) -> float:
    """E_p(z) = int_1^inf w^-p e^(-z w) dw from e_z = e^-z: within 1.2e-15
    relative of mpmath for -10 <= p <= 11 and pi / ORACLE_Y_MAX <= z <= 41.5.

    p = 0 is e^-z / z; a negative p steps down from q by
    E_q = (e^-z - q E_{q+1}) / z, a sum of positive terms.  For z >= 1 it is
    e^-z / (z+p - 1 p/(z+p+2 - 2(p+1)/(z+p+4 - ...))) at the depth _CF_DEPTHS
    gives z (loop constants from _CF_STEPS); for z < 1 the pole-free identity

        E_p(z) = z^(p-1) E_p(1) + sum_k (-z)^k/k! phi(k+1-p),
        phi(a) = (z^-a - 1)/a = expm1(a L)/a,  phi(0) = L = -log z,

    where the textbook Gamma(1-p) z^(p-1) - sum ... loses about eps/|p - n|
    next to an integer n.  expm1 serves |a L| < 1 only: elsewhere the
    rounding of a L would cost |a L| ulps that pow does not.  E_p(1) is the
    fraction's value: _E1_OF_1 at p = 1, the order of every term of G(0),
    and _expint(p, 1.0) at any other p, evaluated where the series reads it."""
    if p <= 0.0:
        if p == 0.0:
            return e_z / z
        k = math.ceil(-p)
        q = p + k
        value = _e_p(q, z, e_z)
        for _ in range(k):
            q -= 1.0
            value = (e_z - q * value) / z
        return value
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
                return z ** (p - 1.0) * (_E1_OF_1 if p == 1.0 else _expint(p, 1.0)) + total
            k += 1
            term *= -z / k
    steps = _CF_STEPS[bisect_right(_CF_EDGES, z) - 1]
    b, p1 = z + p - 2.0, p - 1.0  # b + 2k = z+p + 2(k-1), rounded once
    t = b + 2.0 * len(steps) + 2.0
    for k2, k, _ in steps:
        t = b + k2 - k * (p1 + k) / t
    return e_z / t


_E1_OF_1 = _expint(1.0, 1.0)  # E_1(1), the fraction at z = 1: _e_p's series reads it at p = 1
_Q_CUT = math.log(1.0 / LATTICE_TAIL_TOL) / math.pi  # lattice terms past this Q are below it
_LOGDET_HEAD = EULER_GAMMA + 1.0 - math.log(4.0 * math.pi)  # log det = _LOGDET_HEAD - G(0)


def _rgamma(s: float) -> float:
    """1/Gamma(s), zero at the poles s = 0, -1, -2, ..., and s itself where
    Gamma(s) overflows (0 < |s| < ~5.6e-309): the double nearest
    1/Gamma(s) = s (1 + gamma_E s + ...)."""
    if s <= 0.0 and s == round(s):
        return 0.0
    try:
        return 1.0 / math.gamma(s)
    except OverflowError:
        return s


def _mellin_g(torus: UnitTorus, s: float, routine: str) -> float:
    """G(s) at tau's exactly reduced point (x', y'), by _mellin_g_at."""
    x, y, _, _, _, _ = _reduce(torus.tau.x, torus.tau.y, routine)
    return _mellin_g_at(x, y, s, torus.tau, routine)


def _mellin_g_at(x: float, y: float, s: float, tau: UpperHalfPoint, routine: str) -> float:
    """G(s) = sum'_Q [E_{1-s}(pi Q) + E_s(pi Q)] at (x, y), the exactly reduced
    point of tau, rounded once (math.fsum) over half the lattice and doubled.
    An exact SL2(Z) image spans the same lattice, so the Q family is tau's,
    and the reduction, being exact, cannot correlate this route's error with
    the eta closed form's.  Q is enumerated once, up to the cut _Q_CUT (~13.2);
    Q_min <= 2/sqrt(3) (the Hermite constant), so it is never empty.

    At s != 0 each term is _expint at both orders, so a term with pi Q < 1
    evaluates the E_q(1) its series reads, and a call without one none.  At
    s = 0 the orders are 1 and 0 and each term takes one exp for both: the
    continued fraction (pi Q >= 1) reads k*k for k (p - 1 + k), E_0(z) is
    e^-z / z and the series reads _E1_OF_1, so each term has the bits of
    _expint alone.  The terms are taken in ascending z: a z equal to the one
    before appends that term again, with no exp and no fraction (a square or
    hexagonal lattice repeats most of its Q values, e.g. 22 terms hold 8
    distinct at tau = i), and the fraction's depth is looked up only when z
    passes its bin's upper edge.  The bits cannot move: equal z gives an
    equal term, and fsum is exactly rounded, so the terms' order is free.
    y' above ORACLE_Y_MAX is routine's domain error at tau, before Q is enumerated.
    """
    if not y <= ORACLE_Y_MAX:
        raise _domain_error(routine, f"a reduced y' <= {ORACLE_Y_MAX:g}", tau=tau)
    zs = [math.pi * q for q in _q_values(x, y, _Q_CUT)]
    if s:
        return 2.0 * math.fsum([_expint(1.0 - s, z) + _expint(s, z) for z in zs])
    zs.sort()
    terms, last, edge = [], 0.0, 1.0
    for z in zs:
        if z != last:
            last, e_z = z, math.exp(-z)
            if z < 1.0:
                e_1 = _e_p(1.0, z, e_z)
            else:
                if z >= edge:
                    i = bisect_right(_CF_EDGES, z)
                    steps = _CF_STEPS[i - 1]
                    edge = _CF_EDGES[i] if i < len(_CF_EDGES) else math.inf
                b = z + 1.0 - 2.0
                t = b + 2.0 * len(steps) + 2.0
                for k2, _, kk in steps:
                    t = b + k2 - kk / t
                e_1 = e_z / t
            term = e_1 + e_z / z
        terms.append(term)
    return 2.0 * math.fsum(terms)


def spectral_zeta(torus: UnitTorus, s: float) -> float:
    """zeta_tau(s) = sum' lambda^-s, continued through the self-dual split as

        (4 pi)^-s [rgamma(s) (G(s) + 1/(s-1)) - rgamma(s+1)]

    (the -1/s term folded into 1/Gamma(s+1), regular at s = 0, where
    rgamma(0) = 0 leaves exactly -1.0 whenever G(0) is finite).  Verified for
    -10 <= s <= 11, |s-1| >= 0.05, the orders -10 <= p <= 11 of E_s and
    E_{1-s} that _expint is verified for; other s raise ValueError.  Against
    the Chowla-Selberg series at the exactly reduced tau it is within 2.5e-15
    relative at s = -9.3, -2.3, 0.3, 1.8, 3, 7.5 and 11, over x = 0, 0.3, 0.5
    at y = 1e-4 and 1e4, the ill-conditioned 0.4009 + 8.0e-4i and 12 seeded
    taus with y down to 1e-12.  tau must be in logdet_oracle's domain (reduced
    y' <= ORACLE_Y_MAX), else ValueError.
    """
    if not (ZETA_S_MIN <= s <= ZETA_S_MAX and abs(s - 1.0) >= 0.05):  # 1 is a simple pole
        raise _domain_error("spectral_zeta", f"{ZETA_S_MIN:g} <= s <= {ZETA_S_MAX:g} and "
                            "|s - 1| >= 0.05", s=s)
    g = _mellin_g(torus, s, "spectral_zeta")
    return (4.0 * math.pi) ** -s * (_rgamma(s) * (g + 1.0 / (s - 1.0)) - _rgamma(s + 1.0))


def logdet_oracle(torus: UnitTorus) -> float:
    """-zeta'(0) from the self-dual split, never touching the eta closed form.

    zeta(s) = (4 pi)^-s F(s) with F(s) = rgamma(s) (G(s) + 1/(s-1)) - rgamma(s+1),
    F(0) = -1 and F'(0) = G(0) - 1 - gamma_E, so

        log det = gamma_E + 1 - log(4 pi) - G(0).

    Within AGREEMENT_TOL max(1, |closed form|) wherever tau's exactly reduced y'
    is at most ORACLE_Y_MAX (so for every y in [1e-4, 1e4]); the lattice is
    taken there, so every exact SL2(Z) image of tau gives the same bits.  A
    larger y' raises ValueError before anything is enumerated.
    """
    return _LOGDET_HEAD - _mellin_g(torus, 0.0, "logdet_oracle")


# log det = log(y |eta(tau)|^4) = D_Ar, the closed form (modular invariant).
logdet_closed = d_ar_elliptic


class DetComparison(NamedTuple):
    """Closed-form vs oracle log-determinant for one torus."""

    logdet_closed: float
    logdet_oracle: float
    difference: float  # oracle - closed

    @property
    def relative_gap(self) -> float:
        """|difference| / max(1, |logdet_closed|); at most AGREEMENT_TOL when the routes agree."""
        return abs(self.difference) / max(1.0, abs(self.logdet_closed))


def compare_logdet(tau: UpperHalfPoint) -> DetComparison:
    """Both routes at tau's exactly reduced point (x', y'), reduced once."""
    x, y, _, _, _, _ = _reduce(tau.x, tau.y, "compare_logdet")
    closed = _d_ar_at(x, y)
    oracle = _LOGDET_HEAD - _mellin_g_at(x, y, 0.0, tau, "compare_logdet")
    return DetComparison(closed, oracle, oracle - closed)
