"""Flat-torus spectral engine.

The torus is R^2 / L with L = (1/sqrt y)(Z + tau Z), the unit-area lattice,
so the Laplace eigenvalues are

    lambda_{m,n} = 4 pi^2 |m + n tau|^2 / y =: 4 pi^2 Q(m, n),   (m, n) != (0, 0),

with a one-dimensional kernel (the constants).  Q is the same quadratic form
on the dual lattice, which is what makes the Poisson-summed heat trace

    Theta(t) = sum_{m,n} e^(-lambda t) = (1/(4 pi t)) sum_{m,n} e^(-Q/(4 t))

a sum over the identical Q family.  The spectral zeta function is continued
through the Mellin split at t = 1,

    zeta(s) Gamma(s) = 1/(4 pi (s-1)) - 1/s + H(s),
    H(s) = int_0^1 t^(s-1) (Theta - 1/(4 pi t)) dt
         + int_1^inf t^(s-1) (Theta - 1) dt,

both integrands exponentially small at their singular ends, and the
regularized determinant is log det = -zeta'(0) = gamma_E + 1/(4 pi) - H(0).
The closed form log det = log(y |eta(tau)|^4) is the genus-1 invariant D_Ar
(`elliptic.d_ar_elliptic`), computed from the eta kernel; it never enters the
oracle path.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .elliptic import d_ar_elliptic
from .numerics import EULER_GAMMA, ConvergenceError, UpperHalfPoint

FOUR_PI_SQ = 4.0 * math.pi * math.pi
POISSON_SWITCH = 0.2  # heat trace: Poisson form below, direct lattice sum above
DE_VMAX = 4.5  # exp-sinh nodes |v| <= DE_VMAX: w - 1 from ~1e-31 to ~1e30
DE_LEVELS = 6  # trapezoid steps 1/8, 1/16, ..., 1/256
ORACLE_REL_TOL = 1e-12  # the quadrature's target relative error, read per call
ZETA_S_MIN, ZETA_S_MAX = -10.0, 3.0  # spectral_zeta's verified range
METRIC_SCALE_MIN, METRIC_SCALE_MAX = 1e-3, 32.0  # logdet_oracle's verified range
LATTICE_TAIL_TOL = 1e-18  # lattice heat sums drop terms below this
EXP_ZERO = -750.0  # numpy's exp is exactly +0.0 at and below -745.1332
ORACLE_Y_MIN, ORACLE_Y_MAX = 1e-4, 1e4  # the oracle's verified domain in y


class UnitTorus(NamedTuple):
    """Unit-area flat torus parametrized by tau in the upper half-plane."""

    tau: UpperHalfPoint


def _direct_qmax(t: float, tail_tol: float) -> float:
    return math.log(1.0 / tail_tol) / (FOUR_PI_SQ * t)


def _poisson_qmax(t: float, tail_tol: float) -> float:
    return 4.0 * t * (math.log(1.0 / tail_tol) + 1.0)


def _q_values(torus: UnitTorus, qmax: float) -> np.ndarray:
    """Sorted nonzero values of Q(m,n) = ((m + n x)^2 + (n y)^2)/y <= qmax:
    the family every lattice sum of the oracle runs over, at x mod 1.

    Z + tau Z is the lattice of tau + k, so x is first shifted by round(x)
    (exact in doubles): any finite x gives the Q set of x - round(x), and n x
    stays small.  Row n spans ceil(-nx - half) <= m <= floor(-nx + half),
    half^2 = qmax y - (n y)^2, and all rows go in one (row, m) block: the
    oracle's largest qmax, ~1075 at metric scale 32, gives at most ~8.5e3
    cells over y in [1e-4, 1e4].  The row scalars stay Python floats: (n y) ** 2
    goes through libm pow, which differs from numpy's square in the last ulp
    (n = 397, y = 1e-4)."""
    x, y = torus.tau.x, torus.tau.y
    x -= round(x)
    n_max = int(math.floor(math.sqrt(qmax / y)))
    rows = []
    for n in range(-n_max, n_max + 1):
        nx, ny2 = n * x, (n * y) ** 2
        rad = qmax * y - ny2
        if rad >= 0.0:
            half = math.sqrt(rad)
            rows.append((n, nx, ny2, math.ceil(-nx - half), math.floor(-nx + half)))
    n, nx, ny2, lo, hi = (np.array(col, dtype=float)[:, None] for col in zip(*rows))
    m = lo + np.arange((hi - lo).max() + 1.0)
    q = ((m + nx) ** 2 + ny2) / y
    return np.sort(q[(m <= hi) & (q <= qmax) & ((m != 0.0) | (n != 0.0))])


def _lattice_sum(q: np.ndarray, scale: np.ndarray, qmax: float) -> np.ndarray:
    """sum_{Q <= qmax} e^(scale Q) at each scale (an array of rows), q sorted."""
    return np.exp(np.multiply.outer(scale, q[:q.searchsorted(qmax, side="right")])).sum(-1)


def _de_nodes(levels: int) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """(h, w, dw) per level of the exp-sinh rule w = 1 + e^((pi/2) sinh v), |v| <= DE_VMAX:
    trapezoid steps h in v halving from 1/8, each level holding its new nodes only."""
    h, v, nodes = 0.125, np.arange(-DE_VMAX, DE_VMAX + 0.125, 0.125), []
    for _ in range(levels):
        e = np.exp(0.5 * math.pi * np.sinh(v))  # w - 1
        nodes.append((h, 1.0 + e, 0.5 * math.pi * np.cosh(v) * e))
        h *= 0.5
        v = np.arange(h - DE_VMAX, DE_VMAX, 2.0 * h)
    return nodes


_DE_NODES = _de_nodes(DE_LEVELS)  # the full rule; DE_LEVELS, read per call, may cut it


def _de_rule(level_sums, where: tuple) -> float:
    """int_1^inf f(w) dw by the exp-sinh rule of _DE_NODES, steps 1/8 to 1/256
    (DE_LEVELS, read per call); level_sums yields sum f(w) dw over each level's
    new nodes, drawn only while needed.  Converged when two levels agree to
    max(0.1 rel_tol, 10 rel_tol |I|), rel_tol = ORACLE_REL_TOL (read per call);
    else raises, naming where = (half, s, x, y, scale)."""
    rel_tol, total = ORACLE_REL_TOL, 0.0
    for level, (h, _, _), part in zip(range(DE_LEVELS), _DE_NODES, level_sums):
        prev, total = total, 0.5 * total + h * part
        target = max(0.1 * rel_tol, 10.0 * rel_tol * abs(total))
        if level and abs(total - prev) <= target:
            return total
    raise ConvergenceError(
        "{}-t half of H({:g}) at tau = {!r}+{!r}i, metric scale {!r}: ".format(*where)
        + f"double-exponential rule missed {target:.3g} (rel_tol {rel_tol:g}); "
        f"last |I_h - I_2h| = {abs(total - prev):.3g}")


def _rgamma(s: float) -> float:
    """1/Gamma(s), zero at the poles s = 0, -1, -2, ..."""
    if s <= 0.0 and s == round(s):
        return 0.0
    return 1.0 / math.gamma(s)


@functools.lru_cache(maxsize=8)
def _mellin_plan(s: float, area: float) -> tuple[tuple, tuple]:
    """Per DE level, all of H(s) at metric area `area` but the lattice sums.
    Small half (t = 1/(w area), descending, Poisson split k): weight, dw, k,
    direct scales, Q cut and pole 1/(4 pi t) for t[:k], Poisson scales, Q cut
    and 4 pi t for t[k:].  Large half (u = w / area): weight, dw, scales, Q cut."""
    tol, small, large = LATTICE_TAIL_TOL, [], []
    for _, w, dw in _DE_NODES:
        t = 1.0 / (w * area)
        k = int(np.searchsorted(-t, -POISSON_SWITCH, side="right"))
        direct, poisson = t[:k], t[k:]
        small.append((w ** (-1.0 - s), dw, k,
                      -FOUR_PI_SQ * direct, _direct_qmax(np.min(direct, initial=math.inf), tol),
                      1.0 / (4.0 * math.pi * direct),
                      -0.25 / poisson, _poisson_qmax(np.max(poisson, initial=0.0), tol),
                      4.0 * math.pi * poisson))
        u = w / area
        large.append((w ** (s - 1.0), dw, -FOUR_PI_SQ * u, _direct_qmax(np.min(u), tol)))
    return tuple(small), tuple(large)


def _small_half_sums(q: np.ndarray, plan: tuple):
    """sum w^(-1-s) (Theta - 1/(4 pi t)) dw per level, without cancellation:
    the direct sum above the Poisson switch, the Poisson remainder below it.

    t descends, so the Poisson scales -1/(4t) do not increase, and the rows
    whose largest term e^(scale Q_min) has scale Q_min < EXP_ZERO form a
    suffix.  Every term of such a row is exactly +0.0 (Q >= Q_min and the
    rounding of scale Q is monotone), so the row is +0.0 without evaluating
    it.  q is never empty: Q_min <= 2/sqrt(3) (the Hermite constant of a
    unit-area lattice) lies below every qmax the oracle enumerates to."""
    for weight, dw, k, direct, direct_qmax, pole, poisson, poisson_qmax, four_pi_t in plan:
        theta = np.empty(weight.size)
        live = k + int(np.count_nonzero(poisson * q[0] >= EXP_ZERO))
        theta[:k] = _lattice_sum(q, direct, direct_qmax) + 1.0 - pole
        theta[k:live] = _lattice_sum(q, poisson[:live - k], poisson_qmax) / four_pi_t[:live - k]
        theta[live:] = 0.0
        yield float((weight * theta * dw).sum())


def _mellin_h(torus: UnitTorus, s: float, metric_scale: float) -> float:
    """H(s) for the metric scaled by metric_scale^2 (eigenvalues / scale^2,
    area scale^2): integrands are evaluated at u = t / scale^2.

    t = 1/w maps the small half onto [1, inf) too (t^(s-1) dt = w^(-s-1) dw),
    so its nodes t = 1/(1 + e^((pi/2) sinh v)) are tanh-sinh nodes on (0, 1).
    Q is enumerated once for both halves: Poisson nodes have u < POISSON_SWITCH,
    direct nodes u >= min(POISSON_SWITCH, 1/scale^2).  All else is _mellin_plan's.

    An array tau, or y outside [ORACLE_Y_MIN, ORACLE_Y_MAX], raises ValueError before
    Q is enumerated: the Q set grows like sqrt(max(y, 1/y)).  Any finite x is fine.
    """
    torus.tau._refuse_array("the spectral oracle")
    x, y = torus.tau.x, torus.tau.y
    if not ORACLE_Y_MIN <= y <= ORACLE_Y_MAX:
        raise ValueError(f"the spectral oracle needs {ORACLE_Y_MIN:g} <= y <= {ORACLE_Y_MAX:g}, "
                         f"got tau = {x!r}+{y!r}i")
    tol, area = LATTICE_TAIL_TOL, metric_scale * metric_scale
    q = _q_values(torus, max(_poisson_qmax(POISSON_SWITCH, tol),
                             _direct_qmax(min(POISSON_SWITCH, 1.0 / area), tol)))
    small, large = _mellin_plan(s, area)
    large_sums = (float((weight * _lattice_sum(q, scale, qmax) * dw).sum())
                  for weight, dw, scale, qmax in large)
    where = (s, x, y, metric_scale)
    return (_de_rule(_small_half_sums(q, small), ("small", *where))
            + _de_rule(large_sums, ("large", *where)))


def spectral_zeta(torus: UnitTorus, s: float) -> float:
    """zeta_tau(s) = sum' lambda^-s, continued through the Mellin split as

        rgamma(s) [1/(4 pi (s-1)) + H(s)] - rgamma(s+1)

    (the -1/s kernel term folded into 1/Gamma(s+1), regular at s = 0, where
    rgamma(0) = 0 leaves exactly -1.0 whenever H(0) is finite).  Verified for
    -10 <= s <= 3, |s-1| >= 0.05, to 1.5e-12 relative against the
    Chowla-Selberg series; other s raise ValueError.  Above s = 3 zeta falls off like (4 pi^2 Q_min)^-s while the
    terms stay ~1/Gamma(s), so they cancel (near tau = i: 4e-12 relative at
    s = 4, 5e-7 at s = 10); beyond |s| ~ 11 the quadrature nodes overflow.
    tau must be a scalar in logdet_oracle's domain (any x, 1e-4 <= y <= 1e4), else ValueError.
    """
    if not ZETA_S_MIN <= s <= ZETA_S_MAX:
        raise ValueError(f"spectral_zeta needs {ZETA_S_MIN:g} <= s <= {ZETA_S_MAX:g}, got {s!r}")
    if abs(s - 1.0) < 0.05:
        raise ValueError("spectral_zeta has a simple pole at s = 1; need |s-1| >= 0.05")
    h = _mellin_h(torus, s, 1.0)
    return _rgamma(s) * (1.0 / (4.0 * math.pi * (s - 1.0)) + h) - _rgamma(s + 1.0)


def logdet_oracle(torus: UnitTorus, metric_scale: float = 1.0) -> float:
    """-zeta'(0) from the Mellin split, never touching the eta closed form.

    Around s = 0, zeta(s) = (s + gamma_E s^2 + ...)(-1/s + R(s)) with
    R(s) = A/(4 pi (s-1)) + H(s), so zeta'(0) = R(0) - gamma_E and

        log det = gamma_E + A/(4 pi) - H(0),   A = metric_scale^2.

    metric_scale = g rescales the metric by g^2 (eigenvalues by 1/g^2, area
    by g^2), the configuration used to verify the scaling law numerically.
    Verified for 1e-4 <= y <= 1e4 and any finite x within 1e-12
    max(1, |closed form|), and for metric_scale in [1e-3, 32] (the scaling law
    within 1.5e-14 relative; 32 costs up to ~75 ms); ConvergenceError where
    ORACLE_REL_TOL is missed.  The lattice is taken at x mod 1 (_q_values), so x and
    x - round(x) give the same bits; no S inversion enters.  An array tau, other y
    or scales, non-finite ones included, raise ValueError before anything is enumerated:
    the Q set grows like sqrt(max(y, 1/y)) and like metric_scale^2.
    """
    if not METRIC_SCALE_MIN <= metric_scale <= METRIC_SCALE_MAX:
        raise ValueError(f"logdet_oracle needs {METRIC_SCALE_MIN:g} <= metric_scale <= "
                         f"{METRIC_SCALE_MAX:g}, got {metric_scale!r}")
    area = metric_scale * metric_scale
    h0 = _mellin_h(torus, 0.0, metric_scale)
    return EULER_GAMMA + area / (4.0 * math.pi) - h0


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
    """Both routes at a scalar tau."""
    closed = logdet_closed(tau)
    oracle = logdet_oracle(UnitTorus(tau))
    return DetComparison(tau, closed, oracle, oracle - closed)
