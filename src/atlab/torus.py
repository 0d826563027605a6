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
    G(s) = int_1^inf (w^(s-1) + w^(-s)) theta(w) dw,

an integrand finite at w = 1 and exponentially small at infinity.  The
regularized determinant is log det = -zeta'(0) = gamma_E + 1 - log(4 pi) - G(0).
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

DE_VMAX = 4.5  # exp-sinh nodes |v| <= DE_VMAX: w - 1 from ~1e-31 to ~1e30
DE_LEVELS = 6  # trapezoid steps 1/8, 1/16, ..., 1/256
ORACLE_REL_TOL = 1e-12  # the quadrature's target relative error, read per call
ZETA_S_MIN, ZETA_S_MAX = -10.0, 3.0  # spectral_zeta's verified range
LATTICE_TAIL_TOL = 1e-18  # lattice heat sums drop terms below this
EXP_ZERO = -750.0  # numpy's exp is exactly +0.0 at and below -745.1332
ORACLE_Y_MIN, ORACLE_Y_MAX = 1e-4, 1e4  # the oracle's verified domain in y


class UnitTorus(NamedTuple):
    """Unit-area flat torus parametrized by tau in the upper half-plane."""

    tau: UpperHalfPoint


def _q_values(torus: UnitTorus, qmax: float) -> np.ndarray:
    """Sorted nonzero values of Q(m,n) = ((m + n x)^2 + (n y)^2)/y <= qmax:
    the family every lattice sum of the oracle runs over, at x mod 1.

    Z + tau Z is the lattice of tau + k, so x is first shifted by round(x)
    (exact in doubles): any finite x gives the Q set of x - round(x), and n x
    stays small.  Row n spans ceil(-nx - half) <= m <= floor(-nx + half),
    half^2 = qmax y - (n y)^2, and all rows go in one (row, m) block: the
    oracle's cut, qmax ~13.2, gives at most 727 cells over y in [1e-4, 1e4].
    The row scalars stay Python floats: (n y) ** 2 goes through libm pow, which
    differs from numpy's square in the last ulp (n = 397, y = 1e-4)."""
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
    else raises, naming where = (s, x, y)."""
    rel_tol, total = ORACLE_REL_TOL, 0.0
    for level, (h, _, _), part in zip(range(DE_LEVELS), _DE_NODES, level_sums):
        prev, total = total, 0.5 * total + h * part
        target = max(0.1 * rel_tol, 10.0 * rel_tol * abs(total))
        if level and abs(total - prev) <= target:
            return total
    raise ConvergenceError(
        "G({:g}) at tau = {!r}+{!r}i: ".format(*where)
        + f"double-exponential rule missed {target:.3g} (rel_tol {rel_tol:g}); "
        f"last |I_h - I_2h| = {abs(total - prev):.3g}")


def _rgamma(s: float) -> float:
    """1/Gamma(s), zero at the poles s = 0, -1, -2, ..."""
    if s <= 0.0 and s == round(s):
        return 0.0
    return 1.0 / math.gamma(s)


@functools.lru_cache(maxsize=8)
def _mellin_plan(s: float) -> tuple:
    """Per DE level, all of G(s) but the lattice sums: the weight
    w^(s-1) + w^(-s), dw, and the exponent scale -pi w of the live nodes.
    Nodes past w = EXP_ZERO / (-pi ORACLE_Y_MIN) (~2.4e6), about a sixth of
    each level and a suffix of it, are dropped from the scales: there every
    term e^(-pi Q w) is exactly +0.0, since Q >= min(y, 1/y) >= ORACLE_Y_MIN."""
    w_max, plan = EXP_ZERO / (-math.pi * ORACLE_Y_MIN), []
    for _, w, dw in _DE_NODES:
        plan.append((w ** (s - 1.0) + w ** -s, dw, -math.pi * w[w <= w_max]))
    return tuple(plan)


def _mellin_g(torus: UnitTorus, s: float) -> float:
    """G(s) = int_1^inf (w^(s-1) + w^(-s)) sum'_Q e^(-pi Q w) dw.

    For w >= 1 a term with Q > log(1/LATTICE_TAIL_TOL)/pi (~13.2) is below the
    tail tolerance, so Q is enumerated once, up to that cut.  q is never empty:
    Q_min <= 2/sqrt(3) (the Hermite constant of a unit-area lattice).

    An array tau, or y outside [ORACLE_Y_MIN, ORACLE_Y_MAX], raises ValueError before
    Q is enumerated: the Q set grows like sqrt(max(y, 1/y)).  Any finite x is fine.
    """
    torus.tau._refuse_array("the spectral oracle")
    x, y = torus.tau.x, torus.tau.y
    if not ORACLE_Y_MIN <= y <= ORACLE_Y_MAX:
        raise ValueError(f"the spectral oracle needs {ORACLE_Y_MIN:g} <= y <= {ORACLE_Y_MAX:g}, "
                         f"got tau = {x!r}+{y!r}i")
    q = _q_values(torus, math.log(1.0 / LATTICE_TAIL_TOL) / math.pi)

    def level_sums():
        for weight, dw, scale in _mellin_plan(s):
            theta = np.zeros(weight.size)  # the dropped nodes' exact +0.0
            theta[:scale.size] = np.exp(np.multiply.outer(scale, q)).sum(-1)
            yield float((weight * theta * dw).sum())

    return _de_rule(level_sums(), (s, x, y))


def spectral_zeta(torus: UnitTorus, s: float) -> float:
    """zeta_tau(s) = sum' lambda^-s, continued through the self-dual split as

        (4 pi)^-s [rgamma(s) (G(s) + 1/(s-1)) - rgamma(s+1)]

    (the -1/s term folded into 1/Gamma(s+1), regular at s = 0, where
    rgamma(0) = 0 leaves exactly -1.0 whenever G(0) is finite).  Verified for
    -10 <= s <= 3, |s-1| >= 0.05, against the Chowla-Selberg series (within
    1.1e-15 relative on an s grid at five taus with y >= 0.9); other s raise
    ValueError.
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
    max(1, |closed form|); ConvergenceError where ORACLE_REL_TOL is missed.  The
    lattice is taken at x mod 1 (_q_values), so x and x - round(x) give the same
    bits; no S inversion enters.  An array tau or another y, non-finite ones
    included, raise ValueError before anything is enumerated.
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
