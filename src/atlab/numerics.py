"""Scalar special-function kernels.

Everything downstream reduces to four ingredients computed here in plain
double precision:

* log|eta(tau)|, eta(tau) = q^(1/24) prod_{n>=1} (1 - q^n), q = e^(2 pi i tau),
  evaluated after exact SL2(Z) reduction to the standard fundamental domain
  (|x| <= 1/2, |tau| >= 1), where |q| <= e^(-pi sqrt 3) ~= 0.00433 and a
  handful of product terms reach any sensible tolerance.  tau is one point.
* The exponential integral E1(x) = int_x^inf e^(-u)/u du on 0 < x <= 1, by
  its alternating series (downstream needs only E1(1/4)).
* The s-derivative zeta'(s) of the Riemann zeta function on -2 <= s <= 0
  (downstream needs only zeta'(-1)), by differentiating every term of its
  Euler-Maclaurin summation analytically (never by finite differences).
* Assorted exact constants.

All functions are pure and deterministic, and run to the fixed truncations
set by the module constants below; there is no global mutable state.
"""

import math
import sys
from collections import namedtuple

EULER_GAMMA = 0.5772156649015328606
LN_2PI = math.log(2.0 * math.pi)
LN_2PI4 = math.log(2.0) + 4.0 * math.log(math.pi)  # log(2 * pi^4)

QSERIES_TAIL_TOL = 1e-16  # the q-product stops once its tail is below this
EM_CUTOFF, EM_ORDER = 12, 12  # Euler-Maclaurin direct-sum length N and Bernoulli terms
TAU_Y_MAX = sys.float_info.max / math.pi  # largest y with pi y (log|eta|'s -pi y/12) finite


def _domain_error(routine: str, limit: str, **inputs) -> ValueError:
    """Every domain error, a ValueError "routine(name=value, ...): needs limit":
    each input by repr, or where repr refuses (past 4300 digits) by type and bit length."""
    shown = []
    for name, value in inputs.items():
        try:
            shown.append(f"{name}={value!r}")
        except ValueError:
            shown.append(f"{name}=<{type(value).__name__} of {value.bit_length()} bits>")
    return ValueError(f"{routine}({', '.join(shown)}): needs {limit}")


class UpperHalfPoint(namedtuple("UpperHalfPoint", "x y")):
    """A point tau = x + iy in the upper half-plane (y > 0).  x and y must be
    Python ints or floats (a numpy.float64 is a float); a bool, str, complex,
    list, numpy integer or numpy array raises ValueError, as does an int too
    large for a float."""

    __slots__ = ()

    def __new__(cls, x, y):
        if not (isinstance(x, (int, float)) and isinstance(y, (int, float))) \
                or bool in (type(x), type(y)):
            raise _domain_error("UpperHalfPoint", "int or float coordinates, not bool", x=x, y=y)
        if not (abs(x) <= sys.float_info.max and 0.0 < y <= TAU_Y_MAX):  # TAU_Y_MAX: pi y finite
            raise _domain_error("UpperHalfPoint", f"finite x and 0 < y <= {TAU_Y_MAX!r}", x=x, y=y)
        return super().__new__(cls, x, y)


class ModularTransform(namedtuple("ModularTransform", "a b c d")):
    """An SL2(Z) element acting by tau -> (a tau + b) / (c tau + d)."""

    __slots__ = ()

    def __new__(cls, a, b, c, d):
        if a * d - b * c != 1:
            raise _domain_error("ModularTransform", "ad - bc = 1", a=a, b=b, c=c, d=d)
        return super().__new__(cls, a, b, c, d)


def reduce_to_fundamental_domain(tau: UpperHalfPoint) -> tuple[UpperHalfPoint, ModularTransform]:
    """Reduce tau to |x| <= 1/2, x^2 + y^2 >= 1, exactly: (tau', T) with
    tau' = T(tau) for the doubles tau holds, x' and y' each correctly rounded.
    Raises ValueError where y' is above TAU_Y_MAX (tau = 0 + 1e-310i, say)."""
    x, y, a, b, c, d = _reduce(tau.x, tau.y, "reduce_to_fundamental_domain")
    return UpperHalfPoint(x, y), ModularTransform(a, b, c, d)


def _reduce(x: float, y: float, routine: str) -> tuple[float, float, int, int, int, int]:
    """The reduced (x', y') and the transform's (a, b, c, d), with no objects
    built, by Lagrange-Gauss reduction (Cohen, GTM 138, ch. 5).  With x = X/L,
    y = Y/L, L a power of two, L^2 |u + tau v|^2 = A u^2 + 2h uv + C v^2 for
    (A, h, C) = (L^2, XL, X^2 + Y^2), whose point is (h + i LY)/A.  S maps it
    to (C, -h, A), T^k adds k to h/A; each S lowers the integer A, so the loop
    ends, with |h| <= A/2 and A <= C; a y' past TAU_Y_MAX is routine's domain error."""
    k = round(x)
    u = x - k  # exact in doubles
    if y >= 1.0:  # already reduced
        return u, y, 1, -k, 0, 1
    X, L = u.as_integer_ratio()
    Y, M = y.as_integer_ratio()
    if L < M:
        X, L = X * (M // L), M
    else:
        Y *= L // M
    A, h, C = L * L, X * L, X * X + Y * Y
    a, b, c, d = 1, -k, 0, 1
    while A > C:  # S, then T^k with h/A in (-1/2, 1/2]
        k = (C + h + h) // (C + C)
        t = k * C - h
        A, h, C = C, t, A + k * (t - h)
        a, b, c, d = k * a - c, k * b - d, a, b
    try:
        v = L * Y / A
    except OverflowError:  # y' above the largest double
        v = math.inf
    if v > TAU_Y_MAX:
        raise _domain_error(routine, f"a reduced y' <= {TAU_Y_MAX!r}", tau=UpperHalfPoint(x, y))
    return h / A, v, a, b, c, d


def _qseries(x: float, y: float) -> float:
    """sum_n log|1 - q^n| for y >= sqrt(3)/2, truncated once the remaining
    tail is provably below QSERIES_TAIL_TOL, using |log|1 - q^n|| <=
    |q|^n / (1 - |q|) and the geometric tail bound |q|^(n+1) / (1 - |q|)^2
    after n terms.  There |q| = e^(-2 pi y) < 0.004334, so that bound is
    below 0.004334^7 / 0.991 < 3e-17 at n = 6: it ends within 6 terms."""
    minus_2pi_y = -2.0 * math.pi * y
    qa = math.exp(minus_2pi_y)
    one_minus = -math.expm1(minus_2pi_y)  # 1 - |q|
    total = 0.0
    qn, om2, n = 1.0, one_minus * one_minus, 0
    while True:
        n += 1
        qn *= qa
        total += 0.5 * math.log1p(qn * (qn - 2.0 * math.cos(2.0 * math.pi * n * x)))
        if qn * qa / om2 < QSERIES_TAIL_TOL:
            return total


def log_abs_eta(tau: UpperHalfPoint) -> float:
    """log|eta(tau)| = -pi y'/12 + sum_n log|1 - q'^n| at the reduced point,
    plus the transformation correction: |eta(tau)| = |c tau + d|^(-1/2)
    |eta(tau')| for tau' = T(tau), applied as (y'/y)^(1/4) since y' =
    y / |c tau + d|^2.  Log space keeps large y safe (e^(-pi y / 12)
    underflows for y of a few thousand).

    Accuracy, for every y > 0 (ValueError where y' passes TAU_Y_MAX): within
    1e-15 (|D_Ar| + |log y|) of 40-digit mpmath at the exactly reduced point,
    with D_Ar = log y + 4 log|eta|; the |log y| is the correction's log y.
    (elliptic.d_ar_elliptic computes D_Ar at the reduced point alone.)
    """
    x, y, _, _, _, _ = _reduce(tau.x, tau.y, "log_abs_eta")
    val = -math.pi * y / 12.0 + _qseries(x, y)
    return val + 0.25 * (math.log(y) - math.log(tau.y))


def exp_integral_e1(x: float) -> float:
    """E1(x) = int_x^inf e^(-u)/u du for 0 < x <= 1, relative error ~1e-14:

    E1(x) = -gamma - ln x + sum_{k>=1} (-1)^(k+1) x^k / (k * k!).

    Raises ValueError for any other x (NaN and inf included).
    """
    if not 0.0 < x <= 1.0:
        raise _domain_error("exp_integral_e1", "0 < x <= 1", x=x)
    total = term = x
    k = 1
    while abs(term) > 1e-18 * abs(total):
        k += 1
        term *= -x * (k - 1) / (k * k)
        total += term
    return -EULER_GAMMA - math.log(x) + total


def _even_bernoulli(count: int) -> tuple[float, ...]:
    """(B_2, B_4, ..., B_{2*count}) as floats, from the exact recurrence on the
    integers B_m * (2 count + 1)! (by von Staudt-Clausen, B_m's denominator has
    only primes p <= m + 1); int / int rounds correctly, as float(Fraction) does."""
    n_max = 2 * count
    scale = math.factorial(n_max + 1)
    num = [scale]
    for m in range(1, n_max + 1):
        num.append(-sum(math.comb(m + 1, j) * num[j] for j in range(m)) // (m + 1))
    return tuple(num[2 * j] / scale for j in range(1, count + 1))


_EVEN_BERNOULLI = _even_bernoulli(EM_ORDER)  # input-free, so evaluated once


def zeta_em_deriv(s: float) -> float:
    """zeta'(s) by analytic differentiation, term by term, of Euler-Maclaurin

    zeta(s) = sum_{n=1}^{N} n^-s + N^(1-s)/(s-1) - N^-s/2
              + sum_{j=1}^{M} B_2j/(2j)! (s)_{2j-1} N^(1-s-2j),

    N = EM_CUTOFF and M = EM_ORDER.  The partial sums grow like N^(1-s), and
    a long direct sum costs ~N^(1-s) ulp of cancellation, hence the short N
    and deep tail.  The Pochhammer symbol and its derivative are built factor
    by factor with the product rule, d(p f) = dp f + p df, which stays exact
    when some factor s + i vanishes (e.g. s = -1, 0).  Absolute error
    <= 1e-12 on -2 <= s <= 0; raises ValueError outside that range.
    """
    if not -2.0 <= s <= 0.0:
        raise _domain_error("zeta_em_deriv", "-2 <= s <= 0 (where it is accurate)", s=s)
    n_cut, order = EM_CUTOFF, EM_ORDER
    ln_n = math.log(n_cut)
    terms = [-math.log(n) * float(n) ** (-s) for n in range(2, n_cut + 1)]
    terms.append(-ln_n * float(n_cut) ** (1.0 - s) / (s - 1.0))
    terms.append(-float(n_cut) ** (1.0 - s) / (s - 1.0) ** 2)
    terms.append(0.5 * ln_n * float(n_cut) ** (-s))
    fact = 1.0
    for j in range(1, order + 1):
        fact *= (2 * j - 1) * (2 * j)
        poch, dpoch = 1.0, 0.0
        for i in range(2 * j - 1):
            dpoch = dpoch * (s + i) + poch
            poch *= s + i
        terms.append(
            _EVEN_BERNOULLI[j - 1] / fact * (dpoch - poch * ln_n) * float(n_cut) ** (1.0 - s - 2 * j)
        )
    return math.fsum(terms)


ZETA_PRIME_MINUS1 = zeta_em_deriv(-1.0)  # zeta'(-1) ~= -0.1654211437
