"""Kernel tests: fundamental-domain reduction, log|eta|, E1, Euler-Maclaurin zeta'.

Frozen reference digits come from closed forms evaluated independently at 30
decimal digits (noted next to each constant); in-test oracles are raw series
and adaptive quadrature that never call the kernel under test.
"""

from __future__ import annotations

import importlib
import math
import pkgutil
import re
import timeit
from fractions import Fraction

import numpy as np
import pytest

import atlab
from atlab import elliptic, numerics
from atlab.bounds import K_CONST, KAPPA
from atlab.elliptic import bound_slack, d_ar_elliptic
from atlab.numerics import (
    TAU_Y_MAX,
    ZETA_PRIME_MINUS1,
    ModularTransform,
    UpperHalfPoint,
    exp_integral_e1,
    log_abs_eta,
    reduce_to_fundamental_domain,
    zeta_em_deriv,
)

# Gamma(1/4)/(2 pi^(3/4)) and the 2^(3/8) relation, 30-digit evaluation.
LOG_ABS_ETA_I = -0.26367207024891798
LOG_ABS_ETA_2I = -0.52360226295889747
E1_QUARTER = 1.0442826344437382
ZETA_PRIME_M1 = -0.16542114370045093  # 1/12 - log(Glaisher)
ZETA_PRIME_0 = -0.91893853320467274  # -log(2 pi)/2
ZETA_PRIME_2 = -0.93754825431584375  # (pi^2/6)(gamma + log(2 pi) - 12 log(Glaisher))


def raw_log_abs_eta(x: float, y: float, n_terms: int = 200) -> float:
    """Oracle: -pi y/12 + sum_{n<=N} log|1 - q^n|, no reduction."""
    total = -math.pi * y / 12.0
    for n in range(1, n_terms + 1):
        r = math.exp(-2.0 * math.pi * n * y)
        total += 0.5 * math.log1p(r * r - 2.0 * r * math.cos(2.0 * math.pi * n * x))
    return total


def apply(t: ModularTransform, tau: UpperHalfPoint) -> complex:
    """T(tau) = (a tau + b) / (c tau + d) in Python complex arithmetic."""
    z = complex(tau.x, tau.y)
    return (t.a * z + t.b) / (t.c * z + t.d)


def exact_image(t: ModularTransform, x: float, y: float) -> tuple[Fraction, Fraction]:
    """T(x + iy) in exact rationals: the doubles x and y are dyadic."""
    x, y = Fraction(x), Fraction(y)
    re, im = t.c * x + t.d, t.c * y
    norm = re * re + im * im
    return ((t.a * x + t.b) * re + t.a * y * im) / norm, y / norm


def exact_reduction(x: float, y: float) -> tuple[Fraction, Fraction, int, int, int, int]:
    """Oracle: the textbook shift-and-invert loop in exact rationals."""
    x, y = Fraction(x), Fraction(y)
    a, b, c, d = 1, 0, 0, 1
    while True:
        k = round(x)
        x, a, b = x - k, a - k * c, b - k * d
        norm = x * x + y * y
        if norm >= 1:
            return x, y, a, b, c, d
        x, y, a, b, c, d = -x / norm, y / norm, -c, -d, a, b


def reduction_sample() -> list[tuple[float, float]]:
    """Seeded taus with y log-uniform from 1e2 down to 5e-324 (and a band
    where the reduced y' is moderate), points within 1e-3 of each cusp p/q
    with q <= 11, and dyadic cusps x = p/2^k at y ~ 2^-2k (reduced y' ~ 1)."""
    rng = np.random.default_rng(20261019)
    points = [(float(x), float(10.0 ** e)) for x, e in
              zip(rng.uniform(-3.0, 3.0, 120), rng.uniform(-323.3, 2.0, 120))]
    points += [(float(x), float(10.0 ** e)) for x, e in
               zip(rng.uniform(-3.0, 3.0, 60), rng.uniform(-40.0, 0.0, 60))]
    points += [(p / q + float(rng.uniform(-1e-3, 1e-3)), float(10.0 ** rng.uniform(-12.0, -3.0)))
               for q in range(1, 12) for p in range(-q, q + 1) if math.gcd(p, q) == 1]
    points += [(math.ldexp(int(p) | 1, -int(k)), math.ldexp(float(s), -2 * int(k)))
               for p, k, s in zip(rng.integers(1, 2**20, 40), rng.integers(21, 530, 40),
                                  rng.uniform(0.3, 3.0, 40))]
    # y' = 1/y about 2^1023 (5e307, 5.9e307 and 1e310 against TAU_Y_MAX 5.7e307)
    points += [(0.0, 2e-308), (0.0, 1.7e-308), (0.0, 1e-310), (0.0, 5e-324), (0.5, 5e-324)]
    # 0.5 + 0.25i passes through 0.4 + 0.8i, whose form has C = A - 1
    points += [(0.5, 0.25), (-0.25, 0.0625)]
    return points + [(0.1234567, 1e-20), (0.0, 1e-300), (-0.5, 1.0), (0.5, 0.8660254037844386),
                     (2.5, 1.0), (1, 2), (0.0, 5.0), (1.0, 1.0)]


def test_upper_half_point_validation():
    with pytest.raises(ValueError):
        UpperHalfPoint(0.0, 0.0)
    with pytest.raises(ValueError):
        UpperHalfPoint(0.0, -1.0)
    with pytest.raises(ValueError):
        UpperHalfPoint(math.nan, 1.0)


def test_upper_half_point_takes_only_real_coordinates():
    # tau is one point: a bool is an int, and arrays (even 0-d or of one
    # element), numpy integers and lists are refused like a str.
    for x, y in (("0.3", 1.0), (0.3, "1.7"), (True, 1.0), (0.3, True), (np.True_, 1.0),
                 (0.3 + 0j, 1.0), (np.array(["0.3"]), np.ones(1)),
                 (np.zeros(2, dtype=bool), np.ones(2)), (None, 1.0), ([0.3, "x"], [1.0, 2.0]),
                 (np.full(2, 0.3), np.full(2, 1.7)), (np.full(1, 0.3), np.full(1, 1.7)),
                 (np.array(0.3), 1.7), (0.3, np.ones(())),
                 (np.int64(0), 1.0), (0.3, np.int64(2)), ([0.3], [1.7]), (0.3, [1.7])):
        message = f"UpperHalfPoint(x={x!r}, y={y!r}): needs int or float coordinates, not bool"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            UpperHalfPoint(x, y)
    # A Python int too large for a float is refused like an infinite float.
    for x, y in ((10**400, 1.0), (0.3, 10**400), (-10**400, 1.0)):
        message = f"UpperHalfPoint(x={x!r}, y={y!r}): needs finite x and 0 < y <= {TAU_Y_MAX!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            UpperHalfPoint(x, y)
    # Python ints and floats stay accepted, and a numpy.float64 is a float.
    assert UpperHalfPoint(0, 1) == (0, 1) and UpperHalfPoint(np.float64(0.3), 1.7) == (0.3, 1.7)


def test_y_is_refused_where_pi_y_overflows():
    # log|eta| carries -pi y / 12: finite at y0 = TAU_Y_MAX, inf one double up
    # (where the closed form printed -inf), so that y is refused.
    y0 = numerics.TAU_Y_MAX
    assert math.isfinite(math.pi * y0) and math.pi * math.nextafter(y0, math.inf) == math.inf
    assert math.isfinite(d_ar_elliptic(UpperHalfPoint(0.3, y0)))
    y1 = math.nextafter(y0, math.inf)
    message = f"UpperHalfPoint(x=0.3, y={y1!r}): needs finite x and 0 < y <= {y0!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        UpperHalfPoint(0.3, y1)


def test_modular_transform_validation():
    with pytest.raises(ValueError):
        ModularTransform(1, 1, 1, 1)
    t = ModularTransform(0, -1, 1, 0)
    w = apply(t, UpperHalfPoint(0.0, 0.1))
    assert abs(w.real) < 1e-15 and abs(w.imag - 10.0) < 1e-12


def test_point_and_transform_are_checked_immutable_tuples():
    tau = UpperHalfPoint(0.3, 1.7)
    assert repr(tau) == "UpperHalfPoint(x=0.3, y=1.7)" and tau == (0.3, 1.7)
    t = ModularTransform(0, -1, 1, 0)
    assert repr(t) == "ModularTransform(a=0, b=-1, c=1, d=0)"
    for obj, field in ((tau, "x"), (tau, "y"), (t, "a"), (t, "d")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 1)
        with pytest.raises(AttributeError):
            obj.extra = 1
    limit = re.escape(f"needs finite x and 0 < y <= {TAU_Y_MAX!r}")
    for args, message in (((math.nan, 1.0), rf"UpperHalfPoint\(x=nan, y=1\.0\): {limit}"),
                          ((0.3, 0.0), rf"UpperHalfPoint\(x=0\.3, y=0\.0\): {limit}"),
                          ((0.3, math.inf), rf"UpperHalfPoint\(x=0\.3, y=inf\): {limit}"),
                          ((0.3, 1e308), rf"UpperHalfPoint\(x=0\.3, y=1e\+308\): {limit}")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            UpperHalfPoint(*args)
    with pytest.raises(ValueError, match=r"^ModularTransform\(a=2, b=0, c=0, d=1\): "
                                         r"needs ad - bc = 1$"):
        ModularTransform(a=2, b=0, c=0, d=1)


def test_reduce_inversion():
    red, t = reduce_to_fundamental_domain(UpperHalfPoint(0.0, 0.1))
    assert abs(red.x) < 1e-15
    assert abs(red.y - 10.0) < 1e-12
    # |eta| consistency via the raw q-series at both points:
    # |eta(-1/tau)| = |tau|^(1/2) |eta(tau)| with |tau| = 0.1.
    lhs = raw_log_abs_eta(0.0, 10.0)
    rhs = 0.5 * math.log(0.1) + raw_log_abs_eta(0.0, 0.1)
    assert abs(lhs - rhs) < 1e-12


def test_reduce_random_sample_properties():
    rng = np.random.default_rng(20260811)
    for _ in range(500):
        tau = UpperHalfPoint(rng.uniform(-5, 5), rng.uniform(0.05, 50.0))
        red, t = reduce_to_fundamental_domain(tau)
        assert t.a * t.d - t.b * t.c == 1
        wx, wy = exact_image(t, tau.x, tau.y)
        assert abs(wx) <= Fraction(1, 2) and wx * wx + wy * wy >= 1
        w = apply(t, tau)
        assert abs(w.real - red.x) <= 1e-9 * max(1.0, abs(red.x))
        assert abs(w.imag - red.y) <= 1e-9 * red.y


def test_log_abs_eta_at_i():
    assert abs(log_abs_eta(UpperHalfPoint(0.0, 1.0)) - LOG_ABS_ETA_I) < 1e-13
    assert abs(math.exp(log_abs_eta(UpperHalfPoint(0.0, 1.0))) - 0.76822542232605666) < 1e-13


def test_log_abs_eta_at_2i():
    got = log_abs_eta(UpperHalfPoint(0.0, 2.0))
    assert abs(got - LOG_ABS_ETA_2I) < 1e-13
    # |eta(2i)| = |eta(i)| / 2^(3/8)
    assert abs(got - (LOG_ABS_ETA_I - 0.375 * math.log(2.0))) < 1e-13


def test_log_abs_eta_large_y_is_leading_term():
    # q -> 0: the product contributes nothing at working precision.
    tau = UpperHalfPoint(0.37, 200.0)
    assert abs(log_abs_eta(tau) - (-math.pi * 200.0 / 12.0)) < 1e-10


def test_tau_near_the_real_axis_is_a_domain_error():
    # Where the reduced y' is above TAU_Y_MAX (y' = 1/y at x = 0 and 1/(4y) at
    # x = 1/2, past it for these subnormal y), both entry points raise; y' of
    # 1e150 to 1e300 compute.
    for x, y in ((0.0, 1e-310), (0.0, 5e-324), (0.5, 5e-324)):
        for fn in (reduce_to_fundamental_domain, log_abs_eta):
            message = (f"{fn.__name__}(tau=UpperHalfPoint(x={x!r}, y={y!r})): "
                       f"needs a reduced y' <= {TAU_Y_MAX!r}")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                fn(UpperHalfPoint(x, y))
    for x, y in ((0.0, 1e-300), (0.0, 1e-160), (0.5, 1e-300), (0.0, 1e-150)):
        red, t = reduce_to_fundamental_domain(UpperHalfPoint(x, y))
        assert red.y == float(exact_image(t, x, y)[1]) > 1e149
        assert math.isfinite(log_abs_eta(UpperHalfPoint(x, y)))
    red, t = reduce_to_fundamental_domain(UpperHalfPoint(0.0, 1e-150))
    assert (red.x, red.y, t.c) == (0.0, 1e150, 1)


def test_reduction_is_exact_down_to_the_smallest_subnormal_y():
    # T is unimodular, T(tau) is reduced in exact rationals, and the reduced
    # point is T(tau) rounded once.  y' is unique on the fundamental domain,
    # so it equals the exact loop's; x' may differ from it only by the
    # boundary's identifications.  Where y >= 1 the early exit is the loop's
    # whole result; where y' passes TAU_Y_MAX the reduction raises.
    for x, y in reduction_sample():
        ref = exact_reduction(x, y)
        if ref[1] > TAU_Y_MAX:
            with pytest.raises(ValueError, match="reduced y'"):
                reduce_to_fundamental_domain(UpperHalfPoint(x, y))
            continue
        red, t = reduce_to_fundamental_domain(UpperHalfPoint(x, y))
        assert t.a * t.d - t.b * t.c == 1
        wx, wy = exact_image(t, x, y)
        assert abs(wx) <= Fraction(1, 2) and wx * wx + wy * wy >= 1, (x, y)
        bits = [float(v).hex() for v in (red.x, red.y, wx, wy)]  # an int tau stays int
        assert bits[:2] == bits[2:], (x, y)
        assert wy == ref[1] and abs(wx) == abs(ref[0]), (x, y)
        if y >= 1.0:
            assert (wx, wy, *t) == ref, (x, y)


# The stated bounds: D_Ar within ETA_ACCURACY |D_Ar| (it is computed at the
# reduced point alone), log|eta(tau)| within ETA_ACCURACY (|D_Ar| + |log y|)
# (its (log y' - log y)/4 term costs up to |log y| ulps).
ETA_ACCURACY = 1e-15
# A dyadic cusp with reduced y' near 1, where D_Ar as log y + 4 log|eta(tau)|
# was 7.9e-14 relative off.
DYADIC_CUSP = (1.940030512615981e-120, 3.646510088923436e-249)


def test_d_ar_and_eta_are_accurate_at_the_exactly_reduced_point():
    # 40-digit mpmath at the exact reduced point: D_Ar = log y' + 4 log|eta(tau')|
    # (modular invariant), log|eta(tau)| = log|eta(tau')| + (log y' - log y)/4.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for x, y in reduction_sample() + [DYADIC_CUSP]:
            ref = exact_reduction(x, y)
            if ref[1] > TAU_Y_MAX:
                continue
            rx, ry = (mpmath.mpf(v.numerator) / v.denominator for v in ref[:2])
            log_eta = (mpmath.log(abs(mpmath.eta(mpmath.mpc(rx, ry)))) if ry < 1e3
                       else -mpmath.pi * ry / 12)  # the product is below e^(-6000)
            d_ref = mpmath.log(ry) + 4 * log_eta
            eta_ref = log_eta + (mpmath.log(ry) - mpmath.log(y)) / 4
            tau = UpperHalfPoint(x, y)
            assert abs(d_ar_elliptic(tau) - d_ref) <= ETA_ACCURACY * abs(d_ref), (x, y)
            scale = ETA_ACCURACY * (abs(float(d_ref)) + abs(math.log(y)))
            assert abs(log_abs_eta(tau) - eta_ref) <= scale, (x, y)


def test_scalar_eta_equals_the_value_through_the_reduced_point():
    # log_abs_eta reduces on plain floats (numerics._reduce); its value must
    # be, bit for bit, the one computed from reduce_to_fundamental_domain's
    # point, at random taus, near the cusps p/q and down to y = 1e-150.
    rng = np.random.default_rng(20261018)
    points = [(float(x), float(10.0 ** e)) for x, e in
              zip(rng.uniform(-5.0, 5.0, 400), rng.uniform(-6.0, 4.0, 400))]
    points += [(p / q + float(rng.uniform(-1e-3, 1e-3)), float(10.0 ** rng.uniform(-3.5, -2.0)))
               for q in range(1, 12) for p in range(-q, q + 1)]
    points += [(0.0, 1e-150), (0.5, 1e-150), (-0.4972609819432181, 0.0010632024231741785),
               (0.0, 1.0), (0.5, 0.8660254037844386), (1, 2)]
    for x, y in points:
        tau = UpperHalfPoint(x, y)
        red, t = reduce_to_fundamental_domain(tau)
        assert numerics._reduce(x, y, "test") == (red.x, red.y, t.a, t.b, t.c, t.d), (x, y)
        want = (-math.pi * red.y / 12.0 + numerics._qseries(red.x, red.y)
                + 0.25 * (math.log(red.y) - math.log(y)))
        assert log_abs_eta(tau).hex() == float(want).hex(), (x, y)


def test_qprod_and_its_bound_near_the_real_axis():
    # Below y = sqrt(3)/2 bound_slack's q-product is log|eta| + pi y/12 at the
    # exactly reduced point, so it takes microseconds where the raw series
    # would need ~1/y terms, and it stays within the q-product inequality
    # (rhs = |q|/(1 - |q|) through expm1).  The reference: 40-digit mpmath at
    # the exact reduced point.
    mpmath = pytest.importorskip("mpmath")
    for x in (0.3, 0.1234567, 0.0, -2.5):
        for y in (1e-5, 1e-10, 1e-17):
            tau = UpperHalfPoint(x, y)
            assert min(timeit.repeat(lambda: bound_slack(tau), number=1, repeat=5)) < 1e-3, (x, y)
            slack = bound_slack(tau)
            minus_2pi_y = -2.0 * math.pi * y
            rhs = math.exp(minus_2pi_y) / -math.expm1(minus_2pi_y)
            assert slack >= 3.0 / (math.pi * y) - 6.0 * rhs, (x, y)
            ref = exact_reduction(x, y)
            with mpmath.workdps(40):
                rx, ry = (mpmath.mpf(v.numerator) / v.denominator for v in ref[:2])
                log_eta = (mpmath.log(abs(mpmath.eta(mpmath.mpc(rx, ry)))) if ry < 1e3
                           else -mpmath.pi * ry / 12)  # the product is below e^(-6000)
                lhs_ref = log_eta + (mpmath.log(ry) - mpmath.log(y)) / 4 + mpmath.pi * y / 12
                slack_ref = 3 / (mpmath.pi * y) - 6 * lhs_ref
                assert abs(slack - slack_ref) <= 1e-15 * abs(slack_ref), (x, y)


def test_qprod_takes_the_series_from_sqrt3_over_2_and_eta_below():
    # Where y >= sqrt(3)/2 bound_slack's q-product is the series at
    # x - round(x); one double lower it is log|eta| + pi y/12, and the two
    # agree across the switch.
    y0 = elliptic._SQRT3_2
    assert y0 == math.sqrt(3.0) / 2.0
    below = math.nextafter(y0, 0.0)
    for x in (0.0, 0.3, 0.5, 2.75):
        via_series = numerics._qseries(x - round(x), y0)
        assert bound_slack(UpperHalfPoint(x, y0)) == 3.0 / (math.pi * y0) - 6.0 * via_series
        via_eta = log_abs_eta(UpperHalfPoint(x, below)) + math.pi * below / 12.0
        assert bound_slack(UpperHalfPoint(x, below)) == 3.0 / (math.pi * below) - 6.0 * via_eta
        assert abs(via_eta - via_series) <= 1e-15, x


def test_log_abs_eta_vs_raw_series_1000_samples():
    # Reduction path vs raw series (raw form only where |q| <= 0.5).
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(1000):
        x = rng.uniform(-5.0, 5.0)
        y = rng.uniform(0.05, 50.0)
        if math.exp(-2.0 * math.pi * y) > 0.5:
            continue
        assert abs(log_abs_eta(UpperHalfPoint(x, y)) - raw_log_abs_eta(x, y)) <= 1e-10
        checked += 1
    assert checked > 900


def test_log_abs_eta_modular_steps_1000_samples():
    # y |eta|^4 stays fixed along both generators: |eta(tau+1)| = |eta(tau)|
    # (bit-exact through the reduced form) and |eta(-1/tau)| = |tau|^(1/2)|eta(tau)|.
    rng = np.random.default_rng(7)
    for _ in range(1000):
        x = rng.uniform(-5.0, 5.0)
        y = rng.uniform(0.05, 50.0)
        base = log_abs_eta(UpperHalfPoint(x, y))
        assert log_abs_eta(UpperHalfPoint(x + 1.0, y)) == base
        norm = x * x + y * y
        inv = UpperHalfPoint(-x / norm, y / norm)
        assert abs(log_abs_eta(inv) - (0.5 * math.log(math.sqrt(norm)) + base)) <= 1e-10


def test_e1_against_quadrature_oracle():
    mpmath = pytest.importorskip("mpmath")
    for x in (0.05, 0.25, 0.7, 1.0):
        with mpmath.workdps(30):
            oracle = float(mpmath.quad(lambda u: mpmath.exp(-u) / u, [x, mpmath.inf]))
        assert abs(exp_integral_e1(x) - oracle) <= 1e-11 * oracle + 1e-15


def test_e1_quarter_frozen():
    assert abs(exp_integral_e1(0.25) - E1_QUARTER) < 1e-13


def test_e1_bracketing():
    # e^-x/(x+1) < E1(x) < e^-x/x and the log brackets.
    v = exp_integral_e1(1.0)
    assert math.exp(-1.0) / 2.0 < v < math.exp(-1.0)
    for x in (0.1, 0.25, 0.5, 1.0):
        v = exp_integral_e1(x)
        assert 0.5 * math.exp(-x) * math.log1p(2.0 / x) <= v <= math.exp(-x) * math.log1p(1.0 / x)


def test_eta_and_e1_against_mpmath():
    # 40-digit references at seeded points: log|eta| over 1e-3 <= y <= 1e4 and
    # |x| <= 3 (the reduction's far side included), E1 over [1e-8, 1] up to
    # the end of its domain.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(4711)
    taus = [(float(x), float(10.0 ** e))
            for x, e in zip(rng.uniform(-3.0, 3.0, 60), rng.uniform(-3.0, 4.0, 60))]
    taus += [(0.5, 1e-3), (-0.5, 1e4), (0.0, 1e-3), (0.5, 0.8660254037844386)]
    xs = [float(10.0 ** e) for e in rng.uniform(-8.0, 0.0, 60)]
    xs += [1e-8, 1.0 - 1e-7, 1.0]
    with mpmath.workdps(40):
        for x, y in taus:
            ref = float(mpmath.log(abs(mpmath.eta(mpmath.mpc(x, y)))))
            assert abs(log_abs_eta(UpperHalfPoint(x, y)) - ref) <= 1e-13 * max(1.0, abs(ref)), (x, y)
        for x in xs:
            ref = float(mpmath.e1(x))
            assert abs(exp_integral_e1(x) - ref) <= 2e-14 * ref, x


def test_e1_domain():
    # The series is the only branch, so E1 past x = 1 is refused too.
    for x in (0.0, -2.0, 1.0 + 1e-15, 25.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="0 < x <= 1"):
            exp_integral_e1(x)


def zeta_prime_2_series(n_cut: int = 1000) -> float:
    """zeta'(2) = -sum_{n>=2} log(n)/n^2: the direct sum below n_cut, then the
    Euler-Maclaurin tail from n_cut (integral, f(N)/2 and -f'(N)/12 for
    f(x) = log(x)/x^2); the next term is below 1e-15 at N = 1000."""
    ln_n = math.log(n_cut)
    head = math.fsum(math.log(n) / n**2 for n in range(2, n_cut))
    tail = (ln_n + 1.0) / n_cut + 0.5 * ln_n / n_cut**2 - (1.0 - 2.0 * ln_n) / (12.0 * n_cut**3)
    return -(head + tail)


def test_zeta_classical_values():
    zeta_prime_2 = zeta_prime_2_series()
    assert abs(zeta_prime_2 - ZETA_PRIME_2) <= 1e-12
    # log(Glaisher) = 1/12 - zeta'(-1)
    glaisher_form = math.pi**2 / 6.0 * (0.57721566490153286 + math.log(2.0 * math.pi)
                                        - 12.0 * (1.0 / 12.0 - ZETA_PRIME_M1))
    assert abs(zeta_prime_2 - glaisher_form) <= 1e-12


def test_zeta_deriv_values():
    assert abs(zeta_em_deriv(0.0) - ZETA_PRIME_0) <= 1e-12
    assert abs(zeta_em_deriv(-1.0) - ZETA_PRIME_M1) <= 1e-12


def test_zeta_em_and_constants_against_mpmath():
    assert abs(ZETA_PRIME_MINUS1 - ZETA_PRIME_M1) <= 1e-12
    assert ZETA_PRIME_MINUS1 < 0.0
    assert abs(4.0 * ZETA_PRIME_MINUS1 - (-0.661685)) <= 1e-5
    # The documented 1e-12 over the whole domain, at steps of 0.05 (worst
    # seen: 4.9e-13).
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for k in range(41):
            s = k / 20.0 - 2.0
            assert abs(zeta_em_deriv(s) - float(mpmath.zeta(s, derivative=1))) <= 1e-12, s
        # K and kappa carry 24 zeta'(-1) and 4 zeta'(-1) (seen: 2.6e-13, 4.3e-14).
        k_ref = (-24 * mpmath.zeta(-1, derivative=1) + 1
                 - 6 * mpmath.log(2 * mpmath.pi) - 2 * mpmath.log(2))
        kappa_ref = (mpmath.log(2 * mpmath.pi ** 4) / 3
                     - mpmath.log(2 * mpmath.pi) * 4 / 3 - k_ref / 6)
    assert abs(K_CONST - float(k_ref)) <= 1e-12
    assert abs(KAPPA - float(kappa_ref)) <= 1e-13


def test_even_bernoulli_numbers_are_the_exact_recurrences_floats():
    # B_m = -1/(m+1) sum_{j<m} C(m+1, j) B_j over the rationals, rounded once.
    bern = [Fraction(1)]
    for m in range(1, 61):
        bern.append(-sum(math.comb(m + 1, j) * bern[j] for j in range(m)) / (m + 1))
    for count in range(1, 31):
        assert numerics._even_bernoulli(count) == tuple(
            float(bern[2 * j]) for j in range(1, count + 1)), count


def test_zeta_prime_and_the_constants_built_on_it_keep_their_bits():
    assert repr(ZETA_PRIME_MINUS1) == "-0.16542114370044012"
    assert repr(K_CONST) == "-7.4434493107654"
    assert repr(KAPPA) == "0.5474277045676217"


def test_no_module_holds_a_cache():
    # Every input-free value is a module constant evaluated once, at import,
    # so no atlab function memoizes.
    cached = set()
    for info in pkgutil.iter_modules(atlab.__path__):
        module = importlib.import_module(f"atlab.{info.name}")
        cached |= {f"{value.__module__}.{value.__qualname__}"
                   for value in vars(module).values()
                   if callable(value) and hasattr(value, "cache_info")}
    assert not cached


def test_zeta_pole_guard():
    # The pole s = 1 lies outside the domain, so the domain check refuses it.
    for s in (1.05, 0.95, 1.0):
        with pytest.raises(ValueError, match="-2 <= s <= 0"):
            zeta_em_deriv(s)


def test_zeta_outside_its_documented_range_raises():
    # Euler-Maclaurin at the fixed N and order is accurate on [-2, 0] only:
    # unguarded, the zeta sum gave -2.8e-6 at s = -10 where zeta(-10) = 0.
    for s in (-10.0, -2.5, 1e-300, 4.5, 40.0, -math.inf, math.inf, math.nan):
        with pytest.raises(ValueError, match="-2 <= s <= 0"):
            zeta_em_deriv(s)


def test_kernels_refuse_arguments_past_the_points_the_system_evaluates():
    # The system needs E1 only at 1/4 and zeta' only at -1, so neither kernel
    # serves E1 past x = 1 or zeta' at s > 0.
    for call in (lambda: exp_integral_e1(1.5), lambda: zeta_em_deriv(0.5),
                 lambda: zeta_em_deriv(2.0)):
        with pytest.raises(ValueError):
            call()
    # zeta'(-2) = -zeta(3) / (4 pi^2)
    assert abs(zeta_em_deriv(-2.0) + 1.2020569031595943 / (4.0 * math.pi**2)) <= 1e-12
