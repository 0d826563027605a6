"""Genus-1 Arakelov quantities.

Frozen digits evaluated at 30 decimals from the eta closed forms
(Gamma(1/4)/(2 pi^(3/4)) at tau = i).
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from atlab.bounds import K_CONST, wilms_lower
from atlab.elliptic import (
    arakelov_area,
    arakelov_logdet,
    bound_slack,
    d_ar_elliptic,
    elliptic_upper_bound_log,
    faltings_delta_elliptic,
    log_arakelov_area,
)
from atlab.numerics import LN_2PI, TAU_Y_MAX, UpperHalfPoint, log_abs_eta
from atlab.torus import logdet_closed

TAU_I = UpperHalfPoint(0.0, 1.0)

AREA_I = 3.7081493546027438          # 2 pi |eta(i)|^2
ARAK_LOGDET_I = 0.25584464491583759  # log 2pi + 6 log|eta(i)|
D_AR_I = -1.0546882809956719         # log|eta(i)|^4
UBOUND_I = 1.2220103981658209        # log 2pi - pi/2 + 3/pi
UBOUND_Y10 = -9.1694230496963921     # log 2pi + 2 log 10 - 5 pi + 3/(10 pi)
QPROD_LHS_I = -0.0018726824497685461  # log prod(1 - e^(-2 pi n))
QPROD_RHS_I = 0.0018709365986606441   # e^(-2 pi)/(1 - e^(-2 pi))
FALT_DIRECT_I = -8.3748868453007323
FALT_SHIFTED_I = -1.0233785796633504


def qprod_rhs(y: float) -> float:
    """|q|/(1 - |q|), the q-product inequality's right side, with 1 - |q| as
    -expm1(-2 pi y), accurate at small y."""
    minus_2pi_y = -2.0 * math.pi * y
    return math.exp(minus_2pi_y) / -math.expm1(minus_2pi_y)


def test_area_at_i():
    assert abs(arakelov_area(TAU_I) - AREA_I) < 1e-11
    assert abs(math.exp(log_arakelov_area(TAU_I)) - arakelov_area(TAU_I)) < 1e-13


def test_area_shift_invariance():
    assert arakelov_area(UpperHalfPoint(0.3, 1.2)) == arakelov_area(UpperHalfPoint(1.3, 1.2))
    # To the bit at large |x|, where x keeps few fraction bits and any shift
    # other than the exact x - round(x) rounds; y on both sides of sqrt(3)/2.
    for f in (log_arakelov_area, arakelov_logdet, d_ar_elliptic, bound_slack):
        for x in (2.0**50 + 0.25, 12345.3, -2.0**51 - 0.5):
            for y in (0.5, 0.9, 1.3, 300.0):
                assert (f(UpperHalfPoint(x, y)).hex()
                        == f(UpperHalfPoint(x - round(x), y)).hex()), (f.__name__, x, y)


def test_area_decays_at_large_y():
    # log-area ~ log 2pi + log y - pi y/6 -> -inf, finite through the log form.
    y = 120.0
    got = log_arakelov_area(UpperHalfPoint(0.0, y))
    assert abs(got - (LN_2PI + math.log(y) - math.pi * y / 6.0)) < 1e-10
    assert log_arakelov_area(UpperHalfPoint(0.0, 4000.0)) < -2000.0


def test_area_raises_where_it_underflows():
    # The area leaves the normal doubles near y = 1370; below that it is exact,
    # above it raises instead of returning 0.0 or a subnormal.
    area = arakelov_area(UpperHalfPoint(0.0, 1000.0))
    assert area >= sys.float_info.min
    assert area == math.exp(log_arakelov_area(UpperHalfPoint(0.0, 1000.0)))
    for y in (1400.0, 2000.0, 4000.0):
        tau = UpperHalfPoint(0.3, y)
        message = f"arakelov_area(tau={tau!r}): needs log Area_Ar >= log(sys.float_info.min)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            arakelov_area(tau)


# Corners of the domain: the underflow and overflow edges of y, a cusp at
# x = 0.5, a point near one, and |x| far from the strip.
CORNER_XS = (0.0, 0.5, 0.123456789, -0.4972609819432181, -3.0, 1e308)
CORNER_YS = (5e-324, 1e-320, 5.3e-309, 5.4e-309, 1e-300, 1e-20, 1e-4, 0.5, 1.0, 1e4,
             1e300, 2.8e307, 2.9e307, TAU_Y_MAX)
GENUS1_FUNCTIONS = (
    arakelov_area, log_arakelov_area, arakelov_logdet, d_ar_elliptic,
    elliptic_upper_bound_log, bound_slack, faltings_delta_elliptic,
    partial(faltings_delta_elliptic, reading="shifted"), log_abs_eta,
)


@pytest.mark.parametrize("x", CORNER_XS)
def test_genus1_functions_return_a_finite_float_or_raise_on_the_corner_grid(x):
    for y in CORNER_YS:
        tau = UpperHalfPoint(x, y)
        for fn in GENUS1_FUNCTIONS:
            try:
                value = fn(tau)
            except ValueError:
                continue
            assert isinstance(value, float) and math.isfinite(value), (fn, tau, value)


@pytest.mark.parametrize("fn, x, y, y_finite", (
    (elliptic_upper_bound_log, 0.123456789, 5.3e-309, 5.4e-309),  # 3/(pi y)
    (bound_slack, 0.123456789, 5.3e-309, 5.4e-309),
    (bound_slack, 0.5, 5.4e-309, 1e-300),  # the q-product term at the cusp
    (faltings_delta_elliptic, 0.0, 2.9e307, 2.8e307),  # -6 D_Ar
))
def test_overflow_raises_naming_routine_tau_and_the_largest_double(fn, x, y, y_finite):
    assert math.isfinite(fn(UpperHalfPoint(x, y_finite)))
    with pytest.raises(ValueError) as info:
        fn(UpperHalfPoint(x, y))
    message = str(info.value)
    for part in (fn.__name__, repr(x), repr(y), repr(sys.float_info.max)):
        assert part in message


def test_arakelov_logdet_at_i():
    assert abs(arakelov_logdet(TAU_I) - ARAK_LOGDET_I) < 1e-11


def test_logdet_area_identity():
    # log det = log Area + log(y |eta|^4), algebraically exact.
    rng = np.random.default_rng(3)
    for _ in range(50):
        tau = UpperHalfPoint(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 50.0))
        lhs = arakelov_logdet(tau)
        rhs = log_arakelov_area(tau) + logdet_closed(tau)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_arakelov_logdet_not_invariant_but_correctly_related():
    # log det(tau) = log det(tau') + log(y/y')/2 across a reduction step;
    # only D_Ar is modular invariant.
    tau = UpperHalfPoint(0.3, 0.8)
    norm = tau.x**2 + tau.y**2
    red = UpperHalfPoint(-tau.x / norm, tau.y / norm)
    shift = 0.5 * (math.log(tau.y) - math.log(red.y))
    assert abs(arakelov_logdet(tau) - (arakelov_logdet(red) + shift)) < 1e-10
    assert abs(arakelov_logdet(tau) - arakelov_logdet(red)) > 0.1


def test_d_ar_equals_logdet_closed():
    for tau in (TAU_I, UpperHalfPoint(0.2, 1.3), UpperHalfPoint(-0.4, 0.3)):
        assert d_ar_elliptic(tau) == logdet_closed(tau)
    assert abs(d_ar_elliptic(TAU_I) - D_AR_I) < 1e-12


def test_d_ar_scale_invariance_algebra():
    # det and area both scale by gamma^2, so D_Ar survives the scaling law.
    tau = UpperHalfPoint(0.1, 2.2)
    gamma = 3.0
    logdet = logdet_closed(tau)
    scaled_det = logdet + 2.0 * math.log(gamma)  # log det(gamma^2 g)
    scaled_log_area = log_arakelov_area(tau) + 2.0 * math.log(gamma)
    d_ar_from_arak = arakelov_logdet(tau) - log_arakelov_area(tau)
    assert abs((scaled_det - (scaled_log_area - log_arakelov_area(tau)))
               - d_ar_elliptic(tau)) < 1e-12
    assert abs(d_ar_from_arak - d_ar_elliptic(tau)) < 1e-12


def test_d_ar_modular_invariance():
    tau = UpperHalfPoint(0.2, 1.3)
    norm = tau.x**2 + tau.y**2
    inv = UpperHalfPoint(-tau.x / norm, tau.y / norm)
    assert abs(d_ar_elliptic(inv) - d_ar_elliptic(tau)) <= 1e-10
    assert d_ar_elliptic(UpperHalfPoint(1.2, 1.3)) == d_ar_elliptic(tau)


def test_upper_bound_frozen_values():
    assert abs(elliptic_upper_bound_log(TAU_I) - UBOUND_I) < 1e-12
    assert abs(elliptic_upper_bound_log(UpperHalfPoint(0.0, 10.0)) - UBOUND_Y10) < 1e-12
    assert elliptic_upper_bound_log(TAU_I) > arakelov_logdet(TAU_I)
    assert elliptic_upper_bound_log(UpperHalfPoint(0.0, 10.0)) > \
        arakelov_logdet(UpperHalfPoint(0.0, 10.0))


def test_upper_bound_depends_on_y_only():
    assert elliptic_upper_bound_log(UpperHalfPoint(0.47, 1.0)) == \
        elliptic_upper_bound_log(TAU_I)


def test_qprod_bound_at_i():
    # bound_slack = 3/(pi y) - 6 log|prod (1 - q^n)|, and the q-product is at
    # most its inequality's right side.
    slack = bound_slack(TAU_I)
    assert abs(slack - (3.0 / math.pi - 6.0 * QPROD_LHS_I)) < 1e-14
    assert abs(qprod_rhs(1.0) - QPROD_RHS_I) < 1e-14
    assert slack >= 3.0 / math.pi - 6.0 * qprod_rhs(1.0)


def test_qprod_bound_vanishes_at_large_y():
    # Both sides of the q-product inequality are below 1e-100 at y = 60, so
    # the slack is 3/(pi y) to the bit.
    assert qprod_rhs(60.0) < 1e-100
    assert bound_slack(UpperHalfPoint(0.0, 60.0)) == 3.0 / (math.pi * 60.0)


def test_qprod_chain_constant():
    # 6 rhs = 6/(e^(2 pi y) - 1) <= 3/(pi y) for all y (e^x - 1 >= x).
    for y in np.geomspace(0.05, 100.0, 200):
        assert 6.0 * qprod_rhs(float(y)) <= 3.0 / (math.pi * y) * (1.0 + 1e-15)


def test_bound_and_qprod_1000_samples():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        tau = UpperHalfPoint(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 100.0))
        assert arakelov_logdet(tau) < elliptic_upper_bound_log(tau)
        assert bound_slack(tau) >= 3.0 / (math.pi * tau.y) - 6.0 * qprod_rhs(tau.y)


def test_faltings_delta_readings():
    assert abs(faltings_delta_elliptic(TAU_I, "direct") - FALT_DIRECT_I) < 1e-10
    assert abs(faltings_delta_elliptic(TAU_I, "shifted") - FALT_SHIFTED_I) < 1e-10
    assert abs((faltings_delta_elliptic(TAU_I, "shifted")
                - faltings_delta_elliptic(TAU_I, "direct")) - 4.0 * LN_2PI) < 1e-12
    with pytest.raises(ValueError):
        faltings_delta_elliptic(TAU_I, "other")


def test_faltings_delta_is_wentworth_at_g1():
    # elliptic writes a(1) as -8 log 2pi itself; the bounds formula
    # a(g) = -8 g log 2pi + (1 - g) K at g = 1 must give the same bits at every tau.
    a_1 = -8.0 * 1.0 * LN_2PI + (1.0 - 1.0) * K_CONST
    rng = np.random.default_rng(20261018)
    xs, ys = rng.uniform(-3.0, 3.0, 1200), 10.0 ** rng.uniform(-4.0, 4.0, 1200)
    for tau in [TAU_I] + [UpperHalfPoint(float(x), float(y)) for x, y in zip(xs, ys)]:
        got = faltings_delta_elliptic(tau, "direct")
        want = -6.0 * d_ar_elliptic(tau) + a_1
        assert got == want, tau


def test_wilms_margins_recorded_not_asserted():
    # Both readings satisfy the stated g = 1 lower bound -2 log(2 pi^4);
    # the normalization question itself lands in the claims registry (CL-20).
    lower = wilms_lower(1)
    assert faltings_delta_elliptic(TAU_I, "direct") > lower
    assert faltings_delta_elliptic(TAU_I, "shifted") > lower


CL19_GRID = [0.05 * (100.0 / 0.05) ** (i / 499.0) for i in range(500)]


def raw_log_abs_qprod(x: float, y: float) -> float:
    """Oracle: sum_n log|1 - q^n| on tau as given, no reduction, until the
    geometric tail bound |q|^(n+1) / (1 - |q|)^2 is below 1e-17."""
    qa = math.exp(-2.0 * math.pi * y)
    total, qn, n = 0.0, 1.0, 0
    while qn * qa / (1.0 - qa) ** 2 >= 1e-17:
        n += 1
        qn *= qa
        total += 0.5 * math.log1p(qn * qn - 2.0 * qn * math.cos(2.0 * math.pi * n * x))
    return total


def test_cl19_premise_holds_on_the_grid_and_is_least_at_its_start():
    # The audit checks 3/(pi y) - 6|q|/(1-|q|) > 16 eps 3/(pi y) at y = 0.05
    # alone; in floats it holds at every grid y, and its relative value, which
    # the proof shows rises with y, is least at y = 0.05.
    relative = []
    for y in CL19_GRID:
        qa = math.exp(-2.0 * math.pi * y)
        target = 3.0 / (math.pi * y)
        margin = target - 6.0 * qa / (1.0 - qa)
        assert margin > 16.0 * sys.float_info.epsilon * target, y
        relative.append(margin / target)
    assert CL19_GRID[0] == 0.05 and relative == sorted(relative)
    assert relative[0] == pytest.approx(0.14887, abs=1e-5)


@pytest.mark.parametrize("x", [0.0, 0.3, -0.5, 2.75])
def test_cl19_certificate_is_the_evaluated_bound_slack(x):
    # CL-19 certifies bound - log det = 3/(pi y) - 6 log|prod (1 - q^n)|
    # without evaluating eta on its grid; on that grid the evaluated log det
    # (through the reduced eta) agrees with a raw q-series at tau unreduced.
    for y in CL19_GRID:
        tau = UpperHalfPoint(x, y)
        bound = elliptic_upper_bound_log(tau)
        identity = 3.0 / (math.pi * y) - 6.0 * raw_log_abs_qprod(x, y)
        assert abs(bound - arakelov_logdet(tau) - identity) <= 1e-13 * max(1.0, abs(bound)), y


def mp_log_abs_eta(mpmath, x: float, y: float):
    """Oracle: log|eta(x + iy)| in mpmath, through the textbook
    shift-and-invert reduction of the doubles x, y in exact rationals, as
    |eta|^4 y is modular invariant."""
    rx, ry = Fraction(x), Fraction(y)
    while True:
        rx -= round(rx)
        norm = rx * rx + ry * ry
        if norm >= 1:
            break
        rx, ry = -rx / norm, ry / norm
    rx, ry = (mpmath.mpf(v.numerator) / v.denominator for v in (rx, ry))
    return mpmath.log(abs(mpmath.eta(mpmath.mpc(rx, ry)))) + (mpmath.log(ry) - mpmath.log(y)) / 4


def test_bound_slack_against_mpmath_at_small_and_large_y():
    # bound - log det is ~3/(pi y) beside two values near -pi y/2: the plain
    # difference lost ~1e-10 relative at y = 1000.  Below y = 1 the same
    # identity runs through the exactly reduced point.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        for x, y in [(x, y) for x in (0.0, 0.3) for y in (300.0, 1000.0, 1300.0)] + [
                (0.3, y) for y in (0.9, 0.5, 1e-3, 1e-10)]:
            ref = (-mpmath.pi * y / 2 + 3 / (mpmath.pi * y) - 6 * mp_log_abs_eta(mpmath, x, y))
            got = bound_slack(UpperHalfPoint(x, y))
            assert abs(got - ref) <= 1e-15 * abs(ref), (x, y, got, ref)
