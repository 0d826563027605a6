"""Flat-torus spectral engine: enumeration, heat trace, zeta continuation,
and the determinant oracle against the closed form.

The oracle path (the lattice Q enumeration and the exponential integrals
E_p that G(s) sums) and the closed form (eta kernel) share no code, so their
agreement is a genuine dual-route check.
"""

from __future__ import annotations

import ast
import bisect
import csv
import gzip
import hashlib
import math
import pathlib
import random
import re
import struct

import numpy as np
import pytest

from atlab import elliptic, numerics, torus
from atlab.numerics import UpperHalfPoint
from atlab.torus import (
    LATTICE_TAIL_TOL,
    DetComparison,
    UnitTorus,
    _q_values,
    compare_logdet,
    logdet_closed,
    logdet_oracle,
    spectral_zeta,
)

FOUR_PI_SQ = 4.0 * math.pi * math.pi
T_STAR = 1.0 / (4.0 * math.pi)  # the self-dual point of the unit-area heat trace
TAU_I = UpperHalfPoint(0.0, 1.0)
SAMPLE_TAUS = (
    UpperHalfPoint(0.0, 1.0),
    UpperHalfPoint(0.0, 2.0),
    UpperHalfPoint(0.5, 0.9),
    UpperHalfPoint(0.3, 1.7),
    UpperHalfPoint(-0.4, 2.5),
)

# log(y |eta|^4) from the eta closed forms at 30 digits.
LOGDET_I = -1.0546882809956719
LOGDET_2I = -1.4012618712756446
# sum' (m^2+n^2)^-2 = 4 zeta(2) beta(2) (beta(2) = Catalan), over (4 pi^2)^2.
ZETA2_SQUARE_LATTICE = 0.003866946590737210


def chowla_selberg_zeta(x: float, y: float, s: float, terms: int = 40) -> float:
    """Exact reference for zeta_tau(s) = (4 pi^2)^-s y^s sum' |m + n tau|^-2s,
    by the Chowla-Selberg series at 30 digits (Borwein, Glasser, McPhedran,
    Wan & Zucker, Lattice Sums Then and Now, ch. 1):

        sum' |m + n tau|^-2s = 2 zeta(2s)
            + 2 sqrt(pi) Gamma(s - 1/2)/Gamma(s) zeta(2s - 1) y^(1-2s)
            + (8 pi^s/Gamma(s)) y^(1/2-s) sum_{N>=1} cos(2 pi N x) K_nu(2 pi N y)
                                            sum_{d|N} (d^2/N)^nu,   nu = s - 1/2.

    zeta_tau is SL2(Z)-invariant, so tau is first reduced exactly (at 60
    digits) into the fundamental domain, where y >= sqrt(3)/2.  The K-Bessel
    terms fall like e^(-2 pi N y); terms = 40 is far past 30 digits there.
    At s = 1/2 two terms have canceling poles.
    """
    assert s != 0.5, s
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        tau = mpmath.mpc(x, y)
        while abs(tau - mpmath.nint(tau.real)) < 1:
            tau = -1 / (tau - mpmath.nint(tau.real))
        x, y = tau.real - mpmath.nint(tau.real), tau.imag
    with mpmath.workdps(30):
        x, y, s = +x, +y, mpmath.mpf(s)
        nu, pi = s - mpmath.mpf(1) / 2, mpmath.pi
        series = sum(mpmath.cos(2 * pi * n * x) * mpmath.besselk(nu, 2 * pi * n * y)
                     * sum((mpmath.mpf(d) ** 2 / n) ** nu for d in range(1, n + 1) if n % d == 0)
                     for n in range(1, terms + 1))
        lattice = (2 * mpmath.zeta(2 * s)
                   + 2 * mpmath.sqrt(pi) * mpmath.gamma(nu) / mpmath.gamma(s)
                   * mpmath.zeta(2 * s - 1) * y ** (1 - 2 * s)
                   + 8 * pi ** s / mpmath.gamma(s) * y ** (mpmath.mpf(1) / 2 - s) * series)
        return float((y / (4 * pi * pi)) ** s * lattice)


def brute_force_eigenvalues(tau: UpperHalfPoint, cutoff: float, box: int) -> list[float]:
    """Oracle: every lambda <= cutoff, sorted, by a plain double loop over |m|, |n| <= box."""
    lams = []
    for m in range(-box, box + 1):
        for n in range(-box, box + 1):
            if m == 0 and n == 0:
                continue
            q = ((m + n * tau.x) ** 2 + (n * tau.y) ** 2) / tau.y
            lam = 4.0 * math.pi**2 * q
            if lam <= cutoff:
                lams.append(lam)
    return sorted(lams)


def lattice_q(t: UnitTorus, qmax: float) -> np.ndarray:
    """Every nonzero Q <= qmax of the lattice, sorted, with multiplicity: the
    oracle's half lattice taken twice, once for each of +-(m, n)."""
    return np.sort(np.array(2 * _q_values(t.tau.x, t.tau.y, qmax)))


def spectrum(tau: UpperHalfPoint, cutoff: float) -> np.ndarray:
    """The eigenvalues 4 pi^2 Q <= cutoff, with multiplicity, from the Q set
    the oracle's lattice sums run over."""
    return FOUR_PI_SQ * lattice_q(UnitTorus(tau), cutoff / FOUR_PI_SQ)


def lattice_sum(q: np.ndarray, scale: float) -> float:
    """sum_Q e^(scale Q) over q."""
    return float(np.exp(scale * q).sum())


def direct_qmax(t: float) -> float:
    """The Q cut of the direct heat sum at t: e^(-4 pi^2 Q t) <= LATTICE_TAIL_TOL beyond it."""
    return math.log(1.0 / LATTICE_TAIL_TOL) / (FOUR_PI_SQ * t)


def poisson_qmax(t: float) -> float:
    """The Q cut of the Poisson-summed heat sum at t, with a margin for the
    lattice-point count."""
    return 4.0 * t * (math.log(1.0 / LATTICE_TAIL_TOL) + 1.0)


def direct_theta(t_torus: UnitTorus, t: float) -> float:
    return 1.0 + lattice_sum(lattice_q(t_torus, direct_qmax(t)), -FOUR_PI_SQ * t)


def poisson_theta(t_torus: UnitTorus, t: float) -> float:
    pole = 1.0 / (4.0 * math.pi * t)
    return pole + lattice_sum(lattice_q(t_torus, poisson_qmax(t)), -0.25 / t) * pole


def theta(t_torus: UnitTorus, t: float) -> float:
    """Theta(t) = 1 + sum' e^(-lambda t) over the oracle's Q set: the
    direct sum from the self-dual point T_STAR on, the Poisson-summed form below it."""
    return direct_theta(t_torus, t) if t >= T_STAR else poisson_theta(t_torus, t)


def test_smallest_eigenvalue_square_lattice():
    lams = spectrum(TAU_I, 40.0)
    assert lams.size == 4  # (+-1, 0), (0, +-1)
    assert np.abs(lams - 4.0 * math.pi**2).max() < 1e-9


def test_below_first_eigenvalue_is_empty():
    assert spectrum(TAU_I, 39.0).size == 0


def test_hexagonal_multiplicity_six():
    hexa = UpperHalfPoint(0.5, math.sqrt(3.0) / 2.0)
    lams = spectrum(hexa, 46.0)
    assert lams.size == 6
    assert np.abs(lams - 45.585750062112451).max() < 1e-9  # 8 pi^2 / sqrt 3
    assert np.allclose(lams, brute_force_eigenvalues(hexa, 46.0, 3), rtol=1e-12, atol=0.0)


def test_eigenvalues_match_brute_force():
    tau = UpperHalfPoint(0.3, 1.7)
    got = spectrum(tau, 300.0)
    want = brute_force_eigenvalues(tau, 300.0, 30)
    assert got.size == len(want)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_weyl_counting():
    cutoff = 4.0e4
    count = spectrum(TAU_I, cutoff).size
    assert abs(count / (cutoff / (4.0 * math.pi)) - 1.0) < 0.05


def test_heat_trace_large_t_two_term():
    # Theta(1) - 1 = 4 e^(-4 pi^2) ~= 2.85e-17, below double resolution next
    # to the kernel term, so observe the lattice sum itself.
    rem = lattice_sum(lattice_q(UnitTorus(TAU_I), direct_qmax(1.0)), -FOUR_PI_SQ)
    assert abs(rem - 4.0 * math.exp(-4.0 * math.pi**2)) < 1e-25
    assert theta(UnitTorus(TAU_I), 1.0) == 1.0


def test_heat_trace_small_t_poisson_pole():
    # Leading 1/(4 pi t); the first correction is ~4 e^-25/(4 pi t) ~ 4.4e-10.
    got = theta(UnitTorus(TAU_I), 0.01)
    assert abs(got - 1.0 / (0.04 * math.pi)) < 1e-9
    assert got > 1.0 / (0.04 * math.pi)


def test_heat_trace_tends_to_one():
    assert theta(UnitTorus(TAU_I), 60.0) == 1.0


def test_poisson_direct_consistency_at_switch():
    # The two forms of Theta agree at the self-dual point T_STAR, where the
    # oracle folds one onto the other, and on either side of it: the identity
    # 1 + theta(w) = (1 + theta(1/w)) / w behind the fold.
    for tau in SAMPLE_TAUS + (UpperHalfPoint(0.1, 0.05), UpperHalfPoint(0.2, 30.0)):
        t_torus = UnitTorus(tau)
        for w in (0.25, 0.5, 1.0, 2.0, 4.0):
            d, p = direct_theta(t_torus, T_STAR * w), poisson_theta(t_torus, T_STAR * w)
            assert abs(d - p) <= 1e-12 * d, (tau, w)


def test_heat_trace_strictly_decreasing():
    # Strict on grids where Theta - 1 is representable; beyond that the trace
    # sits exactly on the kernel plateau.
    for tau in (TAU_I, UpperHalfPoint(0.5, math.sqrt(3.0) / 2.0)):
        t_torus = UnitTorus(tau)
        values = [theta(t_torus, t) for t in np.geomspace(0.03, 0.9, 25)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] >= 1.0
    assert theta(UnitTorus(TAU_I), 5.0) == 1.0


def test_spectral_zeta_at_zero_all_samples():
    # rgamma(0) = 0 leaves -rgamma(1): exactly -1.0 wherever H(0) is finite.
    for tau in SAMPLE_TAUS:
        assert spectral_zeta(UnitTorus(tau), 0.0) == -1.0


def test_spectral_zeta_next_to_zero_where_gamma_overflows():
    # math.gamma(s) overflows for 0 < |s| < ~5.6e-309; there 1/Gamma(s) rounds
    # to s itself, and zeta(s) to the -1.0 it is at s = 0.
    for tau in (TAU_I, UpperHalfPoint(0.3, 100.0), UpperHalfPoint(0.3, 1e-4)):
        for s in (5e-324, -5e-324, 1e-310, -5.5e-309):
            assert spectral_zeta(UnitTorus(tau), s) == -1.0, (tau, s)


def test_spectral_zeta_square_lattice_s2():
    assert abs(spectral_zeta(UnitTorus(TAU_I), 2.0) - ZETA2_SQUARE_LATTICE) <= 1e-12


def test_spectral_zeta_chowla_selberg_generic_tau():
    for tau in (TAU_I, UpperHalfPoint(0.3, 1.7), UpperHalfPoint(0.5, 0.9)):
        for s in (1.8, 2.0, 3.0, 5.5, 8.0, 11.0):
            want = chowla_selberg_zeta(tau.x, tau.y, s)
            assert abs(spectral_zeta(UnitTorus(tau), s) - want) <= 1e-14 * abs(want), (tau, s)


def test_spectral_zeta_chowla_selberg_at_the_y_edges():
    # Up to s = 11, the largest order _expint is verified for, at y = 1e-4 and
    # 1e4; at x = 0 both reduce to the end of the oracle's domain, y' = 1e4,
    # where Q runs from ~1e-4 to the cut and pi Q < 1 for hundreds of terms.
    for x in (0.0, 0.3, 0.5):
        for y in (1e-4, 1e4):
            for s in (3.0, 4.5, 7.5, 11.0):
                want = chowla_selberg_zeta(x, y, s)
                got = spectral_zeta(UnitTorus(UpperHalfPoint(x, y)), s)
                assert abs(got - want) <= 1e-14 * abs(want), (x, y, s)


def test_spectral_zeta_is_accurate_where_tau_is_ill_conditioned():
    # Near the real axis at a generic x, moving x or y by one ulp moves zeta by
    # thousands of ulps (the SL2(Z) reduction's condition number), at small
    # and negative s as much as at large s.  The oracle sums the lattice of
    # the exactly reduced point, the double's own, so none of that enters.
    eps = 2.0 ** -53
    x, y = 0.4009004917506227, 0.0008047254144550108
    for s in (-9.3, 3.0, 11.0):
        want = chowla_selberg_zeta(x, y, s)
        moved = (abs(chowla_selberg_zeta(math.nextafter(x, 1.0), y, s) - want)
                 + abs(chowla_selberg_zeta(x, math.nextafter(y, 1.0), s) - want))
        cond = moved / abs(want) / eps
        assert cond > 1000.0, (s, cond)
        got = spectral_zeta(UnitTorus(UpperHalfPoint(x, y)), s)
        assert abs(got - want) <= 2.5e-15 * abs(want), (s, cond)


def test_spectral_zeta_chowla_selberg_next_to_integer_orders():
    # s near 2 puts E_p at p = s and p = 1 - s next to an integer, and y >= 5
    # gives terms with pi Q < 1, where the textbook series
    # Gamma(1-p) z^(p-1) - sum ... loses about eps/|p - n|.
    for s in (1.999, 2.001, 2.0 + 1e-7, 2.999):
        for y in (5.0, 30.0, 300.0):
            want = chowla_selberg_zeta(0.3, y, s)
            got = spectral_zeta(UnitTorus(UpperHalfPoint(0.3, y)), s)
            assert abs(got - want) <= 1e-14 * abs(want), (s, y)


@pytest.mark.parametrize("p", (0.0, 1e-3, 0.5, 1.0 - 1e-8, 1.0 + 1e-8, 2.0 - 1e-3, 2.0 + 1e-3,
                               3.0 - 1e-6, 11.0, -1e-8, -0.5, -1.0 - 1e-7, -2.5, -9.7, -10.0))
def test_expint_matches_mpmath(p):
    # p spans -10 <= p <= 11, the orders s and 1 - s of spectral_zeta's range,
    # next to integers among them; z spans the oracle's pi Q, from
    # pi / ORACLE_Y_MAX to past the cut, with each continued-fraction edge.
    # At p = -9.7, z = 0.20926797804851613 the error is 9.85e-16 (the largest
    # found), so the documented bound is 1.2e-15.
    mpmath = pytest.importorskip("mpmath")
    zs = [float(z) for z in np.geomspace(math.pi / torus.ORACLE_Y_MAX, 41.5, 61)]
    zs += [math.nextafter(1.0, 0.0), *torus._CF_EDGES, 0.20926797804851613]
    with mpmath.workdps(30):
        for z in zs:
            want = mpmath.expint(p, z)
            assert abs(torus._expint(p, z) - want) <= 1.2e-15 * want, z


# The oracle's kernel as it was before its per-term costs were cut: a fresh
# exp, the continued fraction's constants rebuilt on every step, and E_p(1)
# recomputed for every z < 1.  The current kernel must keep its bits.
REFERENCE_CF_EDGES = (1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0,
                      24.0, 32.0)
REFERENCE_CF_DEPTHS = (119, 92, 80, 58, 51, 44, 39, 30, 25, 20, 18, 15, 13, 12, 11, 10)


def reference_expint(p: float, z: float) -> float:
    if p == 0.0:
        return math.exp(-z) / z
    if p < 0.0:
        k = math.ceil(-p)
        q, e_z = p + k, math.exp(-z)
        value = reference_expint(q, z)
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
                return z ** (p - 1.0) * reference_expint(p, 1.0) + total
            k += 1
            term *= -z / k
    depth = REFERENCE_CF_DEPTHS[bisect.bisect_right(REFERENCE_CF_EDGES, z) - 1]
    b, p1 = z + p - 2.0, p - 1.0
    t = b + 2.0 * depth + 2.0
    for k in map(float, range(depth, 0, -1)):
        t = b + (k + k) - k * (p1 + k) / t
    return math.exp(-z) / t


def reference_mellin_g(t: UnitTorus, s: float, routine: str) -> float:
    x, y, _, _, _, _ = numerics._reduce(t.tau.x, t.tau.y, routine)  # the oracle's lattice point
    p, qs = 1.0 - s, _q_values(x, y, math.log(1.0 / LATTICE_TAIL_TOL) / math.pi)
    return 2.0 * math.fsum(reference_expint(p, z) + reference_expint(s, z)
                           for z in [math.pi * q for q in qs])


def bits(values) -> list[bytes]:
    return [struct.pack("<d", v) for v in values]


def bit_taus() -> list[UnitTorus]:
    # 200 seeded taus over the oracle's domain, its y edges and x = +-1/2.
    rng = random.Random(20231)
    taus = [UpperHalfPoint(rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-4.0, 4.0))
            for _ in range(200)]
    taus += [UpperHalfPoint(x, y) for x in (-0.5, 0.5) for y in (1e-4, 1.07e-4, 9.3e3, 1e4)]
    return [UnitTorus(tau) for tau in taus]


def test_oracle_keeps_the_bits_of_the_reference_kernel(monkeypatch):
    taus = bit_taus()
    got = bits(logdet_oracle(t) for t in taus)
    monkeypatch.setattr(torus, "_mellin_g", reference_mellin_g)
    assert got == bits(logdet_oracle(t) for t in taus)


# At s = 1e-300 the order 1 - s rounds to 1.0, and at s = -1e-300 the step-down
# lands on q = 1.0, so the series reads _E1_OF_1 away from s = 0.
@pytest.mark.parametrize("s", (-10.0, -2.5, -1.0, -0.5, -1e-300, 1e-300, 0.5, 1.5, 2.0, 2.999,
                               3.0))
def test_spectral_zeta_keeps_the_bits_of_the_reference_kernel(monkeypatch, s):
    taus = bit_taus()
    got = bits(spectral_zeta(t, s) for t in taus)
    monkeypatch.setattr(torus, "_mellin_g", reference_mellin_g)
    assert got == bits(spectral_zeta(t, s) for t in taus)


@pytest.mark.parametrize("p", (0.0, 1e-3, 0.5, 1.0 - 1e-8, 1.0, 1.0 + 1e-8, 2.0, 2.5, 11.0,
                               -1e-8, -0.5, -1.0, -2.5, -10.0))
def test_expint_keeps_the_bits_of_the_reference_kernel(p):
    # At the series' edge and at each continued-fraction edge, on both sides.
    zs = [math.nextafter(1.0, 0.0)]
    for edge in torus._CF_EDGES:
        zs += [edge, math.nextafter(edge, 0.0)]
    assert bits(torus._expint(p, z) for z in zs) == bits(reference_expint(p, z) for z in zs)


# Lattices whose Q values repeat: square (i, 2^k i), hexagonal (rho) and
# x = +-1/2, where the oracle reuses the term of a repeated z.
SYMMETRIC_TAUS = ([UpperHalfPoint(0.0, 2.0 ** k) for k in range(14)]
                  + [UpperHalfPoint(x, y) for x, y in ((0.5, 0.8660254037844386), (0.5, 0.9),
                                                       (-0.5, 3.0))])


def test_oracle_keeps_the_bits_of_the_reference_kernel_where_q_repeats(monkeypatch):
    taus = [UnitTorus(tau) for tau in SYMMETRIC_TAUS]
    got = [bits([logdet_oracle(t), spectral_zeta(t, 0.0)]) + bits(compare_logdet(t.tau))
           for t in taus]
    monkeypatch.setattr(torus, "_mellin_g", reference_mellin_g)
    want = []
    for t in taus:
        closed, oracle = elliptic.d_ar_elliptic(t.tau), logdet_oracle(t)
        want.append(bits([oracle, spectral_zeta(t, 0.0), closed, oracle, oracle - closed]))
    assert got == want


def test_oracle_evaluates_each_distinct_lattice_term_once(monkeypatch):
    # 22 terms hold 8 distinct z at i and 18 hold 6 at rho; a generic tau
    # repeats none of its 19.  Each distinct z takes one exp.
    calls = []

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        @staticmethod
        def exp(x):
            calls.append(x)
            return math.exp(x)

    monkeypatch.setattr(torus, "math", CountingMath())
    for tau, count in ((UpperHalfPoint(0.0, 1.0), 8), (UpperHalfPoint(0.5, 0.8660254037844386), 6),
                       (UpperHalfPoint(0.3, 1.7), 19)):
        calls.clear()
        logdet_oracle(UnitTorus(tau))
        assert len(calls) == count, tau


def test_mellin_g_evaluates_e_p_of_1_only_where_a_term_reads_it(monkeypatch):
    # E_q(1) is read by the series, at the terms with pi Q < 1: 0.3 + 100i has
    # five, 0.3 + 1.7i none.  G(0) reads E_1(1) from the module constant, so
    # logdet_oracle and compare_logdet evaluate none; at other s each such
    # term evaluates it once per order (1 - s and s, or the order a negative
    # one steps down from), and a lattice without one evaluates none.
    calls = []
    expint = torus._expint

    def counted(p, z):
        if z == 1.0:
            calls.append(p)
        return expint(p, z)

    monkeypatch.setattr(torus, "_expint", counted)
    near, far = UpperHalfPoint(0.3, 100.0), UpperHalfPoint(0.3, 1.7)
    cut = math.log(1.0 / LATTICE_TAIL_TOL) / math.pi
    assert sum(math.pi * q < 1.0 for q in _q_values(0.3, 100.0, cut)) == 5
    assert not any(math.pi * q < 1.0 for q in _q_values(0.3, 1.7, cut))
    for tau in (near, far):
        logdet_oracle(UnitTorus(tau))
        compare_logdet(tau)
    assert calls == []
    for tau, s, orders in ((far, -2.5, []), (far, 0.5, []),
                           (near, -2.5, [0.5] * 5 + [3.5] * 5), (near, 0.5, [0.5] * 10)):
        calls.clear()
        spectral_zeta(UnitTorus(tau), s)
        assert sorted(calls) == orders, (tau, s)


def test_e1_of_1_is_the_kernel_value():
    # The module constant G(0)'s series reads is the value the kernel gave
    # when it evaluated E_1(1) on each call.
    assert bits([torus._E1_OF_1]) == bits([reference_expint(1.0, 1.0)])
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        want = mpmath.e1(1)
        assert abs(torus._E1_OF_1 - want) <= 1.2e-15 * want


def test_compare_logdet_is_both_public_routes_to_the_bit():
    # compare_logdet reduces tau once for both routes; no bit moves.  256
    # taus drawn as the benchmark's pool is (x in [-3, 3], log10 y in
    # [-2, 2]), its four corners, and 0.4 + 0.95i, reduced with y' < 1.
    rng = random.Random(36)
    taus = [UpperHalfPoint(rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-2.0, 2.0))
            for _ in range(256)]
    taus += [UpperHalfPoint(0.0, 1.0), UpperHalfPoint(0.5, 0.8660254037844386),
             UpperHalfPoint(0.0, 0.01), UpperHalfPoint(0.0, 100.0), UpperHalfPoint(0.4, 0.95)]
    assert math.sqrt(3.0) / 2.0 <= numerics._reduce(0.4, 0.95, "test")[1] < 1.0
    for tau in taus:
        closed, oracle = elliptic.d_ar_elliptic(tau), logdet_oracle(UnitTorus(tau))
        assert bits(compare_logdet(tau)) == bits((closed, oracle, oracle - closed)), tau


POOL_CSV = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "reference" / "torus.csv.gz"
# SHA-256 of compare_logdet's three doubles over the frozen pool, then the corners.
POOL_COMPARISON_SHA256 = "72d2578e69f640846f08ebeec3ea1792f39789804009ba989f5db05110ed304f"


def test_compare_logdet_keeps_its_bits_over_the_frozen_pool():
    # Every bit both routes give at the benchmark's 8196 frozen taus, then at
    # i, 2i, rho, 0.5 + i and the y edges.  A change that moves a bit on
    # purpose replaces the digest with the one the failure prints.
    with gzip.open(POOL_CSV, "rt", newline="") as f:
        taus = [UpperHalfPoint(float(row["x"]), float(row["y"])) for row in csv.DictReader(f)]
    assert len(taus) == 8196
    taus += [UpperHalfPoint(x, y) for x, y in ((0.0, 1.0), (0.0, 2.0), (0.5, 0.8660254037844386),
                                               (0.5, 1.0), (0.0, 1e-4), (0.3, 1e4))]
    digest = hashlib.sha256()
    for tau in taus:
        digest.update(struct.pack("<3d", *compare_logdet(tau)))
    assert digest.hexdigest() == POOL_COMPARISON_SHA256, f"new digest {digest.hexdigest()}"


@pytest.mark.parametrize("x, y", [(0.0, 1e5), (0.5, 0.25 / math.nextafter(1e4, math.inf))])
def test_compare_logdet_refuses_what_logdet_oracle_refuses(x, y):
    # The refusal names the caller's tau, not its reduced point.
    tau = UpperHalfPoint(x, y)
    limit = "needs a reduced y' <= 10000"
    with pytest.raises(ValueError) as oracle:
        logdet_oracle(UnitTorus(tau))
    with pytest.raises(ValueError) as both:
        compare_logdet(tau)
    assert str(oracle.value) == f"logdet_oracle(tau={tau!r}): {limit}"
    assert str(both.value) == f"compare_logdet(tau={tau!r}): {limit}"


def test_spectral_zeta_functional_equation():
    # Lambda(s) = pi^-s Gamma(s) (4 pi^2)^s zeta_tau(s) = Lambda(1 - s) for the
    # unit-area lattice; this reaches s < 1, on both sides of s = 1/2.
    def completed(torus, s):
        return math.pi ** -s * math.gamma(s) * FOUR_PI_SQ ** s * spectral_zeta(torus, s)

    taus = SAMPLE_TAUS[2:] + (TAU_I, UpperHalfPoint(0.1, 0.05), UpperHalfPoint(0.2, 30.0))
    for tau in taus:
        torus = UnitTorus(tau)
        for s in (-0.7, 0.2, 0.3, 0.45, 1.6, 2.5, 4.5, 7.5, 10.9):
            a, b = completed(torus, s), completed(torus, 1.0 - s)
            assert abs(a - b) <= 1e-12 * abs(b), (tau, s)


def test_spectral_zeta_outside_its_range_raises():
    # The range is the one checked here and against Chowla-Selberg; nothing
    # outside it is verified over the oracle's whole domain, nor next to the pole.
    for s in (11.5, 12.0, -10.5, -12.0, 0.96, 1.0, 1.04, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="spectral_zeta"):
            spectral_zeta(UnitTorus(TAU_I), s)
    assert spectral_zeta(UnitTorus(TAU_I), -10.0) == 0.0  # a trivial zero


def test_logdet_closed_frozen_values():
    assert abs(logdet_closed(TAU_I) - LOGDET_I) < 1e-12
    assert abs(logdet_closed(UpperHalfPoint(0.0, 2.0)) - LOGDET_2I) < 1e-12


def test_oracle_matches_closed_form():
    for tau in SAMPLE_TAUS:
        cmp = compare_logdet(tau)
        assert isinstance(cmp, DetComparison)
        assert cmp.difference == cmp.logdet_oracle - cmp.logdet_closed
        assert abs(cmp.difference) <= 1e-9


def test_torus_records_are_immutable_tuples():
    cmp = compare_logdet(TAU_I)
    assert cmp == (cmp.logdet_closed, cmp.logdet_oracle, cmp.difference)
    assert list(cmp._asdict()) == ["logdet_closed", "logdet_oracle", "difference"]
    t_torus = UnitTorus(TAU_I)
    assert repr(t_torus) == "UnitTorus(tau=UpperHalfPoint(x=0.0, y=1.0))"
    for obj, field in ((t_torus, "tau"), (cmp, "difference")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)


def test_oracle_matches_closed_form_over_its_domain():
    # y in [1e-4, 1e4] at any finite x, all in the oracle's domain (reduced
    # y' <= 1e4).  The large x need the exact shift by round(x) that starts
    # the reduction: n x on the raw x rounds away accuracy (gaps to 1.9e-9 for
    # |x| in [1e3, 1e5]) and overflows near 1e308.
    for x in (0.0, 0.2, 0.35, -0.5, 3.7, 33.3, 1000.3, 1e7 + 0.3, 2.0**52, 1e308, -1e300):
        for y in np.geomspace(1e-4, 1e4, 25):
            tau = UpperHalfPoint(x, float(y))
            closed = logdet_closed(tau)
            oracle = logdet_oracle(UnitTorus(tau))
            assert abs(oracle - closed) <= 1e-12 * max(1.0, abs(closed)), tau


def test_routes_agree_down_to_y_1e_minus_30():
    # Both routes run at the exactly reduced point, so the oracle checks the
    # closed form near the real axis too; a tau is refused exactly where its
    # reduced y' is above ORACLE_Y_MAX.
    rng = random.Random(20261019)
    for e in range(2, 31):
        for _ in range(20):
            tau = UpperHalfPoint(rng.uniform(-3.0, 3.0), 10.0 ** -e)
            if numerics._reduce(tau.x, tau.y, "test")[1] > torus.ORACLE_Y_MAX:
                message = f"compare_logdet(tau={tau!r}): needs a reduced y' <= 10000"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    compare_logdet(tau)
                continue
            cmp = compare_logdet(tau)
            assert abs(cmp.difference) <= 1e-12 * max(1.0, abs(cmp.logdet_closed)), tau


def test_each_route_is_invariant_on_exact_images():
    # 2^k i is reduced, and j + 2^k i, j + 2^-k i = j - 1/(2^k i) and
    # j - h + h i = j - 1/(2^k + 2^k i), h = 2^-(k+1) (|tau|^2 a power of two),
    # are its images, exact in doubles.  Both routes run at the exactly reduced
    # point alone, so each gives the same bits at every image: the closed form
    # for k < 40, the oracle within its domain.
    for k in range(40):
        base = UpperHalfPoint(0.0, 2.0 ** k)
        closed = logdet_closed(base)
        oracle = logdet_oracle(UnitTorus(base)) if 2.0 ** k <= torus.ORACLE_Y_MAX else None
        h = 2.0 ** -(k + 1)
        for j in (-3.0, -1.0, 0.0, 1.0, 2.0):
            for tau in (UpperHalfPoint(j, 2.0 ** k), UpperHalfPoint(j, 2.0 ** -k),
                        UpperHalfPoint(j - h, h)):
                assert logdet_closed(tau) == closed, (k, tau)
                if oracle is not None:
                    assert logdet_oracle(UnitTorus(tau)) == oracle, (k, tau)


def test_oracle_tight_tolerance_converges(monkeypatch):
    # The lattice cut is fixed at import; cuts for tail tolerances far below
    # the default take more Q terms and leave the result within an ulp.
    tau = UpperHalfPoint(0.3, 1.7)
    base = compare_logdet(tau)
    for tail_tol in (1e-25, 1e-30):
        monkeypatch.setattr(torus, "_Q_CUT", math.log(1.0 / tail_tol) / math.pi)
        cmp = compare_logdet(tau)
        assert abs(cmp.logdet_oracle - base.logdet_oracle) <= 2.3e-16, tail_tol
        assert abs(cmp.difference) <= 1e-12


def test_oracle_frozen_values():
    assert abs(logdet_oracle(UnitTorus(TAU_I)) - LOGDET_I) <= 1e-9
    assert abs(logdet_oracle(UnitTorus(UpperHalfPoint(0.0, 2.0))) - LOGDET_2I) <= 1e-9


def test_oracle_holds_no_cache_and_no_mutable_state():
    # The oracle's loop constants are module tuples and E_1(1), the Q cut and
    # the log det head floats, built at import, and what else it hoists lives
    # for one call: torus imports neither numpy nor functools (no lru_cache),
    # and each private table is a number or a tuple of numbers or tuples.
    tree = ast.parse(pathlib.Path(torus.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and not node.level}
    assert not {name.split(".")[0] for name in imported} & {"numpy", "functools"}

    def frozen(value):
        return isinstance(value, (int, float)) or (isinstance(value, tuple)
                                                   and all(map(frozen, value)))

    tables = {name: value for name, value in vars(torus).items()
              if name.startswith("_") and not name.startswith("__") and not callable(value)}
    assert set(tables) == {"_CF_EDGES", "_CF_DEPTHS", "_CF_STEPS", "_E1_OF_1", "_Q_CUT",
                           "_LOGDET_HEAD"}
    assert all(map(frozen, tables.values()))


def test_oracle_and_closed_form_share_no_kernel(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("one determinant route called the other's kernel")

    class Forbidden:
        """Stands in for an oracle helper or table: calling, indexing,
        iterating or sizing it fails."""

        __call__ = __getitem__ = __iter__ = __len__ = forbidden

    near_axis = UpperHalfPoint(0.3, 1e-5)  # y' ~ 1000, by the exact reduction alone
    closed = logdet_closed(near_axis)
    with monkeypatch.context() as m:
        for module in (numerics, elliptic):
            m.setattr(module, "log_abs_eta", forbidden)
            m.setattr(module, "_qseries", forbidden)
        assert abs(logdet_oracle(UnitTorus(TAU_I)) - LOGDET_I) <= 1e-9
        assert abs(logdet_oracle(UnitTorus(near_axis)) - closed) <= 1e-12 * max(1.0, abs(closed))
    private = {name for name in vars(torus) if name.startswith("_") and not name.startswith("__")}
    assert {"_q_values", "_expint", "_e_p", "_mellin_g_at", "_E1_OF_1", "_CF_EDGES", "_CF_DEPTHS",
            "_CF_STEPS"} <= private
    for name in private:
        monkeypatch.setattr(torus, name, Forbidden())
    assert abs(logdet_closed(TAU_I) - LOGDET_I) < 1e-12
    assert abs(elliptic.d_ar_elliptic(TAU_I) - LOGDET_I) < 1e-12


def _scaling_law(t: UnitTorus, g: float) -> float:
    """log det at the metric scaled by g^2, from the oracle's own spectrum:
    each eigenvalue scales by 1/g^2, so zeta_g(s) = g^(2s) zeta(s) and
    -zeta_g'(0) = log det - 2 log(g) zeta(0)."""
    return logdet_oracle(t) - 2.0 * math.log(g) * spectral_zeta(t, 0.0)


def test_oracle_metric_scale_is_the_exact_scaling_law():
    # A metric scale adds exactly 2 log(scale) to the oracle's log det,
    # however small or large: the oracle's zeta(0) is exactly -1.
    for tau in (UpperHalfPoint(0.3, 1e-4), TAU_I, UpperHalfPoint(0.5, 1e4)):
        t = UnitTorus(tau)
        base = logdet_oracle(t)
        assert spectral_zeta(t, 0.0) == -1.0, tau
        for g in (1e-200, 5e-4, 1e-3, 0.5, 2.0, 32.0, 64.0, 1e200):
            assert base + 2.0 * math.log(g) == _scaling_law(t, g), (tau, g)


@pytest.mark.parametrize("x, y", [(0.3, 1e300), (0.0, 1e5), (0.0, math.nextafter(1e4, math.inf)),
                                  (0.5, 0.25 / math.nextafter(1e4, math.inf)), (0.0, 1e-9)])
def test_oracle_refuses_taus_outside_its_domain(monkeypatch, x, y):
    # Refused before Q is enumerated: the Q set grows like sqrt(y') at the
    # reduced point (at y = 1e300 past numpy's largest array).  0.5 + 0.25i/Y
    # reduces to 0.5 + iY, Y one double above ORACLE_Y_MAX.
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle started on a refused tau")

    monkeypatch.setattr(torus, "_q_values", forbidden)
    t = UnitTorus(UpperHalfPoint(x, y))
    rest = re.escape(f"(tau={t.tau!r}): needs a reduced y' <= 10000")
    with pytest.raises(ValueError, match=f"^logdet_oracle{rest}$"):
        logdet_oracle(t)
    with pytest.raises(ValueError, match=f"^spectral_zeta{rest}$"):
        spectral_zeta(t, 0.0)


@pytest.mark.parametrize("x", (0.7, -2.5, 3.5, 33.3, 1000.3, 1e7 + 0.3, 2.0**52 + 1.0,
                               math.nextafter(2.0**53, math.inf), 1e308, -1e300))
def test_oracle_at_x_is_the_oracle_at_x_mod_1(x):
    # Z + tau Z is the lattice of tau + k, and x - round(x) is exact, so the
    # shift changes no bit.
    for y in (1e-4, 0.8660254037844386, 1e4):
        got = logdet_oracle(UnitTorus(UpperHalfPoint(x, y)))
        want = logdet_oracle(UnitTorus(UpperHalfPoint(x - round(x), y)))
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (x, y)


def test_oracle_reads_the_q_cut(monkeypatch):
    # The oracle reads the Q cut built from LATTICE_TAIL_TOL; the cut of a
    # loose tolerance moves the result and still lands close.
    default = logdet_oracle(UnitTorus(TAU_I))
    monkeypatch.setattr(torus, "_Q_CUT", math.log(1.0 / 1e-8) / math.pi)
    loose = logdet_oracle(UnitTorus(TAU_I))
    assert loose != default and abs(loose - LOGDET_I) <= 1e-6


@pytest.mark.parametrize("x", (-3.0, -0.5, 0.0, 0.3, 3.0))
@pytest.mark.parametrize("y", (1e-4, 0.01, 0.8660254037844386, 1.0, 7.0, 1e4))
def test_block_enumeration_equals_the_row_walk(x, y):
    # The oracle's half-lattice Q set, taken twice, must equal bit for bit a brute-force walk
    # that keeps every point of generous windows: two rows past |n| <= sqrt(qmax/y),
    # and in each row the m within sqrt(qmax y) + 2 of -n x, with no per-row
    # ellipse limits.  The row scalars are Python floats, as in _q_values.
    t = UnitTorus(UpperHalfPoint(x, y))
    for qmax in (0.3, 5.25, 34.0, 120.0):
        n_max, half = int(math.sqrt(qmax / y)) + 2, math.sqrt(qmax * y) + 2.0
        rows = []
        for n in range(-n_max, n_max + 1):
            nx, ny2 = n * x, (n * y) ** 2
            m = np.arange(math.floor(-nx - half), math.ceil(-nx + half) + 1.0)
            q = ((m + nx) ** 2 + ny2) / y
            rows.append(q[(q <= qmax) & ((m != 0.0) | (n != 0))])
        want = np.sort(np.concatenate(rows))
        assert lattice_q(t, qmax).tobytes() == want.tobytes(), qmax
