"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <nn> PASS|FAIL` line (run with `pytest -s`
to see them on success).  Stated runtime limits are asserted on warm timings
where given; the full suite targets well under two minutes.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from atlab import bounds, claims, elliptic, torus
from atlab.numerics import (
    LN_2PI,
    LN_2PI4,
    UpperHalfPoint,
    exp_integral_e1,
    log_abs_eta,
    zeta_em_deriv,
)


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def warm_best_of(fn, n: int = 3) -> float:
    fn()
    best = math.inf
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _heat_integral():
    return exp_integral_e1(0.25) / (4.0 * math.pi)


def _kappa():
    k = -24.0 * zeta_em_deriv(-1.0) + 1.0 - 6.0 * LN_2PI - 2.0 * math.log(2.0)
    return LN_2PI4 / 3.0 - (4.0 / 3.0) * LN_2PI - k / 6.0


# bounds evaluates its constants once, at import; the limits time the
# computations that define them, which must give the same bits.
def test_criterion_01_heat_integral():
    value = bounds.HEAT_INTEGRAL
    elapsed = warm_best_of(_heat_integral)
    ok = _heat_integral() == value and 0.0830 <= value <= 0.0832 and elapsed < 1e-3
    assert report(1, ok, f"E1(1/4)/(4pi) = {value:.7f} in [0.0830, 0.0832], "
                         f"{elapsed * 1e6:.0f} us")


def test_criterion_02_kappa():
    value = bounds.KAPPA
    elapsed = warm_best_of(_kappa)
    ok = _kappa() == value and abs(value - 0.5474277074) <= 1e-8 and elapsed < 1e-2
    assert report(2, ok, f"kappa = {value:.10f} vs 0.5474277074 "
                         f"(delta {value - 0.5474277074:+.2e}), {elapsed * 1e6:.0f} us")


def test_criterion_03_genus0():
    value = bounds.GENUS0_DET
    ok = abs(value - 2.46984) <= 1e-4
    assert report(3, ok, f"genus-0 determinant = {value:.6f} vs 2.46984")


def test_criterion_04_spectral_zeta_anchor():
    t0 = time.perf_counter()
    value = torus.spectral_zeta(torus.UnitTorus(UpperHalfPoint(0.0, 1.0)), 0.0)
    elapsed = time.perf_counter() - t0
    ok = abs(value - (-1.0)) <= 1e-6 and elapsed < 5.0
    assert report(4, ok, f"zeta(0) at tau=i: {value} (tol 1e-6), {elapsed:.2f} s")


def test_criterion_05_oracle_vs_closed_form():
    taus = ((0.0, 1.0), (0.0, 2.0), (0.5, 0.9), (0.3, 1.7))
    worst = 0.0
    ok = True
    for x, y in taus:
        t0 = time.perf_counter()
        cmp = torus.compare_logdet(UpperHalfPoint(x, y))
        elapsed = time.perf_counter() - t0
        worst = max(worst, abs(cmp.difference))
        ok = ok and abs(cmp.difference) <= 1e-6 and elapsed < 10.0
    assert report(5, ok, f"max |oracle - closed| = {worst:.2e} over {len(taus)} "
                         f"tori (tol 1e-6)")


def test_criterion_06_scaling_law():
    # The rerun is -d/ds of the gamma = 2 spectrum's zeta, 4^s zeta(s), at s = 0
    # (a central difference of the oracle's spectral zeta).
    t, h = torus.UnitTorus(UpperHalfPoint(0.0, 1.0)), 1e-4
    base = torus.logdet_oracle(t)
    rerun = -(4.0 ** h * torus.spectral_zeta(t, h)
              - 4.0 ** -h * torus.spectral_zeta(t, -h)) / (2.0 * h)
    diff = rerun - (base + 2.0 * math.log(2.0))
    ok = abs(diff) <= 1e-6
    assert report(6, ok, f"gamma=2 rerun vs 2 log 2 shift: delta = {diff:.2e} "
                         f"(tol 1e-6)")


def test_criterion_07_modular_invariance():
    rng = np.random.default_rng(1234)
    worst_inv = 0.0
    shift_exact = True
    for _ in range(1000):
        x = float(rng.uniform(-5.0, 5.0))
        y = float(rng.uniform(0.05, 50.0))
        logdet = torus.logdet_closed(UpperHalfPoint(x, y))
        # T at x0 = (x + 1) - 1, for which x0 + 1 is a float: x + 1.0 itself may round.
        shifted = x + 1.0
        x0 = shifted - 1.0
        shift_exact &= (torus.logdet_closed(UpperHalfPoint(shifted, y))
                        == torus.logdet_closed(UpperHalfPoint(x0, y)))
        norm = x * x + y * y
        inv = torus.logdet_closed(UpperHalfPoint(-x / norm, y / norm))
        worst_inv = max(worst_inv, abs(inv - logdet))
    ok = shift_exact and worst_inv <= 1e-10
    assert report(7, ok, f"1000 samples: shift exact = {shift_exact}, "
                         f"max inversion error = {worst_inv:.2e} (tol 1e-10)")


def test_criterion_08_elliptic_bound_and_qprod():
    rng = np.random.default_rng(5678)
    bound_ok = qprod_ok = True
    min_slack = math.inf
    for _ in range(1000):
        tau = UpperHalfPoint(float(rng.uniform(-0.5, 0.5)),
                             float(rng.uniform(0.05, 100.0)))
        slack = elliptic.elliptic_upper_bound_log(tau) - elliptic.arakelov_logdet(tau)
        min_slack = min(min_slack, slack)
        bound_ok &= slack > 0.0
        # the q-product inequality, on the printed slack 3/(pi y) - 6 log|prod|
        minus_2pi_y = -2.0 * math.pi * tau.y
        rhs = math.exp(minus_2pi_y) / -math.expm1(minus_2pi_y)
        qprod_ok &= elliptic.bound_slack(tau) >= 3.0 / (math.pi * tau.y) - 6.0 * rhs
    ok = bound_ok and qprod_ok
    assert report(8, ok, f"1000 samples: bound strict (min slack {min_slack:.3e}), "
                         f"qprod lhs <= rhs = {qprod_ok}")


def test_criterion_09_sweep_claims():
    t0 = time.perf_counter()
    ok = True
    for g in range(11, 3581):
        e_ref = bounds.e_of_g(g)
        ok &= e_ref < 0.44 * g and 0.56 * g + e_ref <= g
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    assert report(9, ok, f"E(g) < 0.44g and 0.56g + E(g) <= g for g in "
                         f"[11, 3580], {elapsed:.2f} s")


def test_criterion_10_table_audit():
    rows = bounds.table(2, 10, "exact", "c36")
    deltas = {row.breakdown.genus: row.delta for row in rows}
    ok = all(abs(d) <= 0.75 for d in deltas.values())
    detail = ", ".join(f"g={g}: {d:+.3f}" for g, d in deltas.items())
    assert report(10, ok, f"per-row deltas vs listed values (tol 0.75): {detail}")


def test_criterion_11_corollary_audit():
    slope = bounds.FQ_GAP_SLOPE
    slope_ok = abs(slope - 1.933721640489272) <= 1e-9
    report_map = {rec.id: rec for rec in claims.run_all(
        only=["CL-12", "CL-13", "CL-14"]).records}
    const_ok = (report_map["CL-12"].status == "DISCREPANT"
                and abs(report_map["CL-12"].delta - 1.8378775) < 1e-3)
    g1_ok = (report_map["CL-14"].status == "DISCREPANT"
             and abs(report_map["CL-14"].delta - (-0.005)) < 1e-9)
    ok = slope_ok and report_map["CL-13"].status == "CONFIRMED" and const_ok and g1_ok
    assert report(11, ok, f"slope {slope:.15f} (tol 1e-9); printed constant "
                          f"flagged DISCREPANT (delta {report_map['CL-12'].delta:+.4f}); "
                          f"g=1 value flagged DISCREPANT (delta "
                          f"{report_map['CL-14'].delta:+.4f})")


def test_criterion_12_claim_report():
    first = claims.run_all()
    second = claims.run_all()
    n_records = len(first.records)
    errored = first.summary["errored"]
    identical = first.to_json() == second.to_json()
    strict = first.strict_ok()
    ok = n_records >= 21 and errored == 0 and identical and strict
    assert report(12, ok, f"{n_records} records, {errored} errored, "
                          f"bit-identical reruns = {identical}, strict ok = {strict}")
    # the serialized form is valid JSON with the documented shape
    payload = json.loads(first.to_json())
    assert set(payload) == {"precision", "claims", "summary", "warnings"}
