"""Claim registry and audit report behavior."""

from __future__ import annotations

import json
import math
import re
import types

import pytest

from atlab import bounds, claims, elliptic, numerics, torus
from atlab.claims import (
    EXPECTED_DISCREPANT,
    builtin_registry,
    evaluate,
    run_all,
)


def registry_by_id():
    return {c.id: c for c in builtin_registry()}


def test_registry_size_and_ids():
    registry = builtin_registry()
    ids = [c.id for c in registry]
    assert len(ids) == len(set(ids))
    assert len(registry) >= 21
    assert {f"CL-10-g{g}" for g in range(2, 11)} <= set(ids)
    assert "CL-19-statement" in ids


def test_registry_claimed_values():
    reg = registry_by_id()
    assert reg["CL-05"].claimed == 0.5474277074
    assert reg["CL-10-g3"].claimed == 9.76363
    assert reg["CL-13"].claimed == 1.933721640489272


def test_allowlist_ids_exist():
    ids = {c.id for c in builtin_registry()}
    assert set(EXPECTED_DISCREPANT) <= ids


def test_evaluate_heat_integral_claim():
    rec = evaluate(registry_by_id()["CL-01"])
    assert rec.status == "CONFIRMED"
    assert abs(rec.computed - 0.0831014) < 2e-6


def test_evaluate_corollary_constant_claim():
    rec = evaluate(registry_by_id()["CL-12"])
    assert rec.status == "DISCREPANT"
    assert abs(rec.delta - 1.8378775) < 1e-3  # the dropped log 2pi


def test_evaluate_assumed_inputs_claim():
    rec = evaluate(registry_by_id()["CL-21"])
    assert rec.status == "ASSUMED"
    assert rec.computed is None


def test_evaluate_errored_is_contained():
    claim = registry_by_id()["CL-01"]
    rec = evaluate(claim._replace(compute=lambda: 1 / 0))
    assert rec.status == "ERRORED"
    assert "error" in rec.computed


def test_run_all_statuses():
    report = run_all()
    by_status = {}
    for rec in report.records:
        by_status.setdefault(rec.status, set()).add(rec.id)
    assert by_status["DISCREPANT"] == {"CL-11", "CL-12", "CL-14", "CL-19-statement"}
    assert by_status["AMBIGUOUS"] == {"CL-20"}
    assert by_status["ASSUMED"] == {"CL-21"}
    assert "ERRORED" not in by_status
    assert report.summary["confirmed"] == len(report.records) - 6
    assert report.summary["errored"] == 0
    assert report.strict_ok()


def test_run_all_is_ordered_by_id():
    report = run_all()
    ids = [rec.id for rec in report.records]
    g_rows = [i for i in ids if i.startswith("CL-10-")]
    assert g_rows == [f"CL-10-g{g}" for g in range(2, 11)]
    assert ids.index("CL-09") < ids.index("CL-10-g2") < ids.index("CL-11")


def test_run_all_deterministic_serialization():
    a = run_all().to_json()
    b = run_all().to_json()
    assert a == b


def test_registry_is_built_once(monkeypatch):
    # The registry depends on no input, so a run evaluates the claims built at
    # import and constructs none; builtin_registry hands out fresh lists of them.
    built, claim = [], claims.Claim

    def counting(*args, **kwargs):
        built.append(args[0])
        return claim(*args, **kwargs)

    monkeypatch.setattr(claims, "Claim", counting)
    run_all()
    run_all(only=["CL-10-g3", "CL-17"])
    assert built == []
    first, second = builtin_registry(), builtin_registry()
    assert first is not second and len(first) == len(second) == 30
    assert all(a is b for a, b in zip(first, second))


def test_cl17_looks_up_spectral_zeta_when_it_runs(monkeypatch):
    # Built once, CL-17 still calls whatever torus.spectral_zeta is at run time.
    def broken(t, s):
        raise ArithmeticError("patched")

    monkeypatch.setattr(torus, "spectral_zeta", broken)
    rec = run_all(only=["CL-17"]).records[0]
    assert (rec.status, rec.computed) == ("ERRORED", "error: patched")


def test_allowlist_is_exactly_the_discrepant_claims(monkeypatch):
    report = run_all()
    assert {rec.id for rec in report.records
            if rec.status == "DISCREPANT"} == set(EXPECTED_DISCREPANT)
    assert report.warnings == ()
    # A small-genus row pushed past its 0.75 tolerance is not allowlisted.  The
    # registry reads the printed rows once, at import, so the push moves the
    # recomputed side, which each run looks up afresh.
    exact = bounds.upper_bound_logdet(5).upper_exact
    monkeypatch.setattr(bounds, "upper_bound_logdet",
                        lambda g: types.SimpleNamespace(upper_exact=exact - 2.0))
    report = run_all(only=["CL-10-g5"])
    assert report.records[0].status == "DISCREPANT"
    assert not report.strict_ok()


def allowlisting(monkeypatch, claim_id):
    """Add claim_id to the strict-mode allowlist for the test's duration."""
    monkeypatch.setattr(claims, "EXPECTED_DISCREPANT", (*EXPECTED_DISCREPANT, claim_id))


def test_confirmed_allowlisted_rows_warn(monkeypatch):
    allowlisting(monkeypatch, "CL-05")
    assert run_all().warnings == (
        "CL-05: listed in the expected-discrepant allowlist but CONFIRMED",)


def test_run_subset_and_unknown_id():
    report = run_all(only=["CL-05"])
    assert len(report.records) == 1
    assert report.records[0].id == "CL-05"
    assert report.records[0].status == "CONFIRMED"
    with pytest.raises(KeyError):
        run_all(only=["CL-05", "CL-99"])


def test_empty_subset_is_refused():
    # An empty filter would give a report with no records whose strict_ok()
    # is True: an audit that passes without checking anything.
    for only in ([], ()):
        with pytest.raises(ValueError, match=rf"^run_all\(only={re.escape(repr(only))}\): "
                                             r"needs at least one claim id$"):
            run_all(only=only)


def test_report_json_shape():
    report = run_all(only=["CL-05", "CL-12"])
    payload = json.loads(report.to_json())
    assert set(payload) == {"precision", "claims", "summary", "warnings"}
    # the fixed truncations; the oracle is a finite sum and has no tolerance
    assert payload["precision"] == {"series_tail_tol": numerics.QSERIES_TAIL_TOL,
                                    "em_cutoff": numerics.EM_CUTOFF,
                                    "em_order": numerics.EM_ORDER,
                                    "lattice_tail_tol": torus.LATTICE_TAIL_TOL}
    assert set(payload["summary"]) == {
        "confirmed", "discrepant", "assumed", "ambiguous", "errored"}
    for rec in payload["claims"]:
        assert set(rec) == {"id", "location", "quote", "kind", "claimed",
                            "computed", "delta", "status"}
    # round trip
    assert json.loads(json.dumps(payload)) == payload


# Scalar leaves the report writer must encode as json.dumps does.
ODD_LEAVES = (math.nan, math.inf, -math.inf, -0.0, 0.0, None, 0, -7, 2**64, 1e-320,
              True, "caf\u00e9 \u2264 \U0001d70b", "\x1f", "a\x1fb", ", ", '"q"',
              "back\\slash", "new\nline\r\t", "", "{}", "[1, 2]", "\ud800")


def hand_built_report(leaves, warnings):
    """A ClaimReport whose records carry `leaves` in their first seven fields,
    each with the next status of STATUSES."""
    leaves = list(leaves) + [None] * (-len(leaves) % 7)
    records = [claims.ClaimRecord(*leaves[i:i + 7], claims.STATUSES[i % 5])
               for i in range(0, len(leaves), 7)]
    return claims.ClaimReport(tuple(records), tuple(warnings))


def test_report_json_is_the_indented_json_dumps_text(monkeypatch):
    allowlisting(monkeypatch, "CL-10-g2")
    reports = [run_all(), run_all(only=["CL-05", "CL-12"]), run_all(only=["CL-10-g2"]),
               claims.ClaimReport((), ()),
               hand_built_report(ODD_LEAVES, [w for w in ODD_LEAVES if isinstance(w, str)]),
               hand_built_report(ODD_LEAVES[::-1], ()), hand_built_report((), ["only"])]
    assert not reports[1].warnings and reports[2].warnings
    for report in reports:
        assert report.to_json() == json.dumps(report.as_dict(), indent=2)


def test_claims_and_records_are_tuples():
    claim = registry_by_id()["CL-05"]
    assert claim == tuple(claim) and claim[0] == "CL-05"
    assert claim.status_override is None
    rec = evaluate(claim)
    assert list(rec._asdict()) == ["id", "location", "quote", "kind", "claimed",
                                   "computed", "delta", "status"]
    assert rec == claims.ClaimRecord(*rec)
    report = run_all(only=["CL-05"])
    assert report == (report.records, report.warnings)


def test_cl19_is_not_confirmed_when_the_bound_lies_below_the_logdet(monkeypatch):
    # The grid is certified from the proof; the eta-evaluated cross-check
    # still sees an assembled bound that does not dominate the log det.
    monkeypatch.setattr(elliptic, "elliptic_upper_bound_log",
                        lambda tau: elliptic.arakelov_logdet(tau) - 1.0)
    rec = run_all(only=["CL-19"]).records[0]
    assert rec.status == "DISCREPANT"
    assert rec.computed.startswith("3 violations over 500 y in [0.05, 100] ")


@pytest.mark.parametrize("allowance, status", [(0.148, "CONFIRMED"), (0.150, "DISCREPANT")])
def test_cl19_premise_is_its_least_relative_margin(monkeypatch, allowance, status):
    # The proof's premise is judged at y = 0.05, where the relative margin
    # 1 - 6|q|/((1-|q|) 3/(pi y)) is least on the grid (0.14887): a rounding
    # allowance of 16 eps just above it fails the premise, one just below not.
    float_info = types.SimpleNamespace(epsilon=allowance / 16.0)
    monkeypatch.setattr(claims, "sys", types.SimpleNamespace(float_info=float_info))
    report = run_all(only=["CL-19"])
    rec = report.records[0]
    assert rec.status == status and rec.delta is None
    assert report.strict_ok() == (status == "CONFIRMED")
    if status == "CONFIRMED":
        assert rec.computed.startswith("0 violations over 500 y in [0.05, 100] ")
    else:
        assert rec.computed == ("proof premise failed (3/(pi y) - 6|q|/(1-|q|) > "
                                "16 eps 3/(pi y) at y = 0.05): relative margin = 0.148868")


SWEEP_G_RANGE = range(11, 3581)  # the genera CL-08 and CL-09 print


@pytest.mark.parametrize("claim_id, margin", [
    ("CL-08", lambda g: 0.44 * g - bounds.e_of_g(g)),
    ("CL-09", lambda g: g - bounds.upper_bound_logdet(g, "simplified").upper_simplified),
])
def test_sweep_records_match_per_genus_minimum(claim_id, margin):
    # Independent oracle: the margin genus by genus through the scalar API.
    worst_g = min(SWEEP_G_RANGE, key=margin)
    rec = evaluate(registry_by_id()[claim_id])
    assert rec.status == "CONFIRMED"
    assert type(rec.delta) is float and rec.delta == margin(worst_g)
    assert rec.computed.startswith("0 violations over g in [11, 3580]")
    assert rec.computed.endswith(f"= {rec.delta:.6f} at g = {worst_g}")


def test_sweep_counts_violations():
    # A margin that fails on part of the range is caught at g = 11, where the
    # proof puts the minimum, and reported as the failed premise.
    computed, worst, passed = claims._sweep(lambda g: g - 20.0, "g - 20")
    assert computed == ("proof premise failed (log 1366 > 7 and margin(11) > 0): "
                        "margin(11) = g - 20 = -9.000000")
    assert worst == -9.0 and not passed


def full_sweep(margin_of_g, label):
    """The certificate's reference: the margin at every genus of the printed range."""
    genera = SWEEP_G_RANGE
    margins = [margin_of_g(g) for g in genera]
    worst = min(margins)
    computed = (f"{sum(m <= 0.0 for m in margins)} violations over g in "
                f"[{genera[0]}, {genera[-1]}]; min margin {label} = {worst:.6f} "
                f"at g = {genera[margins.index(worst)]}")
    return computed, worst, worst > 0.0


def sweep_margins(monkeypatch):
    """{claim id: (margin, label)} as CL-08 and CL-09 hand them to _sweep."""
    margins = {}
    with monkeypatch.context() as m:
        for claim_id in ("CL-08", "CL-09"):
            m.setattr(claims, "_sweep", lambda margin, label, cid=claim_id:
                      margins.setdefault(cid, (margin, label)))
            registry_by_id()[claim_id].compute()
    return margins


def counted(margin_of_g, calls):
    """margin_of_g that records each genus it is called with."""
    def margin(g):
        calls.append(g)
        return margin_of_g(g)
    return margin


def test_sweep_certificate_gives_the_full_sweep_record(monkeypatch):
    for claim_id, (margin, label) in sweep_margins(monkeypatch).items():
        calls = []
        got = claims._sweep(counted(margin, calls), label)
        assert got == full_sweep(margin, label), claim_id
        assert got == registry_by_id()[claim_id].compute()
        assert calls == [11] and type(calls[0]) is int


def test_sweep_margins_increase(monkeypatch):
    # The proof's conclusion, in floats: strictly increasing on [4, 3580]
    # (the lemma's range) and on log-spaced genera up to 2**53.
    spaced = sorted({round(4.0 * (bounds.MAX_GENUS / 4.0) ** (i / 399)) for i in range(400)})
    assert spaced[-1] == bounds.MAX_GENUS
    for claim_id, (margin, _) in sweep_margins(monkeypatch).items():
        for genera in (range(4, 3581), spaced):
            margins = list(map(margin, genera))
            assert all(a < b for a, b in zip(margins, margins[1:])), claim_id


@pytest.mark.parametrize("offset, violations", [
    (10.5, 0), (11, 1), (20, 10), (3580, 3570), (4000, 3570)])
def test_sweep_premise_verdict_matches_brute_force(offset, violations):
    # The certificate's verdict is the brute-force "no violations", from the
    # margin at g = 11 alone; a failing premise is named, not searched.
    assert sum(g - offset <= 0 for g in SWEEP_G_RANGE) == violations
    calls = []
    computed, worst, passed = claims._sweep(counted(lambda g: g - offset, calls), "g - m")
    assert passed == (violations == 0) == full_sweep(lambda g: g - offset, "g - m")[2]
    assert worst == 11 - offset and calls == [11]
    if passed:
        assert computed == "0 violations over g in [11, 3580]; min margin g - m = 0.500000 at g = 11"
    else:
        assert computed == ("proof premise failed (log 1366 > 7 and margin(11) > 0): "
                            f"margin(11) = g - m = {11 - offset:.6f}")


def test_sweep_claims_are_discrepant_when_margin_11_is_not_positive(monkeypatch):
    e_of_g = bounds.e_of_g
    monkeypatch.setattr(bounds, "e_of_g", lambda g: e_of_g(g) + 0.44 * 11)
    report = run_all(only=["CL-08"])
    rec = report.records[0]
    assert rec.status == "DISCREPANT" and rec.delta <= 0.0
    assert rec.computed.startswith("proof premise failed")
    assert "margin(11) = 0.44g - E(g) = " in rec.computed
    assert not report.strict_ok()


@pytest.mark.parametrize("scale, status", [
    (1.0 + 1e-11, "DISCREPANT"), (1.0 + 1e-13, "CONFIRMED")])
def test_cl18_judges_the_routes_relative_gap(monkeypatch, scale, status):
    # The closed form scaled at 2i alone (|log det| = 1.40 there), where
    # compare_logdet reads it: the gap relative to max(1, |closed|) is
    # scale - 1, against torus.AGREEMENT_TOL.
    d_ar_at = torus._d_ar_at
    monkeypatch.setattr(torus, "_d_ar_at",
                        lambda x, y: d_ar_at(x, y) * (scale if y == 2.0 else 1.0))
    rec = run_all(only=["CL-18"]).records[0]
    assert rec.status == status
    assert rec.delta == pytest.approx(scale - 1.0, rel=0.01)


def test_cl18_is_the_comparisons_worst_relative_gap_to_the_bit():
    # CL-18 reads torus-det --method both's comparison at i and 2i.
    rec = run_all(only=["CL-18"]).records[0]
    worst = max(torus.compare_logdet(numerics.UpperHalfPoint(0.0, 1.0)).relative_gap,
                torus.compare_logdet(numerics.UpperHalfPoint(0.0, 2.0)).relative_gap)
    assert rec.computed.hex() == worst.hex()
    assert rec.status == "CONFIRMED"


def test_asymptote_excesses_match_scalar_bounds():
    rec = evaluate(registry_by_id()["CL-11"])
    for g in claims.ASYMPTOTE_SAMPLES:
        excess = (bounds.upper_bound_logdet(g).upper_exact
                  - (bounds.PAPER_KAPPA * g + 1.0))
        assert f"excess at g={g}: {excess:+.4f}" in rec.computed
    assert rec.delta == bounds.upper_bound_logdet(3580).upper_exact - (
        bounds.PAPER_KAPPA * 3580 + 1.0)


def test_asymptote_text_states_the_sign_change():
    # The printed slope lies above the true kappa, so the printed line overtakes
    # the assembled bound at large genus: "no genus satisfies" is false.
    assert bounds.KAPPA < bounds.PAPER_KAPPA
    g = 10**10
    assert bounds.upper_bound_logdet(g).upper_exact - (bounds.PAPER_KAPPA * g + 1.0) < 0.0
    rec = evaluate(registry_by_id()["CL-11"])
    assert rec.status == "DISCREPANT"
    assert "no genus satisfies" not in rec.computed
    assert "turns negative" in rec.computed
    # Same numbers, in the same order, as before: the three excesses and the 1.
    numbers = re.findall(r"[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?", rec.computed)
    excess = {g: bounds.upper_bound_logdet(g).upper_exact - (bounds.PAPER_KAPPA * g + 1.0)
              for g in claims.ASYMPTOTE_SAMPLES}
    assert numbers == [x for g, e in excess.items() for x in (str(g), f"{e:+.4f}")] + ["1"]


def test_equality_claims_state_their_value_and_tolerance_once(monkeypatch):
    # Every compute returns (computed, delta, passed).  A float claim's value
    # and tolerance live in its _equality line only: delta is computed -
    # claimed, and the verdict is |delta| <= tolerance, inclusive at the edge.
    registry = builtin_registry()
    assert len(registry) == 30
    checked = 0
    for claim in registry:
        result = claim.compute()
        assert type(result) is tuple and len(result) == 3, claim.id
        if not isinstance(claim.claimed, float):
            continue
        rec = evaluate(claim)
        assert (rec.computed, rec.delta) == result[:2], claim.id
        assert rec.delta == rec.computed - claim.claimed, claim.id
        edge = abs(rec.delta)
        for tolerance, status in ((edge, "CONFIRMED"),
                                  (math.nextafter(edge, 0.0), "DISCREPANT")):
            if edge == 0.0 and status == "DISCREPANT":
                continue  # CL-13 and CL-17 are exact: no tolerance lies below 0
            rebuilt = claims._equality(claim.id, claim.location, claim.quote,
                                       claim.claimed, tolerance, lambda: rec.computed)
            assert evaluate(rebuilt).status == status, claim.id
        checked += 1
    assert checked == 19
    # CL-18 judges its own gap against torus.AGREEMENT_TOL, read when it runs.
    gap = evaluate(registry_by_id()["CL-18"]).delta
    for tolerance, status in ((gap, "CONFIRMED"), (math.nextafter(gap, 0.0), "DISCREPANT")):
        monkeypatch.setattr(torus, "AGREEMENT_TOL", tolerance)
        assert evaluate(registry_by_id()["CL-18"]).status == status
