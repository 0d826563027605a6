"""Genus-bound pipeline: per-term values, assembled bounds, sweeps, and the
two corollary readings (the derivation reading is computed here).  Frozen
digits from 30-decimal evaluation of the printed formulas."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from atlab import bounds
from atlab.bounds import (
    AREA_VARIANTS,
    BOUND_FORMS,
    MAX_TABLE_ROWS,
    PAPER_KAPPA,
    PAPER_TABLE_VALUES,
    REFINED_E_CONSTANT,
    BoundBreakdown,
    TableRow,
    e_of_g,
    table,
    upper_bound_logdet,
    wilms_lower,
)
from atlab.numerics import LN_2PI, LN_2PI4, ZETA_PRIME_MINUS1, exp_integral_e1

K_CONST = -7.4434493107651412
KAPPA = 0.54742770456757823
A_1 = -14.703016531274764
A_2 = -21.962583751784387
HEAT_TERM_2 = 0.5221413172218691
CSEL_2 = -28.878568160522941
MRB_EXACT_2 = 14.575131036363449
MRB_SIMPLIFIED_2 = 15.439284080261471
LA_C36_2 = 18.022803018717581
LA_E4PI_2 = 17.970308327230762
LA_C36_10 = 6.1992709210130829
WILMS_1 = -10.544133447915092
EG_REFINED_2 = 16.387721695133947
EG_SIMPLE_3 = 8.3112840476823189
EG_REFINED_11 = 3.6972855127074233
UPPER_EXACT_2 = 17.877083542725214
UPPER_EXACT_10 = 10.432973081561342
UPPER_SIMPLIFIED_11 = 9.8572855127074233
GENUS0 = 2.4698440246274851
SLOPE_AS_STATED = 1.9337216404892726
CONST_AS_STATED = -2.4351792476911674
FQ_DERIVATION_G1 = -2.9826069522587457

TABLE_DELTAS = {
    2: -0.133918, 3: 0.189937, 4: 0.268539, 5: 0.299024, 6: 0.313799,
    7: 0.321966, 8: 0.326908, 9: 0.330081, 10: 0.332273,
}


def test_heat_integral_bracket():
    v = bounds.HEAT_INTEGRAL
    assert 0.0830 <= v <= 0.0832
    assert abs(v - 0.0831013716283738) < 1e-12


def test_heat_term():
    assert abs(upper_bound_logdet(2).heat_term - HEAT_TERM_2) < 1e-12
    assert abs(upper_bound_logdet(10**9).heat_term - 1.0442826344437382) < 1e-8  # factor -> 1
    assert abs(upper_bound_logdet(3).heat_term / (4.0 * math.pi * (1 - 1 / 3))
               - bounds.HEAT_INTEGRAL) < 1e-15
    with pytest.raises(ValueError):
        upper_bound_logdet(1)


def test_csel_lower():
    csel_2 = upper_bound_logdet(2).csel_lower
    assert abs(csel_2 - CSEL_2) < 1e-11
    assert abs(upper_bound_logdet(1367).csel_lower - 2.0 * csel_2) < 1e-10  # -8 log 1366
    values = [upper_bound_logdet(g).csel_lower for g in range(2, 40)]
    assert all(a > b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        upper_bound_logdet(0)


def test_metric_ratio_bound():
    bd = upper_bound_logdet(2)
    assert abs(bd.metric_ratio_bound_exact - MRB_EXACT_2) < 1e-11
    assert abs(bd.metric_ratio_bound_simplified - MRB_SIMPLIFIED_2) < 1e-11


def test_metric_ratio_exact_below_simplified_sweep():
    for bd in map(upper_bound_logdet, range(2, 5001)):
        assert bd.metric_ratio_bound_exact <= bd.metric_ratio_bound_simplified, bd.genus


def test_metric_ratio_large_g_limit():
    # exact -> E1(1/4) - log 4 ~= -0.342012
    assert abs(upper_bound_logdet(10**7).metric_ratio_bound_exact
               - (-0.34201172667615242)) < 1e-6


def test_log_area_bound():
    assert abs(upper_bound_logdet(2, "exact", "c36").log_area_bound - LA_C36_2) < 1e-11
    assert abs(upper_bound_logdet(2, "exact", "e4pi").log_area_bound - LA_E4PI_2) < 1e-11
    assert abs(upper_bound_logdet(10).log_area_bound - LA_C36_10) < 1e-11
    with pytest.raises(ValueError):
        upper_bound_logdet(2, "exact", "bogus")


def test_log_area_e4pi_below_c36_sweep():
    # 4 pi e ~= 34.159 < 36, so e4pi is the tighter chain everywhere.
    for g in range(2, 5001):
        assert (upper_bound_logdet(g, "exact", "e4pi").log_area_bound
                < upper_bound_logdet(g, "exact", "c36").log_area_bound), g


def test_k_const_and_a_of_g():
    assert abs(bounds.K_CONST - K_CONST) < 1e-12
    # a(g) = -8 g log 2pi + (1 - g) K at g = 1, a genus the pipeline refuses
    a_1 = -8.0 * 1.0 * LN_2PI + (1.0 - 1.0) * bounds.K_CONST
    assert abs(a_1 - A_1) < 1e-12
    assert abs(upper_bound_logdet(2).a_g - A_2) < 1e-12


def test_wilms_lower():
    assert abs(wilms_lower(1) - WILMS_1) < 1e-12
    assert wilms_lower(3) == 3.0 * wilms_lower(1)
    assert all(wilms_lower(g) < 0.0 for g in range(1, 20))
    with pytest.raises(ValueError):
        wilms_lower(0)


def test_kappa():
    assert abs(bounds.KAPPA - KAPPA) < 1e-12
    assert abs(bounds.KAPPA - PAPER_KAPPA) <= 1e-8
    assert 0.0 < bounds.KAPPA < 0.56


def test_e_of_g():
    assert abs(e_of_g(2) - EG_REFINED_2) < 1e-11
    assert abs(upper_bound_logdet(3).e_g_simple - EG_SIMPLE_3) < 1e-11
    assert abs(e_of_g(11) - EG_REFINED_11) < 1e-11
    with pytest.raises(ValueError):
        e_of_g(1)


def test_refined_variant_is_canonical_at_g11():
    # The simple variant first beats 0.44 g at g = 12, the refined at g = 11.
    assert e_of_g(11) < 0.44 * 11
    assert upper_bound_logdet(11).e_g_simple > 0.44 * 11
    assert upper_bound_logdet(12).e_g_simple < 0.44 * 12


def test_upper_bound_breakdown():
    bd = upper_bound_logdet(2, "exact", "c36")
    assert abs(bd.upper_exact - UPPER_EXACT_2) < 1e-11
    assert abs(bd.upper_simplified - (0.56 * 2 + EG_REFINED_2)) < 1e-11
    # breakdown invariants
    assert abs(bd.heat_term - 4.0 * math.pi * (1 - 0.5) * bd.heat_integral) < 1e-12
    assert abs(bd.upper_simplified - (0.56 * bd.genus + bd.e_g_refined)) < 1e-12
    assert abs(bd.upper_exact
               - ((math.log(2.0) + 4.0 * math.log(math.pi)) / 3.0 * bd.genus
                  + bd.a_g / 6.0 + bd.log_area_bound)) < 1e-12
    assert abs(upper_bound_logdet(10).upper_exact - UPPER_EXACT_10) < 1e-11
    assert abs(upper_bound_logdet(11).upper_simplified - UPPER_SIMPLIFIED_11) < 1e-11
    with pytest.raises(ValueError):
        upper_bound_logdet(1)
    with pytest.raises(ValueError):
        upper_bound_logdet(2, "bogus")


def test_assembled_bound_checks_form_and_area_for_both_forms():
    # The assembled bound's two forms are fields of one breakdown, built after
    # upper_bound_logdet has checked both options; upper_simplified ignores
    # only the area variant's value.
    assert (upper_bound_logdet(5, "simplified", "e4pi").upper_simplified
            == upper_bound_logdet(5).upper_simplified)
    assert (upper_bound_logdet(5, "exact", "e4pi").upper_exact
            != upper_bound_logdet(5).upper_exact)
    for form, area in (("simplified", "bogus"), ("exact", "bogus"), ("bogus", "c36")):
        with pytest.raises(ValueError):
            upper_bound_logdet(5, form, area)


def test_upper_bound_asymptote():
    # upper_exact(g) = kappa g + K/6 + log 36 + log(g-1) + o(1)
    g = 10**6
    bd = upper_bound_logdet(g)
    assert abs(bd.upper_exact / g - bounds.KAPPA) <= 1e-4
    residual = bd.upper_exact - bounds.KAPPA * g - bounds.K_CONST / 6.0 - math.log(36.0) \
        - math.log(g - 1.0)
    assert abs(residual) < 1e-4


def test_sweep_e_and_simplified_bound():
    for g in range(11, 3581):
        e_ref = e_of_g(g)
        assert e_ref < 0.44 * g
        assert 0.56 * g + e_ref <= g


def test_input_free_constants_keep_their_bits():
    # Each is evaluated once, at import, by the expression the zero-argument
    # function it replaced returned.
    assert repr(bounds.E1_QUARTER) == "1.0442826344437381"
    assert repr(bounds.HEAT_INTEGRAL) == "0.08310137162837385"
    assert repr(bounds.GENUS0_DET) == "2.4698440246273785"
    assert repr(bounds.FQ_GAP_SLOPE) == "1.933721640489272"
    assert repr(bounds.FQ_GAP_CONSTANT) == "-2.435179247691124"


def test_genus0_det():
    assert abs(bounds.GENUS0_DET - GENUS0) < 1e-11
    assert abs(bounds.GENUS0_DET - 2.46984) <= 1e-4
    assert abs(math.log(bounds.GENUS0_DET) - 0.90415500072187664) < 1e-11
    assert bounds.GENUS0_DET > 0.0


def test_fq_gap_readings():
    slope_a, const_a = bounds.FQ_GAP_SLOPE, bounds.FQ_GAP_CONSTANT
    # The derivation reading follows the algebraic chain
    # -2 log 2pi - a(g)/6 - (g/3) log(2 pi^4): slope -kappa, constant below.
    slope_d, const_d = -bounds.KAPPA, -2.0 * LN_2PI - bounds.K_CONST / 6.0
    assert abs(slope_a - SLOPE_AS_STATED) < 1e-12
    assert abs(const_a - CONST_AS_STATED) < 1e-12
    assert abs(slope_a - 1.933722) <= 1e-5
    assert abs(slope_d + bounds.KAPPA) <= 1e-12
    # slope_A + kappa = -K/3 exactly at matching zeta precision; the printed
    # reading rounds 4 zeta'(-1) to 6 digits, hence the 4.3e-7 gap.
    assert abs((slope_a + bounds.KAPPA) - (-bounds.K_CONST / 3.0)) <= 5e-7
    # The printed constant and the derivation constant provably coincide.
    assert abs(const_a - const_d) <= 1e-9
    assert abs(slope_d + const_d - FQ_DERIVATION_G1) < 1e-11  # the derivation bound at g = 1


def test_table_reference_rows():
    rows = table(2, 10)
    assert len(rows) == 9
    for row in rows:
        g = row.breakdown.genus
        assert row.paper_value == PAPER_TABLE_VALUES[g]
        assert abs(row.delta - TABLE_DELTAS[g]) < 1e-5
        assert abs(row.delta) <= 0.75
        assert row.annotation == ""


def test_table_window_is_bounded_before_allocating():
    # Each window fails its row count before any row is built.
    for g_from, g_to in ((2, 2 + MAX_TABLE_ROWS), (2, 2**53), (10**6, 10**6 + 10**7)):
        with pytest.raises(ValueError, match="at most 100000 rows"):
            table(g_from, g_to)


def test_table_regime_annotations():
    rows = table(11, 11)
    assert rows[0].paper_value is None and rows[0].delta is None
    assert "bounded above by g" in rows[0].annotation
    rows = table(3580, 3580)
    assert "0.5474277074" in rows[0].annotation
    with pytest.raises(ValueError):
        table(1, 5)
    with pytest.raises(ValueError):
        table(5, 3)


def test_table_window_ends_are_checked_like_a_genus():
    # Each end is a genus as upper_bound_logdet takes it: an integral float
    # works, anything else is a ValueError (a TypeError from range() before).
    assert table(2.0, 3.0) == table(2, 3) == table(2, 3.0)
    assert [row.breakdown.genus for row in table(2.0, 3.0)] == [2, 3]
    for bad in (2.5, "2", True, None):
        for window, end in (((bad, 3), "g_from"), ((2, bad), "g_to")):
            message = f"table({end}={bad!r}): needs an integer genus in [2, 2**53]"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                table(*window)


# Genera where int64 products would wrap (2**32 +- 1), far beyond the audit
# range, at the float64-exact limit, and where numpy's SIMD log differs from
# libm's by one ulp on AVX-512 (g - 1 = 9170, 1366 (g - 1) at g = 13262).
LARGE_GENERA = (2**32 - 1, 2**32, 2**32 + 1, 10**12, 2**53, 9171, 13262)


def _python_int_breakdown(g: int, area: str) -> dict:
    """Every BoundBreakdown field from the documented formulas, evaluated
    with Python ints and math.log term by term."""
    e1 = exp_integral_e1(0.25)
    k = -24.0 * ZETA_PRIME_MINUS1 + 1.0 - 6.0 * LN_2PI - 2.0 * math.log(2.0)
    log_n = math.log(1366.0 * (g - 1))
    tail = 4.0 / (g * (g - 1)) * log_n
    heat = (1.0 - 1.0 / g) * e1
    csel = -4.0 * log_n
    head = 1.0 + math.log(4.0 * math.pi) if area == "e4pi" else math.log(36.0)
    area_bound = head + math.log(g - 1.0) + tail
    a_g = -8.0 * g * LN_2PI + (1.0 - g) * k
    e_refined = (1.0 / (g - 1) + math.log(g - 1.0) + tail + k / 6.0
                 + REFINED_E_CONSTANT)
    return {
        "genus": g,
        "heat_integral": e1 / (4.0 * math.pi),
        "heat_term": heat,
        "csel_lower": csel,
        "metric_ratio_bound_exact": (heat - csel / (g * (g - 1)) + 1.0 / (g - 1)
                                     - math.log(4.0)),
        "metric_ratio_bound_simplified": 1.0 + 4.0 * log_n / (g * (g - 1)),
        "log_area_bound": area_bound,
        "area_variant": area,
        "a_g": a_g,
        "wilms_lower": -2.0 * g * LN_2PI4,
        "e_g_simple": math.log(36.0) + math.log(g - 1.0) + tail + k / 6.0,
        "e_g_refined": e_refined,
        "upper_exact": LN_2PI4 / 3.0 * g + a_g / 6.0 + area_bound,
        "upper_simplified": 0.56 * g + e_refined,
    }


@pytest.mark.parametrize("area", AREA_VARIANTS)
@pytest.mark.parametrize("g", LARGE_GENERA)
def test_large_genus_breakdown_equals_python_int_formula(g, area):
    expected = _python_int_breakdown(g, area)
    for form in BOUND_FORMS:
        assert upper_bound_logdet(g, form, area)._asdict() == expected
    (row,) = table(g, g, "exact", area)
    assert row.breakdown._asdict() == expected


@pytest.mark.parametrize("area", AREA_VARIANTS)
@pytest.mark.parametrize("form", BOUND_FORMS)
def test_table_rows_equal_scalar_breakdowns(form, area):
    rows = table(2, 3729, form, area)
    assert [row.breakdown for row in rows] == [
        upper_bound_logdet(g, form, area) for g in range(2, 3730)]
    last = rows[-1].breakdown._asdict()
    assert all(type(v) in (int, float, str) for v in last.values())


def test_pipeline_checks_the_genus_once_and_takes_two_logs(monkeypatch):
    # log(g-1) and log(1366(g-1)) are each evaluated once per genus, and every
    # field is built from them; the genus is checked once per call, and a
    # table checks its window's two ends once, not each row.
    calls = {"_genera": 0, "log": 0}

    def counted(name, inner):
        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    monkeypatch.setattr(bounds, "_genera", counted("_genera", bounds._genera))
    monkeypatch.setattr(math, "log", counted("log", math.log))
    for call in (lambda: upper_bound_logdet(77), lambda: upper_bound_logdet(2**53, "simplified"),
                 lambda: e_of_g(77), lambda: upper_bound_logdet(39, "exact", "e4pi")):
        calls.update(_genera=0, log=0)
        call()
        assert calls == {"_genera": 1, "log": 2}
    calls.update(_genera=0, log=0)
    table(2, 3580, "exact", "e4pi")
    assert calls == {"_genera": 2, "log": 2 * 3579}


def test_rows_are_named_tuples():
    assert BoundBreakdown._fields == (
        "genus", "heat_integral", "heat_term", "csel_lower", "metric_ratio_bound_exact",
        "metric_ratio_bound_simplified", "log_area_bound", "area_variant", "a_g",
        "wilms_lower", "e_g_simple", "e_g_refined", "upper_exact", "upper_simplified")
    assert TableRow._fields == ("breakdown", "paper_value", "delta", "annotation")
    (row,) = table(11, 11)
    bd = row.breakdown
    assert bd == tuple(bd._asdict().values()) and list(bd._asdict()) == list(bd._fields)
    assert bd[0] == bd.genus == 11 and bd[-1] == bd.upper_simplified
    assert row == (bd, None, None, "listed regime: bounded above by g")


def test_table_form_is_validated_and_changes_no_row():
    assert table(2, 40, "exact") == table(2, 40, "simplified")
    message = ("table(form='bogus', area_variant='c36'): needs form in ('exact', 'simplified') "
               "and area_variant in ('e4pi', 'c36')")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        table(2, 3, "bogus")


def _field(name, area="c36"):
    """The selector g -> upper_bound_logdet(g, "exact", area).<name>."""
    return lambda g: getattr(upper_bound_logdet(g, "exact", area), name)


PER_GENUS_TERMS = [
    pytest.param(_field("heat_term"), 2, id="heat_term-2"),
    pytest.param(_field("csel_lower"), 2, id="csel_lower-2"),
    (_field("metric_ratio_bound_exact"), 2), (_field("metric_ratio_bound_simplified"), 2),
    (_field("log_area_bound", "e4pi"), 2),
    pytest.param(_field("log_area_bound"), 2, id="log_area_bound-2"),
    pytest.param(_field("a_g"), 2, id="a_g-2"),
    (wilms_lower, 1), (_field("e_g_simple"), 2), (e_of_g, 2),
    # the assembled bound's two forms, under the ids they had as a function
    pytest.param(_field("upper_exact"), 2, id="assembled_bound-2"),
    (_field("upper_simplified"), 2),
]


@pytest.mark.parametrize("term, minimum", PER_GENUS_TERMS)
def test_array_evaluation_equals_scalar(term, minimum):
    # A genus array is refused; evaluated element by element, its float64
    # elements give the int values bit for bit.
    genera = list(range(minimum, 600)) + list(LARGE_GENERA)
    with pytest.raises(ValueError, match=rf"(?s)^\w+\(g=array\(\[.*\]\)\): "
                                         rf"needs an integer genus in \[{minimum}, 2\*\*53\]$"):
        term(np.array(genera))
    scalars = [term(g) for g in genera]
    assert all(type(v) is float for v in scalars)
    assert [term(g) for g in np.array(genera, dtype=float)] == scalars


def test_bad_genera_in_arrays_raise():
    # An array is refused whatever genera it holds, and so is a scalar genus
    # beyond 2**53, where float64 cannot hold g and g - 1 exactly.
    for genera in (np.array([1, 5]), np.array([3, 2, 0]), np.array([5, 7]), np.array(["3"])):
        message = f"upper_bound_logdet(g={genera!r}): needs an integer genus in [2, 2**53]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            upper_bound_logdet(genera)
    with pytest.raises(ValueError):
        upper_bound_logdet(2**53 + 1)
    with pytest.raises(ValueError):
        e_of_g(2**70)
    with pytest.raises(ValueError):
        table(2**53 - 1, 2**53 + 1)


@pytest.mark.parametrize("term, minimum", PER_GENUS_TERMS)
def test_genus_types_give_identical_floats(term, minimum):
    # An int, a float and a numpy.float64 (a float subclass) give the same
    # float, bit for bit; numpy integer scalars and 0-d arrays are refused.
    for g in (minimum, minimum + 1, 11, 9171, 2**32 + 1, 2**53 - 1):
        want = term(g)
        assert type(want) is float
        for same in (float(g), np.float64(g)):
            got = term(same)
            assert type(got) is float and got.hex() == want.hex(), (g, type(same))
    for bad in (True, "3", 2**70, math.inf, -math.inf, np.int64(minimum), np.array(minimum)):
        with pytest.raises(ValueError):
            term(bad)


@pytest.mark.parametrize("term, minimum", PER_GENUS_TERMS)
def test_nan_genus_raises(term, minimum):
    routine = "wilms_lower" if term is wilms_lower else "upper_bound_logdet"
    for bad in (math.nan, np.float64(math.nan)):
        message = f"{routine}(g={bad!r}): needs an integer genus in [{minimum}, 2**53]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            term(bad)


def test_nan_genus_raises_in_the_assembled_pipeline():
    with pytest.raises(ValueError, match=r"^upper_bound_logdet\(g=nan\): needs an integer genus "
                                         r"in \[2, 2\*\*53\]$"):
        upper_bound_logdet(math.nan)


@pytest.mark.parametrize("term, minimum", PER_GENUS_TERMS)
def test_non_integer_genus_raises(term, minimum):
    for bad in (minimum + 0.5, np.float64(minimum + 2.5), minimum + 1e-9, 2.0**51 + 0.5):
        with pytest.raises(ValueError, match="integer"):
            term(bad)


def test_non_integer_genus_raises_in_the_assembled_pipeline():
    assert e_of_g(2.0) == e_of_g(2)
    for call in (lambda: e_of_g(2.5), lambda: upper_bound_logdet(2.5),
                 lambda: upper_bound_logdet(7.25)):
        with pytest.raises(ValueError, match="integer"):
            call()
