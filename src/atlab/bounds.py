"""Effective upper bounds on log det(D_Ar) for genus g > 1.

The pipeline assembles, per genus:

    heat term      (1 - 1/g) E1(1/4)            (majorant of the heat integral)
    c_sel input    c_sel >= -4 log(1366 (g-1))  (external lower bound)
    metric ratio   log(mu_Ar/mu_hyp) <= heat - c_sel/(g(g-1)) + 1/(g-1) - log 4
                   and the simplified form 1 + 4 log(1366(g-1))/(g(g-1))
    area bound     Area < e 4pi (g-1) (1366(g-1))^(4/(g(g-1)))
                        < 36 (g-1) (1366(g-1))^(4/(g(g-1)))
    delta input    delta > -2g log(2 pi^4)      (external lower bound)
    assembled      log det < (log(2 pi^4)/3) g + a(g)/6 + log Area
                   and the display form 0.56 g + E(g)

with a(g) = -8g log 2pi + (1-g) K, K = -24 zeta'(-1) + 1 - 6 log 2pi - 2 log 2,
and asymptotic slope kappa = log(2 pi^4)/3 - (4/3) log 2pi - K/6 ~= 0.5474277.
Also the genus-0 determinant value, the Faltings-vs-Quillen gap corollary in
its printed reading, and the small-genus reference table.  Every per-genus
function takes one genus, a Python int or an integral float.  The single
terms are fields of one breakdown, computed in _breakdown after
upper_bound_logdet or table has checked the genus, form and area variant;
e_of_g returns one of its fields.
"""

import math
from typing import NamedTuple

from .numerics import LN_2PI, LN_2PI4, ZETA_PRIME_MINUS1, _domain_error, exp_integral_e1

AREA_VARIANTS = ("e4pi", "c36")
BOUND_FORMS = ("exact", "simplified")
MAX_GENUS = 2**53  # float64 holds every genus up to here, and g - 1, exactly
# At the limit (2-vCPU x86-64): bounds.table ~0.44 s, 75 MB peak RSS; `atlab table`
# with --csv and --json ~3.4 s, 76 MB peak.  Memory grows linearly with rows.
MAX_TABLE_ROWS = 100_000

# Reference upper bounds listed for small genus in the audited source
# (sec. 5); their generating formula is not recoverable, so they are data
# for comparison columns, never asserted as equalities.
PAPER_TABLE_VALUES = {
    2: 18.01100181,
    3: 9.76363,
    4: 8.13548,
    5: 7.88854,
    6: 8.10036,
    7: 8.50296,
    8: 8.99605,
    9: 9.53577,
    10: 10.1007,
}
PAPER_KAPPA = 0.5474277074  # printed slope digits
# Printed 6-digit rounding of 4 zeta'(-1); the published corollary slope
# digits (CL-13) are exactly the symbolic slope evaluated with this value.
PAPER_FOUR_ZETA_PRIME = -0.661685
REFINED_E_CONSTANT = 2.1890125  # printed constant of the refined E(g)

# The input-free values, each evaluated once, here.
E1_QUARTER = exp_integral_e1(0.25)
HEAT_INTEGRAL = E1_QUARTER / (4.0 * math.pi)  # the majorized heat integral, ~0.08310 <= 0.0832
# K = -24 zeta'(-1) + 1 - 6 log 2pi - 2 log 2 ~= -7.4434493
K_CONST = -24.0 * ZETA_PRIME_MINUS1 + 1.0 - 6.0 * LN_2PI - 2.0 * math.log(2.0)
# The exact asymptotic slope log(2 pi^4)/3 - (4/3) log 2pi - K/6 ~= 0.54742770
KAPPA = LN_2PI4 / 3.0 - (4.0 / 3.0) * LN_2PI - K_CONST / 6.0
# The genus-0 determinant exp(-4 zeta'(-1) + 7/6 - (4/3) log 2) ~= 2.46984
GENUS0_DET = math.exp(-4.0 * ZETA_PRIME_MINUS1 + 7.0 / 6.0 - (4.0 / 3.0) * math.log(2.0))
# The printed Faltings-vs-Quillen gap bound h_F - h_Q >= FQ_GAP_SLOPE g + FQ_GAP_CONSTANT:
# the printed symbolic slope with the printed 4 zeta'(-1) (which yields the published
# 16 digits), and the printed symbolic constant C at full precision.
FQ_GAP_SLOPE = ((4.0 / 3.0) * LN_2PI - LN_2PI4 / 3.0 + PAPER_FOUR_ZETA_PRIME
                - 1.0 / 6.0 + LN_2PI + math.log(2.0) / 3.0)
FQ_GAP_CONSTANT = -LN_2PI + 4.0 * ZETA_PRIME_MINUS1 - 1.0 / 6.0 + math.log(2.0) / 3.0

_LN_4, _LN_36 = math.log(4.0), math.log(36.0)
_AREA_HEAD = {"e4pi": 1.0 + math.log(4.0 * math.pi), "c36": _LN_36}


def _genera(g, minimum: int, routine: str, name: str = "g") -> float:
    """g as a float if it is an int or float (not bool; numpy.float64 is a float)
    holding an integer in [minimum, 2**53], where g * (g - 1) rounds once in float64
    like the exact Python-int product; else routine's domain error naming g `name`."""
    if not (isinstance(g, (int, float)) and not isinstance(g, bool)  # NaN fails the range, and
            and minimum <= g <= MAX_GENUS and float(g).is_integer()):  # ints past it skip float()
        raise _domain_error(routine, f"an integer genus in [{minimum}, 2**53]", **{name: g})
    return float(g)


def _wilms(g):
    return -2.0 * g * LN_2PI4


def wilms_lower(g):
    """Lower bound -2 g log(2 pi^4) on the delta invariant, g >= 1."""
    return _wilms(_genera(g, 1, "wilms_lower"))


class BoundBreakdown(NamedTuple):
    """Every term of the genus-g bound pipeline plus the assembled bounds."""

    genus: int
    heat_integral: float
    heat_term: float
    csel_lower: float
    metric_ratio_bound_exact: float
    metric_ratio_bound_simplified: float
    log_area_bound: float
    area_variant: str
    a_g: float
    wilms_lower: float
    e_g_simple: float
    e_g_refined: float
    upper_exact: float
    upper_simplified: float


def _check_options(form: str, area_variant: str, routine: str) -> None:
    if form not in BOUND_FORMS or area_variant not in AREA_VARIANTS:
        raise _domain_error(routine, f"form in {BOUND_FORMS} and area_variant in {AREA_VARIANTS}",
                            form=form, area_variant=area_variant)


def _breakdown(g, gf: float, area_variant: str) -> BoundBreakdown:
    """The one place each per-genus term is computed, for a checked genus g
    (gf = float(g)) and area variant: log(g-1) and log(1366(g-1)) are
    evaluated once each, and every field is built from them."""
    g1 = gf - 1.0
    gg1 = gf * g1
    inv_g1 = 1.0 / g1
    log_g1 = math.log(g1)
    log_n = math.log(1366.0 * g1)
    tail = 4.0 / gg1 * log_n
    heat = (1.0 - 1.0 / gf) * E1_QUARTER
    csel = -4.0 * log_n
    area = _AREA_HEAD[area_variant] + log_g1 + tail
    a_g = -8.0 * gf * LN_2PI + (1.0 - gf) * K_CONST
    k6 = K_CONST / 6.0
    e_refined = inv_g1 + log_g1 + tail + k6 + REFINED_E_CONSTANT
    # tuple.__new__ skips the generated __new__, a Python call binding all 14
    # fields once per table row (here and for TableRow below)
    return tuple.__new__(BoundBreakdown, (
        g, HEAT_INTEGRAL, heat, csel, heat - csel / gg1 + inv_g1 - _LN_4,
        1.0 + 4.0 * log_n / gg1, area, area_variant, a_g, _wilms(gf),
        _LN_36 + log_g1 + tail + k6, e_refined,
        LN_2PI4 / 3.0 * gf + a_g / 6.0 + area, 0.56 * gf + e_refined,
    ))


def upper_bound_logdet(g: int, form: str = "exact", area_variant: str = "c36") -> BoundBreakdown:
    """Assembled upper bound on log det(D_Ar) with the full term breakdown;
    `form` is only validated (both bounds are fields)."""
    gf = _genera(g, 2, "upper_bound_logdet")
    _check_options(form, area_variant, "upper_bound_logdet")
    return _breakdown(g, gf, area_variant)


def e_of_g(g):
    """Sub-leading term E(g) of the display bound 0.56 g + E(g), g >= 2:

    1/(g-1) + log(g-1) + (4/(g(g-1))) log(1366(g-1)) + K/6 + 2.1890125,

    the refined E(g), which satisfies E(g) < 0.44 g from g = 11 on.  The
    breakdown's e_g_simple, log 36 + log(g-1) + (4/(g(g-1))) log(1366(g-1))
    + K/6, does only from g = 12 on.
    """
    return upper_bound_logdet(g).e_g_refined


# The annotation of a table row past the reference values, below genus 3580
# and from 3580 on (the kappa regime).
_ANNOTATIONS = ("listed regime: bounded above by g",
                f"listed regime: bounded above by {PAPER_KAPPA}*g + 1")


class TableRow(NamedTuple):
    """One genus row: the breakdown plus the reference column."""

    breakdown: BoundBreakdown
    paper_value: float | None
    delta: float | None  # upper_exact - paper_value
    annotation: str


def table(g_from: int, g_to: int, form: str = "exact",
          area_variant: str = "c36") -> list[TableRow]:
    """Rows for genus g_from..g_to; g in 2..10 carry the listed reference
    value and its delta, larger genera carry the listed regime annotations.
    Each end is a genus as upper_bound_logdet takes it.  At most
    MAX_TABLE_ROWS rows; a longer window raises before any row is built.

    `form` is only validated and changes no row: every row carries both
    upper_exact and upper_simplified.  It stays while the benchmark's
    genus_table workload passes it."""
    lo, hi = int(_genera(g_from, 2, "table", "g_from")), int(_genera(g_to, 2, "table", "g_to"))
    if not 0 <= hi - lo < MAX_TABLE_ROWS:
        raise _domain_error("table", f"g_from <= g_to < g_from + {MAX_TABLE_ROWS} "
                            f"(at most {MAX_TABLE_ROWS} rows)", g_from=g_from, g_to=g_to)
    _check_options(form, area_variant, "table")
    rows = []
    for g in range(lo, hi + 1):
        bd = _breakdown(g, float(g), area_variant)
        paper = PAPER_TABLE_VALUES.get(g)
        if paper is None:
            rows.append(tuple.__new__(TableRow, (bd, None, None, _ANNOTATIONS[g >= 3580])))
        else:
            rows.append(tuple.__new__(TableRow, (bd, paper, bd.upper_exact - paper, "")))
    return rows
