"""Every domain error in atlab has one shape, "routine(name=value, ...): needs
limit", built by numerics._domain_error and raised by its caller.

CASES holds one failing input per call site of the helper in src/, with the
full message it gives; a call site without a row, or a row without one,
fails test_cases_name_every_call_site_once.  Imports no numpy.
"""

from __future__ import annotations

import ast
import pathlib
import sys

import pytest

from atlab import bounds, claims, elliptic, numerics, torus
from atlab.numerics import TAU_Y_MAX, UpperHalfPoint

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "atlab"
TAU_I = UpperHalfPoint(0.0, 1.0)
NEAR_AXIS = UpperHalfPoint(0.0, 5e-324)  # its reduced y' = 1/y is past TAU_Y_MAX
FAR_UP = UpperHalfPoint(0.0, 1e5)  # reduced already, past the oracle's ORACLE_Y_MAX = 1e4
UNDERFLOW = UpperHalfPoint(0.0, 2000.0)  # Area_Ar below the smallest normal double
GENUS_LIMIT = "needs an integer genus in [2, 2**53]"
OPTIONS_LIMIT = "needs form in ('exact', 'simplified') and area_variant in ('e4pi', 'c36')"

# (the function holding the call site, as module.qualname; the failing call; its message)
CASES = [
    ("numerics.UpperHalfPoint.__new__", lambda: UpperHalfPoint("0.3", 1.0),
     "UpperHalfPoint(x='0.3', y=1.0): needs int or float coordinates, not bool"),
    ("numerics.UpperHalfPoint.__new__", lambda: UpperHalfPoint(0.3, 0.0),
     f"UpperHalfPoint(x=0.3, y=0.0): needs finite x and 0 < y <= {TAU_Y_MAX!r}"),
    ("numerics.ModularTransform.__new__", lambda: numerics.ModularTransform(1, 1, 1, 1),
     "ModularTransform(a=1, b=1, c=1, d=1): needs ad - bc = 1"),
    ("numerics._reduce", lambda: numerics.log_abs_eta(NEAR_AXIS),
     f"log_abs_eta(tau={NEAR_AXIS!r}): needs a reduced y' <= {TAU_Y_MAX!r}"),
    ("numerics.exp_integral_e1", lambda: numerics.exp_integral_e1(2.0),
     "exp_integral_e1(x=2.0): needs 0 < x <= 1"),
    ("numerics.zeta_em_deriv", lambda: numerics.zeta_em_deriv(1.0),
     "zeta_em_deriv(s=1.0): needs -2 <= s <= 0 (where it is accurate)"),
    ("elliptic._finite", lambda: elliptic.elliptic_upper_bound_log(NEAR_AXIS),
     f"elliptic_upper_bound_log(tau={NEAR_AXIS!r}): needs a result <= {sys.float_info.max!r}"),
    ("elliptic.arakelov_area", lambda: elliptic.arakelov_area(UNDERFLOW),
     f"arakelov_area(tau={UNDERFLOW!r}): needs log Area_Ar >= log(sys.float_info.min)"),
    ("elliptic.faltings_delta_elliptic", lambda: elliptic.faltings_delta_elliptic(TAU_I, "bogus"),
     "faltings_delta_elliptic(reading='bogus'): needs 'direct' or 'shifted'"),
    ("torus._mellin_g_at", lambda: torus.logdet_oracle(torus.UnitTorus(FAR_UP)),
     f"logdet_oracle(tau={FAR_UP!r}): needs a reduced y' <= 10000"),
    ("torus.spectral_zeta", lambda: torus.spectral_zeta(torus.UnitTorus(TAU_I), 1.0),
     "spectral_zeta(s=1.0): needs -10 <= s <= 11 and |s - 1| >= 0.05"),
    ("bounds._genera", lambda: bounds.upper_bound_logdet(2.5),
     f"upper_bound_logdet(g=2.5): {GENUS_LIMIT}"),
    ("bounds._check_options", lambda: bounds.upper_bound_logdet(2, "bogus"),
     f"upper_bound_logdet(form='bogus', area_variant='c36'): {OPTIONS_LIMIT}"),
    ("bounds.table", lambda: bounds.table(5, 2),
     "table(g_from=5, g_to=2): needs g_from <= g_to < g_from + 100000 (at most 100000 rows)"),
    ("claims.run_all", lambda: claims.run_all(only=[]),
     "run_all(only=[]): needs at least one claim id"),
]


def _calls_of(name: str) -> list[str]:
    """module.qualname of the function around each call of `name` in src/atlab."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == name:
                sites.append(scope)
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return sites


@pytest.mark.parametrize("site, call, message", CASES, ids=[case[0] for case in CASES])
def test_each_call_site_gives_the_full_message(site, call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_cases_name_every_call_site_once():
    assert sorted(_calls_of("_domain_error")) == sorted(site for site, _, _ in CASES)
    # and every ValueError in src/ is built by the helper
    assert _calls_of("ValueError") == ["numerics._domain_error"]


@pytest.mark.parametrize("routine, call", [
    ("reduce_to_fundamental_domain", lambda: numerics.reduce_to_fundamental_domain(NEAR_AXIS)),
    ("log_abs_eta", lambda: elliptic.bound_slack(NEAR_AXIS)),
    ("d_ar_elliptic", lambda: elliptic.d_ar_elliptic(NEAR_AXIS)),
    ("logdet_oracle", lambda: torus.logdet_oracle(torus.UnitTorus(NEAR_AXIS))),
    ("spectral_zeta", lambda: torus.spectral_zeta(torus.UnitTorus(FAR_UP), 0.5)),
    ("compare_logdet", lambda: torus.compare_logdet(NEAR_AXIS)),
    ("compare_logdet", lambda: torus.compare_logdet(FAR_UP)),
    ("wilms_lower", lambda: bounds.wilms_lower(0)),
    ("upper_bound_logdet", lambda: bounds.e_of_g(1)),  # e_of_g checks g through it
    ("table", lambda: bounds.table(2, 3, "exact", "bogus")),
])
def test_a_shared_check_names_the_routine_its_caller_was_called_as(routine, call):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value).startswith(f"{routine}("), str(info.value)


def test_an_int_too_long_for_repr_is_named_by_its_type_and_bit_length():
    # Since Python 3.11 (and 3.10.7) repr refuses an int of more than 4300
    # digits, with a message of its own that names no routine and no input.
    big = 10**5000
    try:
        shown = repr(big)
    except ValueError:
        shown = f"<int of {big.bit_length()} bits>"
    with pytest.raises(ValueError) as info:
        bounds.upper_bound_logdet(big)
    assert str(info.value) == f"upper_bound_logdet(g={shown}): {GENUS_LIMIT}"
    with pytest.raises(ValueError) as info:
        UpperHalfPoint(big, 1.0)
    assert str(info.value) == (f"UpperHalfPoint(x={shown}, y=1.0): "
                               f"needs finite x and 0 < y <= {TAU_Y_MAX!r}")
