"""Property tests (hypothesis): an array input gives exactly the scalar values,
the determinant oracle meets the closed form and the metric scaling law, D_Ar
is modular invariant, the q-product inequality holds, and the claims report's
JSON writer gives json.dumps's indented text for any scalar leaves.

Taus are drawn over the fundamental domain, its edges (|x| = 1/2 and the arc
|tau| = 1), the corners y ~ 1e-4 and y ~ 1e4, and the strip |x| <= 3 around
them; genera over [2, 2**53].  Runs are derandomized, so the suite stays
deterministic, and keep no example database.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from atlab import bounds, claims
from atlab.torus import UnitTorus, logdet_closed, logdet_oracle
from atlab.elliptic import (
    arakelov_logdet,
    d_ar_elliptic,
    elliptic_upper_bound_log,
    log_arakelov_area,
    qprod_bound,
)
from atlab.numerics import UpperHalfPoint, log_abs_eta

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)
ORACLE_SETTINGS = settings(PROPERTY_SETTINGS, max_examples=40)  # each example runs the oracle
CORNER_SETTINGS = settings(PROPERTY_SETTINGS, max_examples=40)  # y ~ 1e-4 costs ~30 ms a call
TAU_FUNCTIONS = (log_abs_eta, arakelov_logdet, d_ar_elliptic, log_arakelov_area,
                 elliptic_upper_bound_log)


def _reals(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _log_uniform(lo: float, hi: float):
    return _reals(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


_INTERIOR = _reals(-0.5, 0.5).flatmap(
    lambda x: _reals(0.0, 1e4).map(lambda h: (x, math.sqrt(1.0 - x * x) + h)))
_LINES = st.tuples(st.sampled_from((-0.5, 0.5)), _log_uniform(0.8660254037844386, 1e4))
_ARC = _reals(-0.5, 0.5).map(lambda x: (x, math.sqrt(1.0 - x * x)))
_CORNERS = st.tuples(_reals(-3.0, 3.0), _log_uniform(1e-4, 2e-4) | _log_uniform(5e3, 1e4))
_STRIP = st.tuples(_reals(-3.0, 3.0), _log_uniform(1e-4, 1e4))
POINTS = _INTERIOR | _LINES | _ARC | _CORNERS | _STRIP
TAUS = st.lists(POINTS, min_size=1, max_size=40)


@PROPERTY_SETTINGS
@given(TAUS)
def test_tau_array_equals_scalars(points):
    x, y = (np.array(column) for column in zip(*points))
    tau = UpperHalfPoint(x, y)
    for fn in TAU_FUNCTIONS:
        want = np.array([fn(UpperHalfPoint(a, b)) for a, b in points])
        assert fn(tau).tobytes() == want.tobytes(), fn.__name__


@PROPERTY_SETTINGS
@given(st.lists(st.integers(2, bounds.MAX_GENUS) | st.integers(2, 10_000), min_size=1,
                max_size=40))
def test_genus_array_equals_scalars(genera):
    # A genus array is refused; its float64 elements give the int bounds.
    with pytest.raises(ValueError, match="genus must be an integer"):
        bounds.upper_bound_logdet(np.array(genera, dtype=float))
    for g, same in zip(genera, np.array(genera, dtype=float)):
        got, want = bounds.upper_bound_logdet(same), bounds.upper_bound_logdet(g)
        assert (got.upper_exact, got.upper_simplified) == (want.upper_exact,
                                                             want.upper_simplified), g


@ORACLE_SETTINGS
@given(_STRIP)
def test_oracle_equals_closed_form(point):
    # The oracle's documented domain, 1e-4 <= y <= 1e4 at any x (worst seen
    # over 340 seeded taus: 5.9e-13).
    tau = UpperHalfPoint(*point)
    closed = logdet_closed(tau)
    assert abs(logdet_oracle(UnitTorus(tau)) - closed) <= 1e-12 * max(1.0, abs(closed))


@ORACLE_SETTINGS
@given(_STRIP, _reals(0.5, 4.0))
def test_oracle_obeys_the_scaling_law(point, gamma):
    # log det(gamma^2 g) = log det(g) + 2 log gamma (exact: gamma moves only t*).
    torus = UnitTorus(UpperHalfPoint(*point))
    base = logdet_oracle(torus)
    scaled = logdet_oracle(torus, metric_scale=gamma)
    assert abs(scaled - (base + 2.0 * math.log(gamma))) <= 1e-12 * max(1.0, abs(base))


@CORNER_SETTINGS
@given(POINTS)
def test_d_ar_is_modular_invariant(point):
    # T: tau -> tau + 1 is exact where the shift is: x + 1.0 itself may round
    # (x = 0.5772156649015329 at y = 1e-4 loses half an ulp, moving D by
    # 2.8e-13), so T is checked at x0 = (x + 1) - 1, for which x0 + 1 is a float.
    # S: tau -> -1/tau moves y to y/|tau|^2, and the rounding of the image and
    # of the reduction grows like max(y, 1/y) (worst seen over 4 000 seeded
    # taus across the domain, its edges and corners: 4.7 eps at this scale).
    x, y = point
    shifted = x + 1.0
    x0 = shifted - 1.0
    assert x0 + 1.0 == shifted
    assert d_ar_elliptic(UpperHalfPoint(shifted, y)) == d_ar_elliptic(UpperHalfPoint(x0, y))
    d = d_ar_elliptic(UpperHalfPoint(x, y))
    norm = x * x + y * y
    s_image = d_ar_elliptic(UpperHalfPoint(-x / norm, y / norm))
    tol = 8.0 * sys.float_info.epsilon * max(y, 1.0 / y) * max(1.0, abs(d))
    assert abs(s_image - d) <= tol


@CORNER_SETTINGS
@given(st.tuples(_reals(-3.0, 3.0), _log_uniform(1e-3, 1e4)))
@example((0.5, 1e-4))  # the tight x = 1/2 at the cusp corner; one call costs ~30 ms
def test_qprod_lhs_stays_below_rhs(point):
    lhs, rhs = qprod_bound(UpperHalfPoint(*point))
    assert lhs <= rhs


LEAVES = (st.none() | st.booleans() | st.integers() | st.floats()
          | st.text() | st.sampled_from(("\x1f", ", ", '"', "\\", "\n", "\ud800")))


@PROPERTY_SETTINGS
@given(st.lists(st.tuples(*[LEAVES] * 7, st.sampled_from(claims.STATUSES)), max_size=6),
       st.lists(st.text() | st.just("\x1f"), max_size=4))
def test_report_json_equals_indented_json_dumps(records, warnings):
    # The one-pass writer is byte-identical to json.dumps(..., indent=2) for
    # any scalar leaves: NaN, infinities, -0.0, big ints, any text.
    report = claims.ClaimReport(tuple(claims.ClaimRecord(*r) for r in records),
                                tuple(warnings))
    assert report.to_json() == json.dumps(report.as_dict(), indent=2)
