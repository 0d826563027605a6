"""Property tests (hypothesis): the determinant oracle meets the closed form
and the metric scaling law, D_Ar is modular invariant, the q-product
inequality holds, the claims report's JSON writer gives json.dumps's indented
text for any scalar leaves, and any argv through cli.main ends with a
documented exit code and clean streams, the same whether main builds the one
subcommand's parser or the full one.

Taus are drawn over the fundamental domain, its edges (|x| = 1/2 and the arc
|tau| = 1), the corners y ~ 1e-4 and y ~ 1e4, and the strip |x| <= 3 around
them; genera over [2, 2**53].  Runs are derandomized, so the suite stays
deterministic, and keep no example database.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from atlab import bounds, claims, cli
from atlab.cli import main
from atlab.torus import UnitTorus, logdet_closed, logdet_oracle, spectral_zeta
from atlab.elliptic import bound_slack, d_ar_elliptic
from atlab.numerics import UpperHalfPoint

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)
ORACLE_SETTINGS = settings(PROPERTY_SETTINGS, max_examples=40)  # each example runs the oracle


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


@PROPERTY_SETTINGS
@given(st.lists(st.integers(2, bounds.MAX_GENUS) | st.integers(2, 10_000), min_size=1,
                max_size=40))
def test_genus_array_equals_scalars(genera):
    # A genus array is refused; its float64 elements give the int bounds.
    with pytest.raises(ValueError, match=r"(?s)^upper_bound_logdet\(g=array\(\[.*\]\)\): "
                                         r"needs an integer genus in \[2, 2\*\*53\]$"):
        bounds.upper_bound_logdet(np.array(genera, dtype=float))
    for g, same in zip(genera, np.array(genera, dtype=float)):
        got, want = bounds.upper_bound_logdet(same), bounds.upper_bound_logdet(g)
        assert (got.upper_exact, got.upper_simplified) == (want.upper_exact,
                                                             want.upper_simplified), g


@ORACLE_SETTINGS
@given(_STRIP)
def test_oracle_equals_closed_form(point):
    # Every y in [1e-4, 1e4] is in the oracle's domain, since its reduced y'
    # is at most max(y, 1/y) (worst seen over 340 seeded taus: 1.3e-15).
    tau = UpperHalfPoint(*point)
    closed = logdet_closed(tau)
    assert abs(logdet_oracle(UnitTorus(tau)) - closed) <= 1e-12 * max(1.0, abs(closed))


@ORACLE_SETTINGS
@given(_STRIP, _reals(0.5, 4.0))
def test_oracle_obeys_the_scaling_law(point, gamma):
    # Scaling the metric by gamma^2 scales each eigenvalue by 1/gamma^2, so
    # zeta_gamma(s) = gamma^(2s) zeta(s) and log det(gamma^2 g) = log det(g)
    # - 2 log(gamma) zeta(0): with the oracle's own zeta(0) = -1, exactly
    # log det + 2 log(gamma).
    torus = UnitTorus(UpperHalfPoint(*point))
    base = logdet_oracle(torus)
    law = base - 2.0 * math.log(gamma) * spectral_zeta(torus, 0.0)
    assert base + 2.0 * math.log(gamma) == law


@PROPERTY_SETTINGS
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


@PROPERTY_SETTINGS
@given(st.tuples(_reals(-3.0, 3.0), _log_uniform(1e-30, 1e4)))
@example((0.5, 1e-4))  # the tight x = 1/2 at the cusp corner
def test_qprod_lhs_stays_below_rhs(point):
    # The q-product inequality log|prod (1 - q^n)| <= |q|/(1 - |q|), read on
    # the printed slack 3/(pi y) - 6 log|prod|: rounding is monotone, so this
    # holds exactly wherever the q-product is at most rhs.
    y = point[1]
    minus_2pi_y = -2.0 * math.pi * y
    rhs = math.exp(minus_2pi_y) / -math.expm1(minus_2pi_y)
    assert bound_slack(UpperHalfPoint(*point)) >= 3.0 / (math.pi * y) - 6.0 * rhs


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


# One --tau coordinate: decimal literals with signs and exponents, the
# spellings _TAU_PART refuses (underscores, whitespace, hex, non-ASCII
# digits), inf/nan, subnormals and the float range's ends, and any float's repr.
_TAU_NUMBERS = (st.sampled_from(("0", "-0", "+1", ".5", "5.", "1.7", "-0.5", "1e-4", "1E+4",
                                 "5e-324", "2.2250738585072014e-308", "1e-310", "1e308",
                                 "1.7976931348623157e308", "1e309", "inf", "-Infinity", "nan",
                                 "0x1p-3", "0x10", "1_0", " 1", "1 ", "\t1", "+-1", "1e", ".",
                                 "", "\u0663", "\uff11"))
                | st.floats().map(repr)
                | st.builds("{}{}.{}e{}".format, st.sampled_from(("", "+", "-")),
                            st.integers(0, 999), st.integers(0, 999), st.integers(-330, 330)))
_TAUS = (st.builds("{!r},{!r}".format, _reals(-4.0, 4.0) | st.floats(allow_nan=False),
                   _reals(5e-324, 2e4) | _log_uniform(1e-5, 2e4) | st.floats(min_value=0.0))
         | st.builds("{},{}".format, _TAU_NUMBERS, _TAU_NUMBERS) | st.text(max_size=12))
_GENERA = st.sampled_from(("1", "2", str(2**53), str(2**53 + 1), "0", "-1", "3.5", "1e3",
                           "0x2", "2_0", " 2", "")) | st.integers(-10, 2**60).map(str)
_UNWRITABLE = "/nonexistent-dir/out"
_BOUND = st.builds(lambda g, form, json_: ["bound", "--genus", g, *form, *json_], _GENERA,
                   st.sampled_from(([], ["--form", "simplified"], ["--area", "e4pi"],
                                    ["--form", "bogus"])),
                   st.sampled_from(([], ["--json"])))
_ELLIPTIC = st.builds(lambda tau, json_: ["elliptic", "--tau=" + tau, *json_], _TAUS,
                      st.sampled_from(([], ["--json"])))
_TORUS_DET = st.builds(lambda tau, method: ["torus-det", "--tau=" + tau, *method],
                       _TAUS, st.sampled_from(([], ["--method", "closed"],
                                               ["--method", "oracle"], ["--method", "x"])))
# Windows just past the row cap (refused before any row is built), a few
# rows at 2**53, and ends off the genus range; an unwritable file on top.
_WINDOWS = (st.integers(2, 2**53).flatmap(
                lambda a: st.tuples(st.just(a), st.integers(1, 10).map(lambda k: a + 100_000 + k)))
            | st.integers(0, 3).map(lambda k: (2**53 - k, 2**53))
            | st.tuples(st.integers(-2, 2**53 + 2), st.integers(-2, 2**53 + 2)).filter(
                lambda w: w[0] > w[1] or w[0] < 2 or w[1] > 2**53))
_TABLE = st.builds(lambda w, out: ["table", "--from", str(w[0]), "--to", str(w[1]), *out],
                   _WINDOWS, st.sampled_from(([], ["--csv", _UNWRITABLE], ["--json", _UNWRITABLE],
                                              ["--form", "bogus"])))
_VERIFY = st.builds(lambda ids, flags: ["verify-claims", "--only", ",".join(ids), *flags],
                    st.lists(st.sampled_from(("CL-01", "CL-05", "CL-12", "CL-17")), min_size=1,
                             max_size=2)
                    | st.lists(st.sampled_from(("CL-01", "CL-99", "", " ", "cl-01")), max_size=3),
                    st.sampled_from(([], ["--strict"], ["--json", _UNWRITABLE])))
SUBCOMMANDS = ("bound", "elliptic", "torus-det", "table", "verify-claims")
_RAW = st.lists(st.sampled_from((*SUBCOMMANDS,
                                 "--genus", "--tau", "--from", "--to", "--only", "--json",
                                 "--help", "-h", "2", "0.3,1.7", "-0.3,1.7", "--")) | st.text(),
                max_size=5)
ARGVS = _BOUND | _ELLIPTIC | _TORUS_DET | _TABLE | _VERIFY | _RAW


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(ARGVS)
@example(["verify-claims", "--only", "CL-01", "--json", _UNWRITABLE])  # printed its report first
@example(["bound", "--genus", "2", "--bogus"])  # an unknown argument after a complete command
def test_any_argv_ends_with_a_documented_exit_code_and_clean_streams(argv):
    # Exit 0 ok, 1 a route disagreement or strict audit (its result on stdout,
    # one verdict line on stderr), 2 a usage or domain error, which prints
    # nothing on stdout and one error: line or one usage block.
    # Nothing may escape main: in a process that would be a traceback.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)
    if code == 0:
        assert err == "", (argv, err)
    elif code == 1:
        assert out and err.count("\n") == 1, (argv, err)
    else:
        assert out == "", (argv, out)
        if err.startswith("usage: "):
            # argparse's block: indented usage lines, then one error line (which
            # may echo an argument holding a newline).
            lines = err.split("\n")
            found = [i for i, line in enumerate(lines)
                     if re.match(r"atlab( [a-z-]+)?: error: ", line)]
            assert len(found) == 1 and err.endswith("\n"), (argv, err)
            assert all(line.startswith(" ") for line in lines[1:found[0]]), (argv, err)
            # Once a subcommand is chosen (the first name in argv, unless the
            # top-level parser fails on its own arguments first), the block
            # is that subcommand's, whatever argument it reports.
            chosen = next((a for a in argv if a in SUBCOMMANDS), None)
            if lines[0].startswith("usage: atlab [-h] "):
                assert re.match(r"atlab: error: (argument |the following arguments "
                                r"are required: command)", lines[found[0]]), (argv, err)
            else:
                assert lines[0].startswith(f"usage: atlab {chosen} "), (argv, err)
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(ARGVS)
@example(["-h", "torus-det"])  # help before the command: the full parser's
@example(["bound", "-h"])
@example(["torus-det", "--tau=0,1", "--h"])  # a prefix of the top-level --help
def test_the_one_subcommand_parser_equals_the_full_parser(argv):
    # main builds a parser holding only the subcommand argv starts with; the
    # full parser must give the same exit code and the same bytes on both
    # streams.
    runs = []
    build_parser = cli.build_parser
    for build in (build_parser, lambda _command: build_parser()):  # the lookup, then a miss
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(cli, "build_parser", build), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        runs.append((code, out.getvalue(), err.getvalue()))
    assert runs[0] == runs[1], argv

