"""Command-line frontend.

Subcommands: bound, elliptic, torus-det, table, verify-claims.
Exit codes: 0 ok, 1 audit failure or route disagreement, 2 usage or domain
error, or a failed write to standard output or a --csv/--json file (one
`error:` line naming it, nothing on stdout for a file); a closed output pipe
ends the process quietly (SIGPIPE).  The routes of
torus-det --method both disagree when their relative gap |difference| /
max(1, |logdet_closed|) exceeds torus.AGREEMENT_TOL, the contract logdet_oracle
states (DetComparison.relative_gap, as CL-18 reads it): it prints all three
lines, then one FAIL line on stderr.  Once a subcommand is chosen, every
usage error, an unrecognized argument included, prints that subcommand's
usage block; a --tau that is not two decimal literals is one.  A --tau whose
value UpperHalfPoint refuses, or whose double's exactly reduced y' passes
TAU_Y_MAX (or, for the spectral oracle, ORACLE_Y_MAX), is a domain error and
prints one `error:` line.  Every series runs to a fixed truncation at the
exactly reduced point, so no computation can fail to converge.
All output is deterministic for fixed flags; numbers are printed with 12
significant digits, '.' decimal point, no grouping.
Start-up is most of a `bound` call, so each handler imports what only it uses.
"""

from __future__ import annotations

import argparse
import operator
import os
import re
import signal
import sys
from functools import partial

from . import bounds
from .numerics import UpperHalfPoint

# One coordinate of --tau: an ASCII decimal literal, or an inf/nan spelling
# for UpperHalfPoint's finiteness check to name.  float() alone also takes
# 1_0 and non-ASCII digits.
_TAU_PART = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
                       r"|inf(?:inity)?|nan)", re.IGNORECASE)

# argparse wraps help and usage text to the terminal width (COLUMNS, or the
# tty's); 78 is what it uses with neither, so the text never depends on them.
_HelpFormatter = partial(argparse.HelpFormatter, width=78)

TABLE_COLUMNS = (
    "genus", "heat_term", "csel_lower", "log_area_bound", "a_g",
    "e_g_refined", "upper_exact", "upper_simplified", "paper_value", "delta",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _parse_tau(text: str, parser: argparse.ArgumentParser) -> UpperHalfPoint:
    parts = text.split(",")
    if len(parts) != 2 or not all(map(_TAU_PART.fullmatch, parts)):
        parser.error(f"--tau must be 'x,y' with two decimal literals, got {text!r}")
    return UpperHalfPoint(float(parts[0]), float(parts[1]))


def _cmd_bound(args, parser) -> int:
    if not 2 <= args.genus <= bounds.MAX_GENUS:
        parser.error("bound requires 2 <= --genus <= 2**53; "
                     "for genus 1 use `atlab elliptic`")
    bd = bounds.upper_bound_logdet(args.genus, args.form, args.area)
    headline = bd.upper_exact if args.form == "exact" else bd.upper_simplified
    if args.json:
        import json
        payload = bd._asdict()
        payload["form"] = args.form
        payload["upper_bound"] = headline
        print(json.dumps(payload, indent=2))
        return 0
    print(f"genus {bd.genus} upper bound on log det ({args.form}, {args.area}): "
          f"{_fmt(headline)}")
    for key, value in bd._asdict().items():
        if key == "genus":
            continue
        print(f"  {key:30s} {_fmt(value)}")
    return 0


def _cmd_elliptic(args, parser) -> int:
    from . import elliptic
    tau = _parse_tau(args.tau, parser)
    payload = {
        "tau": {"x": tau.x, "y": tau.y},
        "arakelov_area": elliptic.arakelov_area(tau),
        "log_arakelov_area": elliptic.log_arakelov_area(tau),
        "arakelov_logdet": elliptic.arakelov_logdet(tau),
        "d_ar": elliptic.d_ar_elliptic(tau),
        "upper_bound_log": elliptic.elliptic_upper_bound_log(tau),
        "bound_slack": elliptic.bound_slack(tau),
    }
    if args.json:
        import json
        print(json.dumps(payload, indent=2))
        return 0
    for key, value in payload.items():
        print(f"{key:20s} {_fmt(value) if not isinstance(value, dict) else value}")
    return 0


def _cmd_torus_det(args, parser) -> int:
    tau = _parse_tau(args.tau, parser)
    if args.method == "closed":  # torus.logdet_closed, without loading torus
        from .elliptic import d_ar_elliptic
        print(f"logdet_closed  {_fmt(d_ar_elliptic(tau))}")
        return 0
    from . import torus
    if args.method == "oracle":
        value = torus.logdet_oracle(torus.UnitTorus(tau))
        print(f"logdet_oracle  {_fmt(value)}")
        return 0
    cmp = torus.compare_logdet(tau)
    print(f"logdet_closed  {_fmt(cmp.logdet_closed)}")
    print(f"logdet_oracle  {_fmt(cmp.logdet_oracle)}")
    print(f"difference     {_fmt(cmp.difference)}")
    if cmp.relative_gap > torus.AGREEMENT_TOL:
        print(f"FAIL |difference| > {torus.AGREEMENT_TOL:g} max(1, |closed|)", file=sys.stderr)
        return 1
    return 0


def _table_records(rows):
    # paper_value and delta live on the row, every other column on its breakdown
    pick = operator.attrgetter(*TABLE_COLUMNS[:-2])
    return ((*pick(row.breakdown), row.paper_value, row.delta) for row in rows)


def _cmd_table(args, parser) -> int:
    rows = bounds.table(args.g_from, args.g_to, args.form, args.area)
    if args.csv:
        import csv
        try:
            with open(args.csv, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(TABLE_COLUMNS)
                writer.writerows([_fmt(v) for v in rec] for rec in _table_records(rows))
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, args.csv) from None
    if args.json:
        from ._jsontext import dump_object_array
        try:
            with open(args.json, "w") as fh:
                dump_object_array(fh, TABLE_COLUMNS, _table_records(rows))
                fh.write("\n")
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, args.json) from None
    if args.csv or args.json:
        return 0
    print("  ".join(f"{c:>16s}" for c in TABLE_COLUMNS))
    for rec, row in zip(_table_records(rows), rows):
        line = "  ".join(f"{_fmt(v):>16s}" for v in rec)
        if row.annotation:
            line += f"  # {row.annotation}"
        print(line)
    return 0


def _cmd_verify_claims(args, parser) -> int:
    from . import claims
    only = None
    if args.only is not None:
        only = [cid.strip() for cid in args.only.split(",") if cid.strip()]
        if not only:
            parser.error(f"--only names no claim id, got {args.only!r}")
    try:
        report = claims.run_all(only=only)
    except KeyError as exc:
        parser.error(str(exc.args[0]))
    if args.json:  # before the text report, so a write error leaves stdout empty
        try:
            with open(args.json, "w") as fh:
                fh.write(report.to_json())
                fh.write("\n")
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, args.json) from None
    for rec in report.records:
        delta = "" if rec.delta is None else f"  delta={_fmt(rec.delta)}"
        print(f"{rec.id:18s} {rec.status:10s} [{rec.location}] "
              f"computed={_fmt(rec.computed)}{delta}")
    for warning in report.warnings:
        print(f"warning: {warning}")
    summary = report.summary
    print("summary: " + "  ".join(f"{k}={v}" for k, v in summary.items()))
    if args.strict and not report.strict_ok():
        print("strict: non-allowlisted discrepancies present", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atlab",
        description=(
            "Flat-torus determinants, genus-1 Arakelov invariants, effective "
            "log det bounds for g > 1, and the numeric claim audit."
        ),
        formatter_class=_HelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, handler, **kwargs):
        # a handler reports usage errors through its own subcommand's parser
        p = sub.add_parser(name, formatter_class=_HelpFormatter, **kwargs)
        p.set_defaults(handler=handler, parser=p)
        return p

    p_bound = add_parser("bound", _cmd_bound, help="genus-g upper bound breakdown (g >= 2)")
    p_bound.add_argument("--genus", type=int, required=True)
    p_bound.add_argument("--form", choices=bounds.BOUND_FORMS, default="exact")
    p_bound.add_argument("--area", choices=bounds.AREA_VARIANTS, default="c36")
    p_bound.add_argument("--json", action="store_true")

    p_ell = add_parser("elliptic", _cmd_elliptic, help="genus-1 Arakelov quantities at tau")
    p_det = add_parser("torus-det", _cmd_torus_det, help="flat-torus log determinant")
    for p_tau in (p_ell, p_det):
        p_tau.add_argument("--tau", required=True, metavar="X,Y",
                           help="tau = x + iy as two decimals 'x,y' (y > 0); "
                                "write --tau=X,Y when x is negative")
    p_ell.add_argument("--json", action="store_true")

    p_det.add_argument("--method", choices=("closed", "oracle", "both"), default="both",
                       help="both exits 1 if |difference| > torus.AGREEMENT_TOL max(1, |closed|)")

    p_table = add_parser("table", _cmd_table, help="per-genus bound table")
    p_table.add_argument("--from", dest="g_from", type=int, required=True)
    p_table.add_argument("--to", dest="g_to", type=int, required=True)
    p_table.add_argument("--form", choices=bounds.BOUND_FORMS, default="exact",
                         help="changes nothing: every row carries both bounds (kept while "
                              "the benchmark's genus_table workload passes it)")
    p_table.add_argument("--area", choices=bounds.AREA_VARIANTS, default="c36")
    p_table.add_argument("--csv", metavar="PATH")
    p_table.add_argument("--json", metavar="PATH")

    p_claims = add_parser("verify-claims", _cmd_verify_claims,
                          help="recompute the claim registry")
    p_claims.add_argument("--only", metavar="IDS",
                          help="comma-separated claim ids")
    p_claims.add_argument("--json", metavar="PATH")
    p_claims.add_argument("--strict", action="store_true",
                          help="exit 1 on non-allowlisted discrepancies")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args, extras = build_parser().parse_known_args(argv)
        if extras:  # wherever they stood, through the chosen subcommand's parser
            args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
        code = args.handler(args, args.parser)
        sys.stdout.flush()
        return code
    except SystemExit as exc:  # argparse exits; normalize to a return code
        return int(exc.code or 0)
    except ValueError as exc:  # domain error raised by the library
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a write failed (a full disk, /dev/full); a file write names its path
        if exc.filename is None:  # stdout: so the flush at exit has nothing to fail on
            sys.stdout = open(os.devnull, "w")
        print(f"error: cannot write {exc.filename or 'standard output'}: {exc.strerror}",
              file=sys.stderr)
        return 2


def entrypoint() -> None:
    if hasattr(signal, "SIGPIPE"):  # end quietly on a closed pipe, like other filters
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
