"""Command-line frontend.

Subcommands: bound, elliptic, torus-det, table, verify-claims.
Exit codes: 0 ok, 1 audit failure or route disagreement, 2 usage or domain
error, or a failed write to stdout (a full device, fd 1 closed) or to a
--csv/--json file, with one `error:` line naming it.  main writes stdout, then
stderr, once each when the command is done; one that fails leaves stdout empty.
A stderr that cannot be written (/dev/full, fd 2 closed) is skipped, and the
exit code still tells.  A closed output pipe ends the process quietly
(SIGPIPE).  The routes of torus-det --method both disagree when their relative
gap |difference| / max(1, |logdet_closed|) exceeds torus.AGREEMENT_TOL, the
contract logdet_oracle states (DetComparison.relative_gap, as CL-18 reads it):
it prints all three lines, then one FAIL line on stderr.  Once a subcommand is
chosen, every usage error, an unrecognized argument included, prints that
subcommand's usage block; a --tau that is not two decimal literals is one, as
is a --genus, --from or --to that is not an ASCII decimal integer.  A --tau
whose value UpperHalfPoint refuses, or whose double's exactly reduced y' passes
TAU_Y_MAX (or, for the spectral oracle, ORACLE_Y_MAX), is a domain error: one
`error: ROUTINE(NAME=VALUE, ...): needs LIMIT` line.  Every series runs to a
fixed truncation at the exactly reduced point: none can fail to converge.  All
output is deterministic for fixed flags; numbers are printed with 12
significant digits, '.' decimal point, no grouping.
Start-up is most of a `bound` call, so main builds only the parser of the
subcommand argv[0] names (the full parser for any other argv), and each
subcommand imports what only it uses: elliptic and torus-det never load
atlab.bounds (verify-claims loads it through atlab.claims).
"""

import argparse
import contextlib
import errno
import io
import operator
import os
import re
import signal
import sys
from functools import partial

from .numerics import UpperHalfPoint

# One coordinate of --tau: an ASCII decimal literal, or an inf/nan spelling
# for UpperHalfPoint's finiteness check to name.  float() alone also takes
# 1_0 and non-ASCII digits.  Compiled on first use (re caches it): only
# elliptic and torus-det read a tau.
_TAU_PART = (r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
             r"|inf(?:inity)?|nan)")

# argparse wraps help and usage text to the terminal width (COLUMNS, or the
# tty's); 78 is what it uses with neither, so the text never depends on them.
_HelpFormatter = partial(argparse.HelpFormatter, width=78)


def _write(stream, text: str) -> None:
    """Write and flush TEXT, if any; a None stream (its fd closed at start-up) fails as EBADF."""
    if text:
        if stream is None:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        print(text, end="", file=stream, flush=True)


def _int(text: str) -> int:
    """--genus, --from, --to: an ASCII decimal integer with an optional sign.
    int() alone also takes 1_0, non-ASCII digits and surrounding whitespace."""
    digits = text[1:] if text[:1] in "+-" else text
    if digits.isascii() and digits.isdigit():
        with contextlib.suppress(ValueError):  # more digits than sys.get_int_max_str_digits()
            return int(text)
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


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


def _write_file(path: str, write, newline: str | None = None) -> None:
    """Run write(fh) on PATH opened for text.  An OSError from the open, a write
    or the close is re-raised as OSError(errno, strerror, PATH): main's exit 2."""
    try:
        with open(path, "w", newline=newline) as fh:
            write(fh)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _parse_tau(text: str, parser: argparse.ArgumentParser) -> UpperHalfPoint:
    if not re.fullmatch(f"{_TAU_PART},{_TAU_PART}", text, re.IGNORECASE):
        parser.error(f"--tau must be 'x,y' with two decimal literals, got {text!r}")
    x, y = text.split(",")
    return UpperHalfPoint(float(x), float(y))


def _cmd_bound(args, parser) -> int:
    from . import bounds
    if not 2 <= args.genus <= bounds.MAX_GENUS:
        parser.error("bound requires 2 <= --genus <= 2**53; "
                     "for genus 1 use `atlab elliptic`")
    bd = bounds.upper_bound_logdet(args.genus, args.form, args.area)
    headline = bd.upper_exact if args.form == "exact" else bd.upper_simplified
    if args.json:
        import json
        payload = {**bd._asdict(), "form": args.form, "upper_bound": headline}
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
    from . import bounds
    rows = bounds.table(args.g_from, args.g_to, args.form, args.area)
    if args.csv is not None:  # an empty PATH fails to open, like any unwritable one
        def write_csv(fh):
            import csv
            writer = csv.writer(fh)
            writer.writerow(TABLE_COLUMNS)
            writer.writerows([_fmt(v) for v in rec] for rec in _table_records(rows))
        _write_file(args.csv, write_csv, newline="")
    if args.json is not None:
        def write_json(fh):
            from ._jsontext import dump_object_array
            dump_object_array(fh, TABLE_COLUMNS, _table_records(rows))
            fh.write("\n")
        _write_file(args.json, write_json)
    if args.csv is not None or args.json is not None:
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
    if args.json is not None:
        _write_file(args.json, lambda fh: fh.write(report.to_json() + "\n"))
    for rec in report.records:
        delta = "" if rec.delta is None else f"  delta={_fmt(rec.delta)}"
        print(f"{rec.id:18s} {rec.status:10s} [{rec.location}] "
              f"computed={_fmt(rec.computed)}{delta}")
    for warning in report.warnings:
        print(f"warning: {warning}")
    print("summary: " + "  ".join(f"{k}={v}" for k, v in report.summary.items()))
    if args.strict and not report.strict_ok():
        print("strict: non-allowlisted discrepancies present", file=sys.stderr)
        return 1
    return 0


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The atlab parser.  When `command` names a subcommand, the parser holds
    that subcommand alone, and parses an argv that starts with it exactly as
    the full parser does; for None or any other word, it holds all five."""
    parser = argparse.ArgumentParser(
        prog="atlab",
        description=(
            "Flat-torus determinants, genus-1 Arakelov invariants, effective "
            "log det bounds for g > 1, and the numeric claim audit."
        ),
        formatter_class=_HelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tau(p):
        p.add_argument("--tau", required=True, metavar="X,Y",
                       help="tau = x + iy as two decimals 'x,y' (y > 0); "
                            "write --tau=X,Y when x is negative")

    def add_form_area(p, form_help=None):  # bound's and table's: no other parser loads atlab.bounds
        from . import bounds
        p.add_argument("--form", choices=bounds.BOUND_FORMS, default="exact", help=form_help)
        p.add_argument("--area", choices=bounds.AREA_VARIANTS, default="c36")

    def add_bound(p):
        p.add_argument("--genus", type=_int, required=True)
        add_form_area(p)
        p.add_argument("--json", action="store_true")

    def add_elliptic(p):
        add_tau(p)
        p.add_argument("--json", action="store_true")

    def add_torus_det(p):
        add_tau(p)
        p.add_argument("--method", choices=("closed", "oracle", "both"), default="both",
                       help="both exits 1 if |difference| > torus.AGREEMENT_TOL max(1, |closed|)")

    def add_table(p):
        p.add_argument("--from", dest="g_from", type=_int, required=True)
        p.add_argument("--to", dest="g_to", type=_int, required=True)
        add_form_area(p, "changes nothing: every row carries both bounds (kept while "
                         "the benchmark's genus_table workload passes it)")
        p.add_argument("--csv", metavar="PATH")
        p.add_argument("--json", metavar="PATH")

    def add_verify_claims(p):
        p.add_argument("--only", metavar="IDS", help="comma-separated claim ids")
        p.add_argument("--json", metavar="PATH")
        p.add_argument("--strict", action="store_true",
                       help="exit 1 on non-allowlisted discrepancies")

    commands = (
        ("bound", _cmd_bound, add_bound, "genus-g upper bound breakdown (g >= 2)"),
        ("elliptic", _cmd_elliptic, add_elliptic, "genus-1 Arakelov quantities at tau"),
        ("torus-det", _cmd_torus_det, add_torus_det, "flat-torus log determinant"),
        ("table", _cmd_table, add_table, "per-genus bound table"),
        ("verify-claims", _cmd_verify_claims, add_verify_claims, "recompute the claim registry"),
    )
    chosen = [c for c in commands if c[0] == command] or commands
    for name, handler, add_arguments, help_text in chosen:
        p = sub.add_parser(name, help=help_text, formatter_class=_HelpFormatter)
        # a handler reports usage errors through its own subcommand's parser
        p.set_defaults(handler=handler, parser=p)
        add_arguments(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out, err = io.StringIO(), io.StringIO()  # each written once, when the command is done
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                args, extras = build_parser(argv[0] if argv else None).parse_known_args(argv)
                if extras:  # wherever they stood, through the chosen subcommand's parser
                    args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
                code = args.handler(args, args.parser)
            except SystemExit as exc:  # argparse exits (--help, usage errors); normalize it
                code = int(exc.code or 0)
        _write(sys.stdout, out.getvalue())
    except ValueError as exc:  # domain error raised by the library
        code = 2
        print(f"error: {exc}", file=err)
    except OSError as exc:  # a write failed (a full disk, /dev/full); a file write names its path
        code = 2
        name = "standard output" if exc.filename is None else exc.filename or "''"  # empty PATH
        print(f"error: cannot write {name}: {exc.strerror}", file=err)
    with contextlib.suppress(OSError):  # left unreported, so the exit code still tells
        _write(sys.stderr, err.getvalue())
    return code


def entrypoint() -> None:
    if hasattr(signal, "SIGPIPE"):  # end quietly on a closed pipe, like other filters
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    code = main()
    for stream in filter(None, (sys.stdout, sys.stderr)):  # None: its fd was closed
        try:  # what main failed to write is still buffered; its exit code tells
            stream.flush()
        except OSError:  # so point the fd at devnull, and the flush at exit has nothing to fail on
            with open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), stream.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
