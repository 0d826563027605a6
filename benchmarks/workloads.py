"""Seeded inputs, operations and output checks for the benchmark workloads.

Each workload yields its work in *blocks*.  A block is a fixed mix of input
sizes (genus windows) or a complete stratified set of inputs (tau), so any
whole number of blocks has the same cost distribution whatever the seed; the
seed only chooses positions, options and order.  The harness always finishes
the block it started, which keeps medians and p90 steady from seed to seed.

An in-process operation is an ``Op``: ``run(tracer)`` does the timed work and
returns its output, ``check(output)`` compares that output with the frozen
reference outside the timed region and returns an error message or None.
A CLI operation is a ``CliOp``: arguments after ``python -m atlab.cli``,
the files it writes (relative to the child's working directory), and
``check(returncode, stdout, files)``.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
import random
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

from atlab import bounds, claims, elliptic, torus
from atlab.numerics import LN_2PI, UpperHalfPoint
from spans import NULL_TRACER

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

# Genus windows: one block is this fixed multiset of window lengths.  The
# full 2..3580 table is always present; the median lands inside the run of
# 150-row windows and p90 inside the 1200-row ones, never on a class edge.
FULL_WINDOW = (2, 3580)
WINDOW_LENGTHS = (3579,) + (1200,) * 3 + (400,) * 3 + (150,) * 6 + (40,) * 4 + (9,) * 3
# One 150-row and one 40-row window per block straddle g = 3580, the start of
# the table's large-genus annotation branch.
ANNOTATION_GENUS = 3580
CROSSING_LENGTHS = (150, 40)
G_MAX = ANNOTATION_GENUS + max(CROSSING_LENGTHS) - 1
TABLE_COLUMNS = (
    "genus", "heat_term", "csel_lower", "log_area_bound", "a_g",
    "e_g_refined", "upper_exact", "upper_simplified", "paper_value", "delta",
)
BOUND_FIELDS = (
    "heat_integral", "heat_term", "csel_lower", "metric_ratio_bound_exact",
    "metric_ratio_bound_simplified", "log_area_bound", "a_g", "wilms_lower",
    "e_g_simple", "e_g_refined", "upper_exact", "upper_simplified",
)
AREA_DEPENDENT = ("log_area_bound", "upper_exact", "delta")

# Taus: the pool holds POOL_BLOCKS blocks of POOL_STRATA taus each; tau k of
# a block has log10(y) in stratum k of [-2, 2] and x uniform in [-3, 3].
POOL_BLOCKS = 128
POOL_STRATA = 64
CORNERS = ("0,1", "0.5,0.8660254037844386", "0,0.01", "0,100")
MIN_TIMED_OPS = 100  # at least ten latency samples beyond p90

AUDIT_STATUSES = {
    "CONFIRMED": 24, "DISCREPANT": 4, "ASSUMED": 1, "AMBIGUOUS": 1, "ERRORED": 0,
}
GAP_TOL = 1e-10  # |oracle - closed| allowed per torus (seed: <= 3e-14)
REL_TOL = 1e-12  # frozen full-precision values
PRINTED_REL_TOL = 1e-11  # values printed or frozen at 12 significant digits
_NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable
    check: Callable


@dataclass(frozen=True)
class CliOp:
    args: tuple
    files: tuple
    check: Callable


# ---------------------------------------------------------------------------
# Frozen reference outputs (written by freeze.py at the seed commit).
# ---------------------------------------------------------------------------

def _read_csv_gz(name: str) -> list[dict]:
    with gzip.open(REFERENCE_DIR / name, "rt", newline="") as fh:
        return list(csv.DictReader(fh))


@dataclass
class Reference:
    audit: dict       # the `verify-claims --json` report
    bounds: dict      # genus -> {field or field@area: 12-digit string}
    pool: list        # POOL_BLOCKS lists of POOL_STRATA "x,y" strings
    closed: dict      # "x,y" -> logdet_closed, full precision

    @classmethod
    def load(cls) -> "Reference":
        audit = json.loads((REFERENCE_DIR / "audit.json").read_text())
        bnd = {int(row["genus"]): row for row in _read_csv_gz("bounds.csv.gz")}
        pool: list[list[str]] = [[] for _ in range(POOL_BLOCKS)]
        closed = {}
        for row in _read_csv_gz("torus.csv.gz"):
            tau = f"{row['x']},{row['y']}"
            closed[tau] = float(row["logdet_closed"])
            if row["block"] != "corner":
                pool[int(row["block"])].append(tau)
        return cls(audit, bnd, pool, closed)

    def bound_value(self, g: int, field: str, area: str) -> str:
        row = self.bounds[g]
        return row[f"{field}@{area}"] if field in AREA_DEPENDENT else row[field]


# ---------------------------------------------------------------------------
# Comparisons.
# ---------------------------------------------------------------------------

def close(value: float, ref: float, rel: float = REL_TOL) -> bool:
    """|value - ref| <= rel * max(|ref|, 1): relative, absolute near zero."""
    return abs(value - ref) <= rel * max(abs(ref), 1.0)


def _printed_equal(value, ref: str) -> bool:
    """A table/bound value against its frozen 12-digit string ('' = None)."""
    if ref == "":
        return value in (None, "")
    if value in (None, ""):
        return False
    return close(float(value), float(ref), PRINTED_REL_TOL)


def _text_numbers_equal(text: str, ref: str) -> bool:
    """Free-text values match when they carry the same numbers."""
    got, want = _NUMBER.findall(text), _NUMBER.findall(ref)
    return len(got) == len(want) and all(
        close(float(a), float(b)) for a, b in zip(got, want))


def check_audit_report(report: dict, ref: dict) -> str | None:
    want = {c["id"]: c for c in ref["claims"]}
    got = {c["id"]: c for c in report["claims"]}
    if list(got) != list(want):
        return f"claim ids differ: {sorted(set(got) ^ set(want))}"
    counts = dict.fromkeys(AUDIT_STATUSES, 0)
    for cid, rec in got.items():
        exp = want[cid]
        counts[rec["status"]] = counts.get(rec["status"], 0) + 1
        if rec["status"] != exp["status"]:
            return f"{cid}: status {rec['status']} != {exp['status']}"
        a, b = rec["computed"], exp["computed"]
        if isinstance(b, (int, float)) and not isinstance(b, bool):
            if not isinstance(a, (int, float)) or not close(a, b):
                return f"{cid}: computed {a!r} != {b!r}"
        elif isinstance(b, str):
            if not isinstance(a, str) or not _text_numbers_equal(a, b):
                return f"{cid}: computed {a!r} != {b!r}"
        elif a != b:
            return f"{cid}: computed {a!r} != {b!r}"
    if counts != AUDIT_STATUSES:
        return f"status counts {counts} != {AUDIT_STATUSES}"
    if report["summary"] != ref["summary"]:
        return f"summary {report['summary']} != {ref['summary']}"
    return None


def check_table_rows(rows: list[dict], g_from: int, g_to: int, area: str,
                     ref: Reference) -> str | None:
    """Rows as read back from the CSV (strings) or the JSON (numbers)."""
    if [int(r["genus"]) for r in rows] != list(range(g_from, g_to + 1)):
        return f"table {g_from}..{g_to}: wrong genus column"
    for r in rows:
        g = int(r["genus"])
        for col in TABLE_COLUMNS[1:]:
            if not _printed_equal(r[col], ref.bound_value(g, col, area)):
                return f"table g={g} {col}={r[col]!r} != {ref.bound_value(g, col, area)!r}"
    return None


def check_bound_fields(fields: dict, g: int, form: str, area: str,
                       ref: Reference) -> str | None:
    if int(fields["genus"]) != g or fields["area_variant"] != area:
        return f"bound g={g}: wrong genus or area_variant"
    for name in BOUND_FIELDS:
        if not _printed_equal(fields[name], ref.bound_value(g, name, area)):
            return f"bound g={g} {name}={fields[name]!r}"
    headline = "upper_exact" if form == "exact" else "upper_simplified"
    if "upper_bound" in fields and not _printed_equal(
            fields["upper_bound"], ref.bound_value(g, headline, area)):
        return f"bound g={g}: upper_bound {fields['upper_bound']!r}"
    return None


def parse_tau(text: str) -> UpperHalfPoint:
    x, y = text.split(",")
    return UpperHalfPoint(float(x), float(y))


def elliptic_payload(tau: UpperHalfPoint) -> dict:
    """The quantities `atlab elliptic` prints, through the public functions."""
    logdet = elliptic.arakelov_logdet(tau)
    bound = elliptic.elliptic_upper_bound_log(tau)
    return {
        "arakelov_area": elliptic.arakelov_area(tau),
        "log_arakelov_area": elliptic.log_arakelov_area(tau),
        "arakelov_logdet": logdet,
        "d_ar": elliptic.d_ar_elliptic(tau),
        "upper_bound_log": bound,
        "bound_slack": bound - logdet,
    }


def check_elliptic_payload(payload: dict, tau: UpperHalfPoint, closed: float,
                           rel: float = REL_TOL) -> str | None:
    """Every printed elliptic quantity follows from the frozen closed form:
    d_ar = log y + 4 log|eta| is that value itself."""
    log_y = math.log(tau.y)
    log_eta = (closed - log_y) / 4.0
    log_area = LN_2PI + log_y + 2.0 * log_eta
    logdet = LN_2PI + 2.0 * log_y + 6.0 * log_eta
    bound = LN_2PI + 2.0 * log_y - 0.5 * math.pi * tau.y + 3.0 / (math.pi * tau.y)
    want = {
        "arakelov_area": math.exp(log_area),
        "log_arakelov_area": log_area,
        "arakelov_logdet": logdet,
        "d_ar": closed,
        "upper_bound_log": bound,
    }
    for key, value in want.items():
        if not close(float(payload[key]), value, rel):
            return f"elliptic {key}={payload[key]!r}, expected {value!r}"
    slack = float(payload["bound_slack"])
    if abs(slack - (bound - logdet)) > rel * max(abs(bound), abs(logdet), 1.0):
        return f"elliptic bound_slack={slack!r}"
    return None


def check_det(closed: float, difference: float, ref_closed: float,
              rel: float = REL_TOL) -> str | None:
    if not close(closed, ref_closed, rel):
        return f"logdet_closed {closed!r} != frozen {ref_closed!r}"
    if not abs(difference) <= GAP_TOL:
        return f"|oracle - closed| = {difference!r} > {GAP_TOL}"
    return None


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------

class Workload:
    """Inputs of one workload for one seed; ``ref`` is needed only by checks."""

    name = ""

    def __init__(self, seed: int, tmp: Path, ref: Reference | None = None):
        self.seed = seed
        self.tmp = tmp
        self.ref = ref
        # Separate streams, so the in-process inputs do not depend on how
        # many CLI blocks the time budget allowed.
        self.rng = random.Random(f"{self.name}:{seed}:ops")
        self.cli_rng = random.Random(f"{self.name}:{seed}:cli")

    def warmup(self) -> Op:
        """The fixed first operation, run untimed before the in-process phase
        and, in a fresh interpreter, as part of set-up."""
        raise NotImplementedError

    def op_blocks(self):
        """Blocks (lists) of in-process Ops, in order."""
        raise NotImplementedError

    def cli_blocks(self):
        """Blocks (lists) of CliOps, in order."""
        raise NotImplementedError


class Audit(Workload):
    """The full 30-claim audit; the inputs are the same every time."""

    name = "audit"

    def warmup(self) -> Op:
        return self._op()

    def _op(self) -> Op:
        def run(tracer):
            with tracer.span("claims.run_all"):
                report = claims.run_all()
            with tracer.span("claims.to_json"):
                return report.to_json()
        return Op("audit", run, lambda text: check_audit_report(json.loads(text), self.ref.audit))

    def op_blocks(self):
        while True:
            yield [self._op()]

    def cli_blocks(self):
        def check(code, stdout, files):
            if code != 0:
                return f"verify-claims --strict exited {code}"
            if not stdout.rstrip().endswith(_summary_line(self.ref.audit)):
                return "verify-claims: summary line differs"
            return check_audit_report(json.loads(files["report.json"]), self.ref.audit)
        op = CliOp(("verify-claims", "--strict", "--json", "report.json"), ("report.json",),
                   check)
        while True:
            yield [op]


def _summary_line(report: dict) -> str:
    return "summary: " + "  ".join(f"{k}={v}" for k, v in report["summary"].items())


def write_table(rows, csv_path: Path, json_path: Path) -> None:
    """The CSV and JSON files `atlab table` writes, from bounds.table rows."""
    dicts = []
    for row in rows:
        bd = row.breakdown
        d = {col: getattr(bd, col) for col in TABLE_COLUMNS[:-2]}
        d["paper_value"] = row.paper_value
        d["delta"] = row.delta
        dicts.append(d)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TABLE_COLUMNS)
        for d in dicts:
            writer.writerow(["" if d[c] is None else
                             f"{d[c]:.12g}" if isinstance(d[c], float) else str(d[c])
                             for c in TABLE_COLUMNS])
    with open(json_path, "w") as fh:
        json.dump(dicts, fh, indent=2)
        fh.write("\n")


def read_csv_rows(text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    if tuple(reader.fieldnames or ()) != TABLE_COLUMNS:
        raise ValueError(f"CSV header {reader.fieldnames}")
    return list(reader)


class GenusTable(Workload):
    """Bound tables over seeded genus windows, and single-genus bounds."""

    name = "genus_table"

    @staticmethod
    def _options(rng) -> tuple[str, str]:
        return rng.choice(bounds.BOUND_FORMS), rng.choice(bounds.AREA_VARIANTS)

    def windows(self) -> list[tuple[int, int, str, str]]:
        """One block of windows (g_from, g_to, form, area), shuffled."""
        rng = self.rng
        out = [(*FULL_WINDOW, "exact", "c36")]
        crossing = list(CROSSING_LENGTHS)
        for length in WINDOW_LENGTHS[1:]:
            if length in crossing:
                crossing.remove(length)
                start = rng.randint(ANNOTATION_GENUS - length + 2, ANNOTATION_GENUS)
            else:
                start = rng.randint(2, ANNOTATION_GENUS - length + 1)
            out.append((start, start + length - 1, *self._options(rng)))
        rng.shuffle(out)
        return out

    def _op(self, window) -> Op:
        g_from, g_to, form, area = window
        csv_path, json_path = self.tmp / "table.csv", self.tmp / "table.json"

        def run(tracer):
            with tracer.span("bounds.table"):
                rows = bounds.table(g_from, g_to, form, area)
            with tracer.span("table.write"):
                write_table(rows, csv_path, json_path)

        def check(_):
            err = check_table_rows(read_csv_rows(csv_path.read_text()),
                                   g_from, g_to, area, self.ref)
            return err or check_table_rows(json.loads(json_path.read_text()),
                                           g_from, g_to, area, self.ref)
        return Op(f"table {g_from}..{g_to} {form} {area}", run, check)

    def warmup(self) -> Op:
        return self._op((*FULL_WINDOW, "exact", "c36"))

    def op_blocks(self):
        while True:
            yield [self._op(w) for w in self.windows()]

    def _table_cli(self, window, fmt: str) -> CliOp:
        g_from, g_to, form, area = window
        out = f"table.{fmt}"

        def check(code, stdout, files):
            if code != 0 or stdout:
                return f"table exited {code}"
            text = files[out]
            rows = read_csv_rows(text) if fmt == "csv" else json.loads(text)
            return check_table_rows(rows, g_from, g_to, area, self.ref)
        args = ("table", "--from", str(g_from), "--to", str(g_to), "--form", form,
                "--area", area, f"--{fmt}", out)
        return CliOp(args, (out,), check)

    def _bound_cli(self, as_json: bool) -> CliOp:
        g = self.cli_rng.randint(2, G_MAX)
        form, area = self._options(self.cli_rng)

        def check(code, stdout, files):
            if code != 0:
                return f"bound exited {code}"
            if as_json:
                fields = json.loads(stdout)
                if fields.get("form") != form:
                    return "bound --json: wrong form"
            else:
                lines = stdout.splitlines()
                head = f"genus {g} upper bound on log det ({form}, {area}): "
                if not lines[0].startswith(head):
                    return f"bound: header {lines[0]!r}"
                fields = dict(line.split(None, 1) for line in lines[1:])
                fields["genus"] = g
                fields["upper_bound"] = lines[0][len(head):]
            return check_bound_fields(fields, g, form, area, self.ref)
        args = ("bound", "--genus", str(g), "--form", form, "--area", area)
        return CliOp(args + (("--json",) if as_json else ()), (), check)

    def cli_blocks(self):
        # Three bound children and two table children per block, so the
        # median falls among the bounds, not on the edge between classes.
        while True:
            full = (*FULL_WINDOW, "exact", "c36")
            start = self.cli_rng.randint(2, ANNOTATION_GENUS - 399)
            mid = (start, start + 399, *self._options(self.cli_rng))
            block = [self._table_cli(full, "csv"), self._table_cli(mid, "json"),
                     self._bound_cli(False), self._bound_cli(True), self._bound_cli(False)]
            self.cli_rng.shuffle(block)
            yield block


class TorusSweep(Workload):
    """Flat-torus determinants both ways plus the genus-1 quantities, over
    taus from the frozen stratified pool; no tau repeats within a run."""

    name = "torus_sweep"

    @cached_property
    def tau_blocks(self) -> list[list[str]]:
        """The pool's blocks in seeded order, each shuffled; computed once,
        so the in-process and CLI phases split one permutation."""
        blocks = [list(b) for b in self.ref.pool]
        self.rng.shuffle(blocks)
        for block in blocks:
            self.rng.shuffle(block)
        return blocks

    def _op(self, tau_text: str) -> Op:
        tau = parse_tau(tau_text)

        def run(tracer):
            with tracer.span("torus.compare_logdet"):
                cmp = torus.compare_logdet(tau)
            with tracer.span("elliptic.payload"):
                return cmp, elliptic_payload(tau)

        def check(out):
            cmp, payload = out
            ref = self.ref.closed[tau_text]
            return (check_det(cmp.logdet_closed, cmp.difference, ref)
                    or check_elliptic_payload(payload, tau, ref))
        return Op(f"tau {tau_text}", run, check)

    def warmup(self) -> Op:
        return self._op(CORNERS[0])

    def op_blocks(self):
        """Blocks from the front of the shuffled pool; the last block is kept
        for the CLI phase, so the phase ends when the pool runs out."""
        first = [self._op(t) for t in CORNERS[1:]]
        for i, block in enumerate(self.tau_blocks[:-1]):
            yield (first if i == 0 else []) + [self._op(t) for t in block]

    def _det_cli(self, tau_text: str) -> CliOp:
        def check(code, stdout, files):
            if code != 0:
                return f"torus-det exited {code}"
            vals = dict(line.split() for line in stdout.splitlines())
            return check_det(float(vals["logdet_closed"]), float(vals["difference"]),
                             self.ref.closed[tau_text], PRINTED_REL_TOL)
        return CliOp(("torus-det", f"--tau={tau_text}", "--method", "both"), (), check)

    def _elliptic_cli(self, tau_text: str) -> CliOp:
        tau = parse_tau(tau_text)

        def check(code, stdout, files):
            if code != 0:
                return f"elliptic exited {code}"
            payload = json.loads(stdout)
            if payload["tau"] != {"x": tau.x, "y": tau.y}:
                return f"elliptic: tau {payload['tau']}"
            return check_elliptic_payload(payload, tau, self.ref.closed[tau_text])
        return CliOp(("elliptic", f"--tau={tau_text}", "--json"), (), check)

    def cli_blocks(self):
        taus = iter(self.tau_blocks[-1])
        for a, b in zip(taus, taus):
            yield [self._det_cli(a), self._elliptic_cli(b)]


WORKLOADS = {w.name: w for w in (Audit, GenusTable, TorusSweep)}


def setup_main(name: str, tmp: str) -> None:
    """Body of a set-up child: run the workload's warm-up op once.

    The child has already imported atlab by importing this module."""
    WORKLOADS[name](0, Path(tmp)).warmup().run(NULL_TRACER)
