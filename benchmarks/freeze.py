"""Freeze the reference outputs the benchmark checks every operation against.

Run once, from the repository root, at the commit whose outputs become the
reference:

    PYTHONPATH=src python3 benchmarks/freeze.py

It writes, under benchmarks/reference/:

* audit.json    the `verify-claims --json` report (statuses, computed values);
* bounds.csv.gz every BoundBreakdown field, the reference column and its
                delta, for g = 2..G_MAX under both area variants, at the 12
                significant digits the CLI prints;
* torus.csv.gz  the tau pool (POOL_BLOCKS blocks, one tau per log10(y)
                stratum in each) and the corners, with the closed-form log
                determinant at full precision.  Each tau is also run through
                the oracle, and the script refuses to write a pool on which
                the two differ by more than the benchmark's gap tolerance.
* meta.json     versions and commit the reference was taken from.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import random
import sys

import numpy
import scipy

import atlab
from atlab import bounds, claims, torus
from workloads import (
    AREA_DEPENDENT, BOUND_FIELDS, CORNERS, G_MAX, GAP_TOL, POOL_BLOCKS,
    POOL_STRATA, REFERENCE_DIR, parse_tau,
)
from machine import git_state

POOL_SEED = 20190321


def _g12(value) -> str:
    return "" if value is None else f"{value:.12g}"


def _write_csv_gz(name: str, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    # mtime=0 keeps the file byte-identical across re-freezes.
    with open(REFERENCE_DIR / name, "wb") as fh:
        with gzip.GzipFile(fileobj=fh, mode="wb", mtime=0) as gz:
            gz.write(buf.getvalue().encode())


def freeze_bounds() -> None:
    areas = bounds.AREA_VARIANTS
    shared = [f for f in BOUND_FIELDS if f not in AREA_DEPENDENT] + ["paper_value"]
    per_area = [f"{f}@{a}" for a in areas for f in AREA_DEPENDENT]
    rows = []
    for g in range(2, G_MAX + 1):
        by_area = {}
        for area in areas:
            (row,) = bounds.table(g, g, "exact", area)
            by_area[area] = row
        bd = by_area[areas[0]].breakdown
        out = [g] + [_g12(getattr(bd, f)) for f in shared[:-1]]
        out.append(_g12(by_area[areas[0]].paper_value))
        for area in areas:
            row = by_area[area]
            out += [_g12(row.breakdown.log_area_bound), _g12(row.breakdown.upper_exact),
                    _g12(row.delta)]
        rows.append(out)
    _write_csv_gz("bounds.csv.gz", ["genus"] + shared + per_area, rows)


def tau_pool(seed: int = POOL_SEED) -> list[list[str]]:
    """POOL_BLOCKS blocks; tau k of a block has log10(y) uniform in stratum k
    of [-2, 2] and x uniform in [-3, 3].  Written as short decimal literals,
    so the CLI and the library parse the same doubles."""
    rng = random.Random(seed)
    seen = set(CORNERS)
    pool = []
    for _ in range(POOL_BLOCKS):
        block = []
        for k in range(POOL_STRATA):
            while True:
                u = (k + rng.random()) / POOL_STRATA
                tau = f"{rng.uniform(-3.0, 3.0):.6f},{10.0 ** (4.0 * u - 2.0):.6g}"
                if tau not in seen:
                    break
            seen.add(tau)
            block.append(tau)
        pool.append(block)
    return pool


def freeze_torus() -> None:
    rows = []
    labelled = [("corner", t) for t in CORNERS]
    labelled += [(b, t) for b, block in enumerate(tau_pool()) for t in block]
    for label, text in labelled:
        cmp = torus.compare_logdet(parse_tau(text))
        if not abs(cmp.difference) <= GAP_TOL:
            sys.exit(f"tau {text}: |oracle - closed| = {cmp.difference!r}")
        x, y = text.split(",")
        rows.append([label, x, y, repr(cmp.logdet_closed)])
    _write_csv_gz("torus.csv.gz", ["block", "x", "y", "logdet_closed"], rows)


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    (REFERENCE_DIR / "audit.json").write_text(claims.run_all().to_json() + "\n")
    freeze_bounds()
    freeze_torus()
    meta = {"atlab": atlab.__version__, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__, **git_state()}
    (REFERENCE_DIR / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")


if __name__ == "__main__":
    main()
