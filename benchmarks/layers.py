"""The traced run: per-layer metrics from spans around calls into each layer.

Spans are recorded here, in the benchmark, around the public functions of
each atlab module (numerics, torus, elliptic, bounds, claims, cli) and around
child interpreters for start-up; nothing inside atlab is instrumented.
Timings of calls too short for one span each (microseconds) take one span
around a batch and divide by the batch size.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from pathlib import Path

from atlab import bounds, claims, cli, elliptic, numerics, torus
from workloads import (
    PRINTED_REL_TOL, REFERENCE_DIR, check_det, check_elliptic_payload, close,
    elliptic_payload, parse_tau,
)

CLAIM_IDS = [c["id"] for c in json.loads((REFERENCE_DIR / "audit.json").read_text())["claims"]]
STATUSES = ("CONFIRMED", "DISCREPANT", "ASSUMED", "AMBIGUOUS", "ERRORED")
REPEATS = 3
PROBE_TAU = "0.3,1.7"
# (argv, the library call the command makes for it); output paths are
# relative to the child's working directory.
CLI_COMMANDS = {
    "bound": (["bound", "--genus", "5"],
              lambda: bounds.upper_bound_logdet(5, "exact", "c36")),
    "elliptic": (["elliptic", "--tau", PROBE_TAU],
                 lambda: elliptic_payload(parse_tau(PROBE_TAU))),
    "torus-det": (["torus-det", "--tau", PROBE_TAU],
                  lambda: torus.compare_logdet(parse_tau(PROBE_TAU))),
    "table": (["table", "--from", "2", "--to", "3580", "--csv", "probe.csv"],
              lambda: bounds.table(2, 3580)),
    "verify-claims": (["verify-claims", "--strict", "--json", "probe.json"],
                      lambda: claims.run_all()),
}


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric the traced run reports."""
    spec = [
        ("startup.interpreter_s", "s", "lower"),
        ("startup.import_atlab_s", "s", "lower"),
        ("startup.import_numpy_s", "s", "lower"),
        ("startup.import_scipy_integrate_s", "s", "lower"),
        ("numerics.log_abs_eta_us", "us", "lower"),
        ("numerics.reduce_us", "us", "lower"),
        ("numerics.exp_integral_e1_us", "us", "lower"),
        ("numerics.zeta_em_deriv_us", "us", "lower"),
        ("torus.oracle_cold_ms", "ms", "lower"),
        ("torus.oracle_warm_ms", "ms", "lower"),
        ("torus.q_enum_ms", "ms", "lower"),
        ("torus.closed_us", "us", "lower"),
        ("torus.spectral_zeta0_ms", "ms", "lower"),
        ("torus.max_abs_diff", "1", "lower"),
        ("elliptic.payload_us", "us", "lower"),
        ("elliptic.faltings_delta_us", "us", "lower"),
        ("bounds.upper_bound_logdet_us", "us", "lower"),
        ("bounds.e_of_g_us", "us", "lower"),
        ("bounds.table_ms", "ms", "lower"),
        ("bounds.rows", "count", "higher"),
        ("claims.registry_ms", "ms", "lower"),
    ]
    spec += [(f"claims.eval.{cid}_ms", "ms", "lower") for cid in CLAIM_IDS]
    spec.append(("claims.to_json_ms", "ms", "lower"))
    spec += [(f"claims.status.{s.lower()}", "count",
              "higher" if s == "CONFIRMED" else "lower") for s in STATUSES]
    spec.append(("claims.uncovered_frac", "frac", "lower"))
    spec += [(f"cli.main_ms.{c}", "ms", "lower") for c in CLI_COMMANDS]
    spec += [(f"cli.self_ms.{c}", "ms", "lower") for c in CLI_COMMANDS]
    spec += [
        ("cli.process_overhead_s", "s", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.op_self_us", "us", "lower"),
        ("failed_frac", "frac", "lower"),
    ]
    return spec


class Probe:
    """Shared state of one traced run: tracer, failure tally, metrics."""

    def __init__(self, tracer, tally, harness, ref, seed: int, tmp: Path):
        self.tracer = tracer
        self.tally = tally
        self.harness = harness  # run.py Harness, for run_child
        self.ref = ref
        self.tmp = tmp
        # One pool block, in stratum order, picked by the seed: 64 taus that
        # span y = 0.01..100; every fourth of them for the costly oracle.
        self.taus = [parse_tau(t) for t in ref.pool[seed % len(ref.pool)]]
        self.tau_texts = ref.pool[seed % len(ref.pool)]
        self.metrics: dict[str, float] = {}
        self.cli_stdout: dict[str, str] = {}  # command -> in-process stdout

    def batch(self, name: str, fn, items, repeats: int = REPEATS) -> float:
        """Median seconds per item of fn over items, one span per pass."""
        for _ in range(repeats):
            with self.tracer.span(name):
                for item in items:
                    fn(item)
        return self.tracer.median(name) / len(items)

    # -- numerics -----------------------------------------------------------
    def numerics(self) -> None:
        m = self.metrics
        m["numerics.log_abs_eta_us"] = 1e6 * self.batch(
            "numerics.log_abs_eta", numerics.log_abs_eta, self.taus)
        m["numerics.reduce_us"] = 1e6 * self.batch(
            "numerics.reduce", numerics.reduce_to_fundamental_domain, self.taus)
        m["numerics.exp_integral_e1_us"] = 1e6 * self.batch(
            "numerics.exp_integral_e1", numerics.exp_integral_e1, [0.25] * 1000)
        m["numerics.zeta_em_deriv_us"] = 1e6 * self.batch(
            "numerics.zeta_em_deriv", numerics.zeta_em_deriv, [-1.0] * 20)

    # -- torus ----------------------------------------------------------------
    def torus(self) -> None:
        m = self.metrics
        gap = 0.0
        for text, tau in list(zip(self.tau_texts, self.taus))[::4]:
            fresh = torus.UnitTorus(tau)
            with self.tracer.span("torus.oracle_cold"):
                cold = torus.logdet_oracle(fresh)
            with self.tracer.span("torus.oracle_warm"):
                warm = torus.logdet_oracle(fresh)
            closed = torus.logdet_closed(tau)
            gap = max(gap, abs(cold - closed))
            self.tally.record(f"oracle {text}", check_det(closed, cold - closed, self.ref.closed[text])
                       or (None if warm == cold else "warm oracle differs from cold"))
        m["torus.oracle_cold_ms"] = 1e3 * self.tracer.median("torus.oracle_cold")
        m["torus.oracle_warm_ms"] = 1e3 * self.tracer.median("torus.oracle_warm")
        m["torus.q_enum_ms"] = m["torus.oracle_cold_ms"] - m["torus.oracle_warm_ms"]
        m["torus.closed_us"] = 1e6 * self.batch("torus.closed", torus.logdet_closed, self.taus)
        i = numerics.UpperHalfPoint(0.0, 1.0)
        for _ in range(REPEATS):
            with self.tracer.span("torus.spectral_zeta0"):
                z0 = torus.spectral_zeta(torus.UnitTorus(i), 0.0)
            self.tally.record("spectral_zeta(0)", None if abs(z0 + 1.0) <= 1e-6 else f"{z0!r}")
        m["torus.spectral_zeta0_ms"] = 1e3 * self.tracer.median("torus.spectral_zeta0")
        m["torus.max_abs_diff"] = gap

    # -- elliptic -------------------------------------------------------------
    def elliptic(self) -> None:
        m = self.metrics
        m["elliptic.payload_us"] = 1e6 * self.batch(
            "elliptic.payload", elliptic_payload, self.taus)
        for text, tau in zip(self.tau_texts, self.taus):
            self.tally.record(f"elliptic {text}", check_elliptic_payload(
                elliptic_payload(tau), tau, self.ref.closed[text]))
        i = numerics.UpperHalfPoint(0.0, 1.0)
        readings = ["direct", "shifted"] * 100
        m["elliptic.faltings_delta_us"] = 1e6 * self.batch(
            "elliptic.faltings_delta", lambda r: elliptic.faltings_delta_elliptic(i, r),
            readings)

    # -- bounds ---------------------------------------------------------------
    def bounds(self) -> None:
        m = self.metrics
        genera = range(2, 3581)
        m["bounds.upper_bound_logdet_us"] = 1e6 * self.batch(
            "bounds.upper_bound_logdet", bounds.upper_bound_logdet, genera)
        m["bounds.e_of_g_us"] = 1e6 * self.batch("bounds.e_of_g", bounds.e_of_g, genera)
        for _ in range(REPEATS):
            with self.tracer.span("bounds.table"):
                rows = bounds.table(2, 3580)
        bad = [r.breakdown.genus for r in rows if not close(
            r.breakdown.upper_exact,
            float(self.ref.bound_value(r.breakdown.genus, "upper_exact", "c36")),
            PRINTED_REL_TOL)]
        self.tally.record("table 2..3580", f"upper_exact differs at g={bad[:5]}" if bad else None)
        m["bounds.table_ms"] = 1e3 * self.tracer.median("bounds.table")
        m["bounds.rows"] = len(rows)

    # -- claims ---------------------------------------------------------------
    def claims(self) -> None:
        m, ref = self.metrics, {c["id"]: c for c in self.ref.audit["claims"]}
        for _ in range(5):
            with self.tracer.span("claims.registry"):
                registry = claims.builtin_registry()
        m["claims.registry_ms"] = 1e3 * self.tracer.median("claims.registry")
        # Rounds of every claim's evaluate, then one untraced audit op, so the
        # uncovered share compares times taken moments apart.
        uncovered = []
        for _ in range(5):
            counts = dict.fromkeys(STATUSES, 0)
            evals = 0.0
            for claim in registry:
                with self.tracer.span(f"claims.eval.{claim.id}") as span:
                    rec = claims.evaluate(claim)
                evals += span.duration
                counts[rec.status] += 1
                want = ref.get(claim.id, {}).get("status")
                self.tally.record(claim.id, None if rec.status == want
                           else f"status {rec.status} != {want}")
            t0 = time.perf_counter()
            report = claims.run_all()
            report.to_json()
            uncovered.append(1.0 - evals / (time.perf_counter() - t0))
        for claim in registry:
            m[f"claims.eval.{claim.id}_ms"] = 1e3 * self.tracer.median(f"claims.eval.{claim.id}")
        for s in STATUSES:
            m[f"claims.status.{s.lower()}"] = counts[s]
        for _ in range(5):
            with self.tracer.span("claims.to_json"):
                report.to_json()
        m["claims.to_json_ms"] = 1e3 * self.tracer.median("claims.to_json")
        m["claims.uncovered_frac"] = statistics.median(uncovered)

    # -- cli ------------------------------------------------------------------
    def cli(self) -> None:
        """In-process cli.main against the library call it makes; self time
        is the median of adjacent (main - library) pairs."""
        m = self.metrics
        for name, (argv, library_call) in CLI_COMMANDS.items():
            in_proc = [str(self.tmp / a) if a.startswith("probe.") else a for a in argv]
            own = []
            for _ in range(5):
                out = io.StringIO()
                with self.tracer.span(f"cli.main.{name}") as main, contextlib.redirect_stdout(out):
                    code = cli.main(in_proc)
                with self.tracer.span(f"cli.library.{name}") as lib:
                    library_call()
                own.append(main.duration - lib.duration)
            self.tally.record(f"cli.main {name}", None if code == 0 else f"exit code {code}")
            self.cli_stdout[name] = out.getvalue()
            m[f"cli.main_ms.{name}"] = 1e3 * self.tracer.median(f"cli.main.{name}")
            m[f"cli.self_ms.{name}"] = 1e3 * statistics.median(own)

    # -- start-up and whole processes ------------------------------------------
    def processes(self) -> None:
        """Bare interpreter, `import atlab` and each CLI command as children,
        taken in turn so each command's process overhead (child wall minus
        interpreter, import and in-process main) uses start-up times measured
        next to it."""
        m, h = self.metrics, self.harness
        timed_import = ("import time; t = time.perf_counter(); import atlab; "
                        "print(repr(time.perf_counter() - t))")
        imports, overheads = [], []
        for name, (argv, _) in CLI_COMMANDS.items():
            for _ in range(2):
                with self.tracer.span("startup.interpreter") as bare:
                    child = h.run_child(["-c", "pass"])
                self.tally.record("python -c pass", None if child.code == 0 else "exit code")
                with self.tracer.span("startup.import_atlab"):
                    child = h.run_child(["-c", timed_import])
                self.tally.record("import atlab", None if child.code == 0 else "exit code")
                imported = float(child.stdout) if child.code == 0 else float("nan")
                imports.append(imported)
                with self.tracer.span(f"cli.process.{name}") as proc:
                    child = h.run_child(["-m", "atlab.cli", *argv])
                err = None
                if child.code != 0:
                    err = f"exit code {child.code}"
                elif child.stdout.decode() != self.cli_stdout[name]:
                    err = "stdout differs from in-process cli.main"
                self.tally.record(f"cli {name}", err)
                overheads.append(proc.duration - bare.duration - imported
                                 - m[f"cli.main_ms.{name}"] / 1e3)
        m["startup.interpreter_s"] = self.tracer.median("startup.interpreter")
        m["startup.import_atlab_s"] = statistics.median(imports)
        m["cli.process_overhead_s"] = statistics.median(overheads)
        with self.tracer.span("startup.importtime"):
            child = h.run_child(["-X", "importtime", "-c", "import atlab, scipy.integrate"])
        cumulative = {}
        for line in child.stderr.decode().splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        self.tally.record("import time", None if {"numpy", "scipy.integrate"} <= set(cumulative)
                   else "numpy or scipy.integrate missing from -X importtime")
        m["startup.import_numpy_s"] = cumulative.get("numpy", 0.0)
        m["startup.import_scipy_integrate_s"] = cumulative.get("scipy.integrate", 0.0)

    def run_all_layers(self) -> None:
        for layer in (self.numerics, self.torus, self.elliptic, self.bounds,
                      self.claims, self.cli, self.processes):
            with self.tracer.span(f"layer.{layer.__name__}"):
                layer()


def trace_overhead(workload, harness, tracer, tally, budget: float) -> float:
    """Median op latency with spans over without, minus one.  Blocks of the
    workload's ops alternate between the two, so both see the same machine."""
    plain, traced = [], []
    t0 = time.perf_counter()
    for n, block in enumerate(workload.op_blocks()):
        samples, active = (traced, tracer) if n % 2 else (plain, None)
        for op in block:
            dt = harness.run_op(op, tally, active)
            if dt is not None:
                samples.append(dt)
        elapsed = time.perf_counter() - t0
        if elapsed >= budget and min(len(plain), len(traced)) >= 20 or elapsed > 4 * budget:
            break
    return statistics.median(traced) / statistics.median(plain) - 1.0

