"""atlab benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 benchmarks/run.py --workload audit --seed 1 --seconds 30 --trace 0

Run from the repository root (or any checkout of it).  A run has

* set-up: fresh interpreters that import atlab and run the workload's first
  operation (``setup_s``);
* a CLI phase: ``python -m atlab.cli`` children, one at a time, closed loop
  with one client;
* an in-process phase: calls into atlab's public functions, closed loop with
  one client, at least MIN_TIMED_OPS operations.

The phases take turns in blocks for ``--seconds`` of CLI and in-process time,
about half each.

With ``--trace 1`` it instead makes the traced run of layers.py: per-layer
metrics from spans, plus the overhead of tracing on the workload's ops.

Every operation's output is checked against the frozen reference.  The
last line of standard output is the JSON result; the lines before it print
every metric with its unit.  Details (machine, samples, output hashes,
failures) go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from spans import NULL_TRACER

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 60
LOOP_DEADLINE_S = 100  # a run whose ops keep failing still ends in time
SETUP_REPEATS = 5

# Speed calibration.  On a shared host CPU speed can swing by ~40% over
# seconds to minutes (other tenants), which moves every timing of a run
# together.  Each timing is therefore taken next to a calibration (a fixed
# pure-Python loop) and reported at the reference speed at which that loop
# takes CALIBRATION_REFERENCE_S: t * CALIBRATION_REFERENCE_S / calibration.
# Raw times and calibrations are kept in the details file.
CALIBRATION_LOOP = 30_000
CALIBRATION_REFERENCE_S = 2.5e-3

# name -> unit; BENCHMARK.json declares the same names.
END_TO_END = {
    "setup_s": "s",
    "cli_p50_s": "s",
    "cli_peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "ok_frac": "frac",
}


@dataclass
class Child:
    code: int
    wall: float
    maxrss_kb: int
    stdout: bytes
    stderr: bytes


class Tally:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, label: str, err: str | None) -> None:
        self.attempted += 1
        if err is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{label}: {err}")


class Harness:
    """Runs child interpreters and in-process operations for one run."""

    def __init__(self, tmp: Path) -> None:
        self.cwd = tmp / "cli"
        self.cwd.mkdir(parents=True)
        # The CLI reads ATL_PRECISION; a stray value would change the work.
        self.env = {k: v for k, v in os.environ.items() if k != "ATL_PRECISION"}
        self.env["PYTHONPATH"] = str(SRC)

    def run_child(self, argv: list[str]) -> Child:
        """sys.executable with argv, in the per-run temp dir; wall time from
        spawn to reap, and the child's own peak RSS from wait4."""
        out_path, err_path = self.cwd / ".stdout", self.cwd / ".stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                    env=self.env, cwd=self.cwd)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_maxrss,
                     out_path.read_bytes(), err_path.read_bytes())

    @staticmethod
    def run_op(op, tally: Tally, tracer=None) -> float | None:
        """Time op.run, then check its output untimed.  Returns the latency,
        or None when the op raised."""
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op.run(NULL_TRACER)
            else:
                with tracer.span("op"):
                    out = op.run(tracer)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            tally.record(op.label, f"raised {exc!r}")
            return None
        dt = time.perf_counter() - t0
        try:
            err = op.check(out)
        except Exception as exc:  # noqa: BLE001
            err = f"check raised {exc!r}"
        tally.record(op.label, err)
        return dt


def calibration() -> float:
    """Seconds for the fixed calibration loop, median of three."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOP):
            total += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def setup_child(harness: Harness, name: str, tally: Tally) -> float:
    """Wall time of a fresh interpreter that imports atlab and runs the
    workload's warm-up op."""
    code = (f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import workloads; "
            f"workloads.setup_main({name!r}, {str(harness.cwd)!r})")
    child = harness.run_child(["-c", code])
    tally.record("setup", None if child.code == 0 else
                 f"exit {child.code}: {child.stderr.decode()[-300:]}")
    return child.wall


def cli_op(harness: Harness, op, tally: Tally, hashes: dict) -> Child:
    """One CLI child, its output checked and its bytes hashed."""
    for name in op.files:
        (harness.cwd / name).unlink(missing_ok=True)
    child = harness.run_child(["-m", "atlab.cli", *op.args])
    files = {n: (harness.cwd / n).read_bytes() for n in op.files
             if (harness.cwd / n).exists()}
    digest = {"stdout": hashlib.sha256(child.stdout).hexdigest()}
    digest.update({n: hashlib.sha256(b).hexdigest() for n, b in files.items()})
    key = " ".join(op.args)
    err = None
    if hashes.setdefault(key, digest) != digest:
        err = "same arguments, different output bytes"
    try:
        err = err or op.check(child.code, child.stdout.decode(),
                              {n: b.decode() for n, b in files.items()})
    except Exception as exc:  # noqa: BLE001
        err = f"check raised {exc!r}"
    if err and child.stderr:
        err += f" [stderr: {child.stderr.decode()[-300:]}]"
    tally.record(f"cli {key}", err)
    return child


def untraced_run(harness, workload, seconds, tally, details) -> dict:
    """Set-up children, CLI blocks and in-process blocks take turns, the
    in-process ones for as long as the CLI block before them, so every metric
    samples the whole run rather than one stretch of a machine whose speed
    drifts.  Runs until CLI and in-process time reach ``seconds`` and the
    sample minimums are met.  Each set-up child, CLI child and in-process
    block is preceded by a calibration, and its times are scaled by it."""
    from workloads import MIN_TIMED_OPS
    setup_child(harness, workload.name, tally)  # unrecorded: compiles bytecode
    harness.run_op(workload.warmup(), tally)  # checked, not timed
    hashes: dict = {}
    setup, walls, rss, lat = [], [], [], []
    raw: dict[str, list] = {"setup_s": [], "cli_s": [], "op_s": [], "calibration_s": []}

    def scale() -> float:
        cal = calibration()
        raw["calibration_s"].append(cal)
        return CALIBRATION_REFERENCE_S / cal
    cli_blocks, op_blocks = workload.cli_blocks(), workload.op_blocks()
    busy, deadline = 0.0, time.perf_counter() + LOOP_DEADLINE_S
    while ((busy < seconds or len(setup) < SETUP_REPEATS or len(lat) < MIN_TIMED_OPS)
           and time.perf_counter() < deadline):
        # One set-up child per round in the first half, the rest after it.
        for _ in range(min(1 if busy < seconds / 2 else SETUP_REPEATS,
                           SETUP_REPEATS - len(setup))):
            k = scale()
            raw["setup_s"].append(setup_child(harness, workload.name, tally))
            setup.append(k * raw["setup_s"][-1])
        t0, attempted = time.perf_counter(), tally.attempted
        for op in next(cli_blocks, ()):
            k = scale()
            child = cli_op(harness, op, tally, hashes)
            raw["cli_s"].append(child.wall)
            walls.append(k * child.wall)
            rss.append(child.maxrss_kb)
        t1 = time.perf_counter()
        slice_s = max(t1 - t0, 0.5)
        while time.perf_counter() - t1 < slice_s:
            block = next(op_blocks, None)
            if block is None:
                break
            k = scale()
            for op in block:
                dt = harness.run_op(op, tally)
                if dt is not None:
                    raw["op_s"].append(dt)
                    lat.append(k * dt)
        busy += time.perf_counter() - t0
        if tally.attempted == attempted:
            break  # both input streams are used up
    if not (setup and walls and lat):
        raise RuntimeError("no successful samples in a phase: " + "; ".join(tally.errors[:3]))
    details.update(raw, cli_maxrss_kb=rss, output_sha256=hashes)
    return {
        "setup_s": statistics.median(setup),
        "cli_p50_s": statistics.median(walls),
        "cli_peak_rss_mb": max(rss) / 1024.0,
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
        "ops_per_s": len(lat) / sum(lat),
        "ok_frac": 1.0 - tally.failed / tally.attempted,
    }


def traced_run(harness, workload, seconds, tally, details, ref, seed, tmp, stem) -> dict:
    from layers import Probe, per_layer_spec, trace_overhead
    from spans import Tracer
    tracer = Tracer()
    probe = Probe(tracer, tally, harness, ref, seed, tmp)
    probe.run_all_layers()
    found = probe.metrics
    found["trace.overhead_frac"] = trace_overhead(workload, harness, tracer, tally,
                                                  seconds / 2)
    found["trace.spans"] = len(tracer.spans)
    own = tracer.self_times()
    found["trace.op_self_us"] = 1e6 * statistics.median(own["op"])
    details["self_ms_median"] = {k: 1e3 * statistics.median(v) for k, v in own.items()}
    found["failed_frac"] = tally.failed / tally.attempted
    spans_path = OUT_DIR / f"{stem}-spans.json"
    tracer.dump(spans_path)
    details["spans_file"] = str(spans_path.relative_to(ROOT))
    return {name: found[name] for name, _, _ in per_layer_spec()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("audit", "genus_table", "torus_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "atlab" / "__init__.py").is_file():
        print(f"error: no atlab package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    os.environ.pop("ATL_PRECISION", None)
    import atlab
    if Path(atlab.__file__).resolve().parent != SRC / "atlab":
        print(f"error: imported atlab from {atlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from machine import machine_info
    from workloads import WORKLOADS, Reference

    # Turn SIGTERM into SystemExit, so a stopped run kills its child and
    # removes its temp dir on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    details: dict = {"args": vars(args), "machine": machine_info()}
    tally = Tally()
    try:
        harness = Harness(tmp)
        ref = Reference.load()
        workload = WORKLOADS[args.workload](args.seed, tmp, ref)
        if args.trace:
            from layers import per_layer_spec
            metrics = traced_run(harness, workload, args.seconds, tally, details,
                                 ref, args.seed, tmp, stem)
            units = {name: unit for name, unit, _ in per_layer_spec()}
        else:
            metrics = untraced_run(harness, workload, args.seconds, tally, details)
            units = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    details["machine"]["loadavg_1m_end"] = os.getloadavg()[0]
    details.update(result, errors=tally.errors)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")

    for err in tally.errors:
        print(f"FAILED {err}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6g} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
