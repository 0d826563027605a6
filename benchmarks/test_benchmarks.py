"""Tests of the benchmark itself: seeded inputs, output checks, spans.

Run with the rest of the suite:  PYTHONPATH=src python -m pytest -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import workloads
from layers import per_layer_spec
from run import END_TO_END, Harness, Tally
from spans import Span, Tracer, covered

BENCHMARK_JSON = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


@pytest.fixture(scope="module")
def ref():
    return workloads.Reference.load()


def _windows(seed, blocks=3):
    gen = workloads.GenusTable(seed, Path("."))
    return [gen.windows() for _ in range(blocks)]


def _cli_args(workload, blocks=2):
    out = []
    for _, block in zip(range(blocks), workload.cli_blocks()):
        out += [op.args for op in block]
    return out


def test_same_seed_same_inputs(ref):
    assert _windows(7) == _windows(7)
    assert _windows(7) != _windows(8)
    taus = workloads.TorusSweep(7, Path("."), ref).tau_blocks
    assert taus == workloads.TorusSweep(7, Path("."), ref).tau_blocks
    assert taus != workloads.TorusSweep(8, Path("."), ref).tau_blocks
    for name in ("genus_table", "torus_sweep"):
        a = _cli_args(workloads.WORKLOADS[name](7, Path("."), ref))
        assert a == _cli_args(workloads.WORKLOADS[name](7, Path("."), ref))


def test_window_blocks_keep_their_shape():
    for block in _windows(3, blocks=5):
        lengths = sorted(g_to - g_from + 1 for g_from, g_to, _, _ in block)
        assert lengths == sorted(workloads.WINDOW_LENGTHS)
        assert workloads.FULL_WINDOW + ("exact", "c36") in block
        crossing = [w for w in block if w[0] < workloads.ANNOTATION_GENUS < w[1]]
        assert len(crossing) == len(workloads.CROSSING_LENGTHS)
        assert all(2 <= w[0] and w[1] <= workloads.G_MAX for w in block)


def test_no_tau_repeats_within_a_run(ref):
    sweep = workloads.TorusSweep(5, Path("."), ref)
    in_process = [op.label for block in sweep.op_blocks() for op in block]
    in_process.append(sweep.warmup().label)
    cli = [op.args[1] for block in sweep.cli_blocks() for op in block]
    assert len(set(in_process)) == len(in_process)
    assert len(set(cli)) == len(cli)
    assert not {t.split(" ", 1)[1] for t in in_process} & {a.split("=", 1)[1] for a in cli}
    assert {"tau " + c for c in workloads.CORNERS} <= set(in_process)


def test_every_tau_has_a_frozen_closed_form(ref):
    pool = [t for block in ref.pool for t in block]
    assert len(pool) == workloads.POOL_BLOCKS * workloads.POOL_STRATA
    assert set(pool) | set(workloads.CORNERS) == set(ref.closed)


def test_correct_ops_pass_and_perturbed_reference_fails(ref, tmp_path):
    window = (3570, 3590, "simplified", "e4pi")
    op = workloads.GenusTable(0, tmp_path, ref)._op(window)
    tally = Tally()
    assert Harness.run_op(op, tally) is not None
    assert (tally.attempted, tally.failed) == (1, 0)

    row = dict(ref.bounds[3580])
    row["upper_exact@e4pi"] = repr(float(row["upper_exact@e4pi"]) * (1 + 1e-9))
    bad = workloads.Reference(ref.audit, {**ref.bounds, 3580: row}, ref.pool, ref.closed)
    op = workloads.GenusTable(0, tmp_path, bad)._op(window)
    Harness.run_op(op, tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "upper_exact" in tally.errors[0]


def test_perturbed_closed_form_fails(ref, tmp_path):
    tau = ref.pool[0][10]
    closed = dict(ref.closed)
    closed[tau] += 1e-9 * max(abs(closed[tau]), 1.0)
    bad = workloads.Reference(ref.audit, ref.bounds, ref.pool, closed)
    tally = Tally()
    for r in (ref, bad):
        Harness.run_op(workloads.TorusSweep(0, tmp_path, r)._op(tau), tally)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_audit_check_catches_a_changed_claim(ref):
    good = json.loads(json.dumps(ref.audit))
    assert workloads.check_audit_report(good, ref.audit) is None
    changed = json.loads(json.dumps(ref.audit))
    changed["claims"][0]["computed"] *= 1 + 1e-9
    assert "computed" in workloads.check_audit_report(changed, ref.audit)
    relabelled = json.loads(json.dumps(ref.audit))
    relabelled["claims"][0]["status"] = "DISCREPANT"
    assert "status" in workloads.check_audit_report(relabelled, ref.audit)


def test_covered_takes_the_union_clipped_to_the_parent():
    assert covered([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
    assert covered([(-1, 2), (9, 12)], 0, 10) == 3
    assert covered([], 0, 10) == 0


def test_self_time_is_duration_minus_covered_children():
    tracer = Tracer()
    tracer.spans = [
        Span(0, "parent", None, 0.0, 10.0),
        Span(1, "a", 0, 1.0, 4.0),
        Span(2, "b", 0, 3.0, 5.0),   # overlaps a: the union counts once
        Span(3, "c", 1, 1.5, 2.0),   # grandchild: already inside a
        Span(4, "d", None, 20.0, 21.0),
    ]
    own = tracer.self_times()
    assert own["parent"] == [10.0 - 4.0]
    assert own["a"] == [3.0 - 0.5]
    assert own["b"] == [2.0]
    assert own["c"] == [0.5]
    assert own["d"] == [1.0]


def test_tracer_records_parents():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (None, outer.id)
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert tracer.self_times()["outer"] == [pytest.approx(outer.duration - inner.duration)]


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_spec()
