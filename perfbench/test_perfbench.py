"""Tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import pipeline, run, speed, workloads
from perfbench.speed import SpeedProbe
from perfbench.tracing import NullTracer, Tracer
from repro import config
from repro.data.dataset import Dataset, Instance

ROOT = Path(__file__).resolve().parent.parent

#: tiny sizes of each workload's shape
TINY = {
    "chain400": {"stages": 8, "rows": 20},
    "sink25k": {"orders": 60, "customers": 12},
    "paper600": {"customers": 15},
}


def measure(name: str, seed: int, trace: bool, tmp_path, reference=None):
    workload = workloads.build(name, seed, **TINY[name])
    if reference is None:
        reference = pipeline.oracle(workload)
    return pipeline.measure(workload, reference, 0.01, trace, str(tmp_path))


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path, capsys):
    measured = measure(name, 3, trace, tmp_path)
    if trace:
        units, values = run.PER_LAYER, run.per_layer_metrics(measured)
    else:
        units, values = run.END_TO_END, run.end_to_end_metrics(measured, setup=0.5)
    line = run.result(measured, values, units)
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] > 0
    assert list(line["metrics"]) == list(units)
    for metric, unit in units.items():
        assert line["metrics"][metric]["unit"] == unit
        assert isinstance(line["metrics"][metric]["value"], (int, float))
    args = argparse.Namespace(workload=name, seed=3, seconds=0.01, trace=int(trace))
    run.report(args, measured, values, units)
    printed = capsys.readouterr().out
    for metric, unit in units.items():
        assert any(
            row.split()[:1] == [metric] and row.split()[2] == unit
            for row in printed.splitlines()
        ), metric
    assert ("failure_rate" in printed) is not trace


def test_a_corrupted_reference_raises_the_failure_rate(tmp_path):
    workload = workloads.build("sink25k", 5, **TINY["sink25k"])
    reference = pipeline.oracle(workload)
    first, *rest = list(reference)
    assert len(first) > 0
    corrupted = Instance(
        [Dataset(first.relation, first.rows[1:], validate=False), *rest]
    )
    clean = pipeline.measure(workload, reference, 0.01, False, str(tmp_path))
    broken = pipeline.measure(workload, corrupted, 0.01, False, str(tmp_path))
    assert clean.recorder.failed == 0
    runtimes = ("etl_run_s", "ohm_run_s", "mappings_run_s", "hybrid_run_s")
    assert set(broken.recorder.errors) == {(step, "mismatch") for step in runtimes}
    # every check failed, one per runtime call; each runtime's check is
    # one failed operation
    assert sum(broken.recorder.errors.values()) == sum(
        len(broken.recorder.samples[step]) for step in runtimes
    )
    assert broken.recorder.failed == len(runtimes)
    assert broken.recorder.attempted == clean.recorder.attempted
    assert run.result(broken, {}, {})["correct"] is False


def test_a_failed_call_is_counted_and_scored_past_the_run_length():
    rec = pipeline.Recorder(failed_call_seconds=7.0)
    tracer = NullTracer()

    def boom():
        raise RecursionError("deep")

    assert rec.call("json_round_trip", boom, tracer) is pipeline.FAILED
    assert rec.call("redeploy_s", lambda: 1, tracer) == 1
    assert rec.call("json_round_trip", boom, tracer) is pipeline.FAILED
    rec.finish(SpeedProbe())
    # two calls of one step are one operation
    assert (rec.attempted, rec.failed) == (2, 1)
    assert (rec.tries, rec.tries_failed) == (3, 2)
    assert rec.errors == {("json_round_trip", "RecursionError"): 2}
    assert rec.samples["json_round_trip"][0] >= 7.0
    assert rec.samples["redeploy_s"][0] < 7.0


def test_samples_are_wall_times_at_the_reference_speed():
    rec = pipeline.Recorder(failed_call_seconds=7.0)
    tracer = Tracer()
    with SpeedProbe(interval=0.01) as probe:
        rec.call("redeploy_s", lambda: sum(range(3_000_000)), tracer)
    rec.finish(probe)
    (_name, start, end, _failed) = rec.calls[0]
    assert any(start <= t < end for t in probe.starts)
    wall, reference = probe.scaled(start, end)
    assert wall < end - start  # the probe's own work is left out
    assert rec.wall["redeploy_s"] == [wall]
    assert rec.samples["redeploy_s"] == [reference]
    nearby = [d for t, d in zip(probe.starts, probe.durations) if start - 0.01 <= t <= end + 0.01]
    assert reference == pytest.approx(wall * speed.REFERENCE_SECONDS / statistics.median(nearby))
    (span,) = tracer.spans
    assert tracer.self_seconds(probe)["redeploy_s"] == pytest.approx(
        probe.scaled(span.start, span.end)[1]
    )


def test_operation_counts_do_not_depend_on_the_number_of_calls(tmp_path):
    workload = workloads.build("sink25k", 2, **TINY["sink25k"])
    first, *rest = list(pipeline.oracle(workload))
    corrupted = Instance(
        [Dataset(first.relation, first.rows[1:], validate=False), *rest]
    )
    # untraced: each step repeated in a pass; traced: each
    # step called once per pass
    repeated = pipeline.measure(workload, corrupted, 0.01, False, str(tmp_path))
    once = pipeline.measure(workload, corrupted, 0.01, True, str(tmp_path))
    assert repeated.recorder.tries != once.recorder.tries
    assert (repeated.recorder.attempted, repeated.recorder.failed) == (
        once.recorder.attempted, once.recorder.failed
    )
    assert once.recorder.failed == 4


@pytest.mark.parametrize("name", sorted(TINY))
def test_the_same_seed_gives_the_same_counts(name, tmp_path):
    first = measure(name, 11, True, tmp_path / "a")
    second = measure(name, 11, True, tmp_path / "b")
    assert first.facts["deployed_stages"] == second.facts["deployed_stages"]
    for metric in ("compile.operators", "rewrite.fired", "mapping.executor.candidates"):
        assert first.layers[0][metric] == second.layers[0][metric], metric
    assert first.layers[0]["mapping.executor.candidates"] > 0


def test_spans_nest_and_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with pytest.raises(ValueError):
            with tracer.span("inner"):
                raise ValueError
    outer, inner, failed = tracer.spans
    assert (outer.parent, inner.parent, failed.parent) == (None, 0, 0)
    assert not failed.ok and tracer.failures() == {"inner": 1}
    self_seconds = tracer.self_seconds(SpeedProbe())  # not run: wall times
    assert self_seconds["outer"] == pytest.approx(
        outer.seconds - inner.seconds - failed.seconds
    )
    assert self_seconds["inner"] == pytest.approx(inner.seconds)


def test_every_knob_variable_is_cleared(monkeypatch):
    monkeypatch.setenv("REPRO_BATCH", "1")
    monkeypatch.setenv("REPRO_WORKERS", "3")
    monkeypatch.setenv("REPRO_CHECK", "1")
    run.clear_repro_environment()
    for name in config.snapshot():
        assert config.knob(name).from_env() is None, name


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for source in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(source, tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain400",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
