"""Orchid end-to-end benchmark: translation latency and runtime cost.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload chain400 --seed 1 --seconds 30 --trace 0

runs passes of the whole pipeline (see ``perfbench/pipeline.py``) over
the seeded workload for about ``--seconds`` seconds and prints a
human-readable report followed, as the last line, by one JSON object
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones.
``perfbench/README.md`` describes every metric and workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: end-to-end metrics → unit; all lower-is-better
END_TO_END = {
    "setup_s": "s",
    "etl_to_mappings_s": "s",
    "mappings_to_etl_s": "s",
    "redeploy_s": "s",
    "etl_run_s": "s",
    "ohm_run_s": "s",
    "mappings_run_s": "s",
    "hybrid_run_s": "s",
    "peak_rss_mb": "MB",
    "deployed_stages": "count",
}

#: per-layer metrics → unit
PER_LAYER = {
    "etl.xmlio.seconds": "s",
    "compile.seconds": "s",
    "compile.operators": "count",
    "mapping.from_ohm.seconds": "s",
    "mapping.from_ohm.mappings": "count",
    "mapping.jsonio.seconds": "s",
    "mapping.jsonio.failures": "count",
    "mapping.to_ohm.seconds": "s",
    "mapping.to_ohm.operators": "count",
    "deploy.datastage.seconds": "s",
    "deploy.datastage.boxes": "count",
    "analysis.seconds": "s",
    "analysis.diagnostics": "count",
    "rewrite.seconds": "s",
    "rewrite.attempted": "count",
    "rewrite.fired": "count",
    "rewrite.fired_per_attempt": "ratio",
    "rewrite.operators_after": "count",
    "deploy.pushdown.seconds": "s",
    "deploy.pushdown.pushed_operators": "count",
    "deploy.pushdown.statements": "count",
    "etl.engine.seconds": "s",
    "etl.engine.rows_per_s": "rows/s",
    "data.csvio.seconds": "s",
    "data.csvio.bytes": "bytes",
    "ohm.engine.seconds": "s",
    "ohm.engine.rows_per_s": "rows/s",
    "mapping.executor.seconds": "s",
    "mapping.executor.candidates": "count",
    "mapping.executor.useful_ratio": "ratio",
    "deploy.sql.seconds": "s",
    "deploy.sql.failures": "count",
    "trace.overhead_s": "s",
}

#: fresh processes timed from start to workload ready, per run
SETUP_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("chain400", "sink25k", "paper600"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the child process that times set-up
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_seconds(workload: str, seed: int, reference_seconds: float) -> float:
    """Median over fresh processes of the time from process start to
    workload ready (imports, then the job, its XML and the instance),
    at the reference speed: each process times the reference work once
    it is ready."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        ready, measured = (float(field) for field in done.stdout.split()[-2:])
        samples.append((ready - start) * reference_seconds / measured)
    return statistics.median(samples)


def environment() -> dict:
    """What a result was measured on."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # a checkout exported without git metadata
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def end_to_end_metrics(run, setup: float) -> dict:
    samples = run.recorder.samples
    values = {name: statistics.median(samples[name]) for name in END_TO_END if name in samples}
    values["setup_s"] = setup
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["deployed_stages"] = run.facts.get("deployed_stages", 0)
    return values


def per_layer_metrics(run) -> dict:
    values = {name: statistics.median(layer[name] for layer in run.layers) for name in run.layers[0]}
    values["trace.overhead_s"] = statistics.median(run.traced_seconds) - statistics.median(
        run.untraced_seconds
    )
    return values


def tail(samples) -> str:
    """The highest percentile with at least ten samples beyond it."""
    index = len(samples) - 11
    if index < 0:
        return ""
    return f"; p{100 * (index + 1) // len(samples)} {sorted(samples)[index]:.6f}"


def report(args, run, values: dict, units: dict) -> None:
    """The human-readable report, printed before the result line."""
    rec = run.recorder
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={len(run.untraced_seconds) + len(run.traced_seconds)}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    print(f"  times are at the reference speed; the host ran at "
          f"{run.speed:.3f}x of it (median of {run.probes} probe samples)")
    for name, unit in units.items():
        samples = [] if args.trace else rec.samples.get(name, [])
        note = ""
        if samples:
            wall = rec.wall.get(name)
            note = f"  (median of {len(samples)}{tail(samples)}"
            note += f"; wall {statistics.median(wall):.6f})" if wall else ")"
        print(f"  {name:34s} {values[name]:14.6f} {unit}{note}")
    if not args.trace:
        rate = rec.failed / rec.attempted
        print(f"  {'failure_rate':34s} {rate:14.6f} ratio  "
              f"({rec.failed} failed of {rec.attempted} operations; "
              f"{rec.tries_failed} failed of {rec.tries} calls and checks)")
    for (operation, kind), count in sorted(rec.errors.items()):
        message = rec.messages.get((operation, kind), "").splitlines()[:1]
        print(f"  failed: {operation} {kind} x{count}" + "".join(f": {m[:160]}" for m in message))


def clear_repro_environment() -> None:
    """Run at the library defaults: unset every ``REPRO_*`` variable
    (all the ``repro.config`` knobs read, and any other)."""
    for variable in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[variable]


def result(run, values: dict, units: dict) -> dict:
    """The result line's object."""
    rec = run.recorder
    return {
        "correct": not any(kind == "mismatch" for _op, kind in rec.errors),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    clear_repro_environment()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no Orchid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import pipeline, speed, workloads

    if args.setup_probe:
        workloads.build(args.workload, args.seed)
        ready = time.monotonic()
        print(ready, speed.reference_seconds())
        return 0

    setup = 0.0
    if not args.trace:
        setup = setup_seconds(args.workload, args.seed, speed.REFERENCE_SECONDS)
    workload = workloads.build(args.workload, args.seed)
    reference = pipeline.oracle(workload)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as out_dir:
        run = pipeline.measure(workload, reference, args.seconds, bool(args.trace), out_dir)
    if args.trace:
        units, values = PER_LAYER, per_layer_metrics(run)
        print(json.dumps({"spans": run.spans}), file=sys.stderr)
    else:
        units, values = END_TO_END, end_to_end_metrics(run, setup)
    report(args, run, values, units)
    print(json.dumps(result(run, values, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
