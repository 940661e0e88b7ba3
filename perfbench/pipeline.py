"""One pass of the whole Orchid pipeline, timed call by call.

A pass runs, in order: job XML → compile → OHM → mappings → JSON (the
analyst direction); the in-memory mappings → OHM → job → XML (the
programmer direction); lint → optimize → redeploy → pushdown on the
compiled graph; then the redeployed job on the ETL engine with its
targets written as CSV, the optimized graph on the OHM executor, the
mappings on the mapping executor and the hybrid SQL + ETL plan. Every
runtime's targets are compared with the interpreted oracle's.

Each step of a run is one operation, and so is each step's output
check; a step's repeated calls are samples of the one operation. It
fails if any of its calls raises, or any of its checks finds targets
that are not bag-equal to the oracle's. So the number of operations and
of failures is the same in every run of a workload, however many calls
fit into it. A failed call counts as missing every time limit: its
sample is the run length plus the time it took to fail, so it ranks
above every successful call of a run and shows in the median once half
the calls fail.
"""

from __future__ import annotations

import contextlib
import gc
import os
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis import analyze_graph
from repro.compile import compile_job
from repro.data.csvio import write_csv
from repro.data.dataset import Instance
from repro.deploy.datastage import DATASTAGE, deploy_to_job
from repro.deploy.pushdown import plan_pushdown
from repro.deploy.sql import SqliteRunner
from repro.etl.engine import EtlEngine
from repro.etl.xmlio import job_from_xml, job_to_xml
from repro.mapping.executor import MappingExecutor
from repro.mapping.from_ohm import ohm_to_mappings
from repro.mapping.jsonio import mappings_from_json, mappings_to_json
from repro.mapping.to_ohm import mappings_to_ohm
from repro.obs import Observability
from repro.ohm.engine import OhmExecutor
from repro.rewrite.optimizer import optimize

from perfbench.speed import REFERENCE_SECONDS, SpeedProbe
from perfbench.tracing import NullTracer, Tracer, wrapped
from perfbench.workloads import Workload

#: the timed steps of a pass, in order; all but the JSON round trip are
#: end-to-end metrics
STEPS = (
    "etl_to_mappings_s",
    "json_round_trip",
    "mappings_to_etl_s",
    "redeploy_s",
    "etl_run_s",
    "ohm_run_s",
    "mappings_run_s",
    "hybrid_run_s",
)

#: layers whose self time is a per-layer metric (``<layer>.seconds``)
LAYERS = (
    "etl.xmlio",
    "compile",
    "mapping.from_ohm",
    "mapping.jsonio",
    "mapping.to_ohm",
    "deploy.datastage",
    "analysis",
    "rewrite",
    "deploy.pushdown",
    "etl.engine",
    "data.csvio",
    "ohm.engine",
    "mapping.executor",
    "deploy.sql",
)


def oracle(workload: Workload) -> Instance:
    """The reference targets: the interpreted ETL engine on the
    original job."""
    return EtlEngine(compiled=False).execute(workload.job, workload.instance)


#: what a timed call that raised returns
FAILED = object()

class Recorder:
    """Times calls and counts operations across the passes of a run.

    A call's sample is its wall time at the reference speed (see
    :mod:`perfbench.speed`), worked out by :meth:`finish` once the run
    is over."""

    def __init__(self, failed_call_seconds: float):
        self.failed_call_seconds = failed_call_seconds
        #: (operation, start, end, failed) of every timed call, in order
        self.calls: List[Tuple[str, float, float, bool]] = []
        #: operation → samples at the reference speed (see :meth:`finish`)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: operation → wall-clock samples, as timed
        self.wall: Dict[str, List[float]] = defaultdict(list)
        #: per call, in order: its time at the reference speed
        self.reference: List[float] = []
        #: operation → whether any of its calls or checks failed
        self.outcomes: Dict[str, bool] = {}
        #: calls and checks made, and how many of them failed
        self.tries = 0
        self.tries_failed = 0
        #: (step, exception type or "mismatch") → count of calls or checks
        self.errors: Counter = Counter()
        #: (operation, exception type) → the first such exception's message
        self.messages: Dict[Tuple[str, str], str] = {}
        #: wall seconds spent inside timed calls
        self.elapsed = 0.0

    def call(self, name: str, fn, tracer):
        """Run ``fn()`` as the timed operation ``name``; returns its
        result, or :data:`FAILED` if it raised."""
        gc.collect()
        start = time.perf_counter()
        try:
            with tracer.span(name):
                result = fn()
        except Exception as exc:  # a failed call is counted; the pass goes on
            end = time.perf_counter()
            self._fail(name, type(exc).__name__)
            self.messages.setdefault((name, type(exc).__name__), str(exc))
            self.calls.append((name, start, end, True))
            self.elapsed += end - start
            return FAILED
        end = time.perf_counter()
        self._count(name, failed=False)
        self.calls.append((name, start, end, False))
        self.elapsed += end - start
        return result

    def skip(self, name: str) -> None:
        """``name`` could not run because a step it needs failed."""
        self._fail(name, "UpstreamFailed")
        self.samples[name].append(self.failed_call_seconds)

    def check(self, name: str, actual: Instance, reference: Instance) -> None:
        """One output check of step ``name``: ``actual`` must be
        bag-equal to the oracle."""
        same = actual.same_bags(reference)
        self._count(f"{name} check", failed=not same)
        if not same:
            self.errors[(name, "mismatch")] += 1

    def finish(self, probe: SpeedProbe) -> None:
        """Turn the timed calls into samples, with the host's speed as
        ``probe`` sampled it."""
        for name, start, end, failed in self.calls:
            wall, reference = probe.scaled(start, end)
            self.wall[name].append(wall)
            self.reference.append(reference)
            penalty = self.failed_call_seconds if failed else 0.0
            self.samples[name].append(penalty + reference)

    @property
    def attempted(self) -> int:
        """Operations: the steps and the steps' output checks made."""
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        """Operations with at least one failed call or check."""
        return sum(self.outcomes.values())

    def _count(self, operation: str, failed: bool) -> None:
        self.tries += 1
        self.tries_failed += failed
        self.outcomes[operation] = self.outcomes.get(operation, False) or failed

    def _fail(self, name: str, kind: str) -> None:
        self._count(name, failed=True)
        self.errors[(name, kind)] += 1


@dataclass
class Pass:
    """What one pass leaves behind besides its timings."""

    observe: bool
    #: the pass's calls: ``Recorder.calls[first_call:end_call]``
    first_call: int = 0
    end_call: int = 0
    facts: Dict[str, float] = field(default_factory=dict)
    observers: Dict[str, Observability] = field(default_factory=dict)

    def obs(self, layer: str) -> Optional[Observability]:
        """An enabled Observability for ``layer`` in a traced pass."""
        if not self.observe:
            return None
        if layer not in self.observers:
            self.observers[layer] = Observability(trace=True, stats=True)
        return self.observers[layer]

    def counters(self, layer: str) -> Dict[str, int]:
        observer = self.observers.get(layer)
        return observer.metrics.counters if observer is not None else {}


#: at most this many calls of one step in a pass
MAX_REPEATS = 25
#: in an untraced pass, each step repeats until it has taken this long
REPEAT_SECONDS = 0.4


def _repeat(rec: Recorder, seconds: float, call, limit: int = MAX_REPEATS):
    """Run ``call()`` until the calls have taken ``seconds`` of timed
    work (at least once, at most ``limit`` times, stopping at a
    failure); returns the last call's result."""
    started = rec.elapsed
    for _ in range(limit):
        result = call()
        if result is FAILED or rec.elapsed - started >= seconds:
            break
    return result


def _translate(workload: Workload, rec: Recorder, tracer, p: Pass, seconds: float):
    """The translation steps, each repeated as :func:`_repeat` says:
    the analyst direction, the JSON round trip (once), the programmer
    direction and the redeployment. Each analyst-direction call
    compiles a fresh graph, and each redeployment optimizes one of them
    in place. Returns an optimized graph, the mappings, and the
    redeployed job with its hybrid plan (or FAILED); FAILED if nothing
    compiled."""
    span = tracer.span
    graphs = []

    def etl_to_mappings():
        with span("etl.xmlio"):
            job = job_from_xml(workload.xml)
        with span("compile"):
            graph = compile_job(job, obs=p.obs("compile"))
        operators = len(graph.operators)
        with span("mapping.from_ohm"):
            mappings = ohm_to_mappings(graph)
        with span("mapping.jsonio"):
            text = mappings_to_json(mappings)
        return graph, operators, mappings, text

    def analyst():
        result = rec.call("etl_to_mappings_s", etl_to_mappings, tracer)
        if result is not FAILED:
            graphs.append(result[0])
        return result

    result = _repeat(rec, seconds, analyst)
    if result is FAILED:
        for name in STEPS[1:]:
            rec.skip(name)
        return FAILED
    _graph, p.facts["compile.operators"], mappings, text = result
    p.facts["mapping.from_ohm.mappings"] = len(mappings)

    def json_round_trip():
        with span("mapping.jsonio"):
            return mappings_from_json(text)

    rec.call("json_round_trip", json_round_trip, tracer)

    def mappings_to_etl():
        with span("mapping.to_ohm"):
            ohm = mappings_to_ohm(mappings)
        with span("deploy.datastage"):
            job, _plan = deploy_to_job(ohm, obs=p.obs("deploy.datastage"))
        with span("etl.xmlio"):
            job_to_xml(job)
        return len(ohm.operators)

    result = _repeat(
        rec, seconds, lambda: rec.call("mappings_to_etl_s", mappings_to_etl, tracer)
    )
    if result is not FAILED:
        p.facts["mapping.to_ohm.operators"] = result

    def redeploy(graph):
        with span("analysis"):
            report = analyze_graph(graph)
        with span("rewrite"):
            optimize(graph, obs=p.obs("rewrite"))
        with span("deploy.datastage"):
            job, _plan = deploy_to_job(graph, obs=p.obs("deploy.datastage"))
        with span("deploy.pushdown"):
            hybrid = plan_pushdown(graph, obs=p.obs("deploy.pushdown"))
        return report, job, hybrid

    optimized = []

    def redeploy_next():
        optimized.append(graphs.pop())
        return rec.call("redeploy_s", lambda: redeploy(optimized[-1]), tracer)

    deployed = _repeat(rec, seconds, redeploy_next, limit=len(graphs))
    graph = optimized[-1]
    if deployed is not FAILED:
        report, job, hybrid = deployed
        p.facts["analysis.diagnostics"] = len(report.diagnostics)
        p.facts["rewrite.operators_after"] = len(graph.operators)
        p.facts["deployed_stages"] = len(job.stages)
        p.facts["deploy.pushdown.statements"] = len(hybrid.statements)
        deployed = job, hybrid
    return graph, mappings, deployed


def run_once(
    workload: Workload,
    reference: Instance,
    rec: Recorder,
    tracer,
    out_dir: str,
    repeat_seconds: float = 0.0,
) -> Pass:
    """One pass of the pipeline over ``workload``. Each step repeats
    until its calls have taken ``repeat_seconds`` (see
    :func:`_repeat`), so that short calls get about as many samples in
    a run as the long ones. The runtimes run on the last outputs of the
    translation steps."""
    p = Pass(observe=tracer.enabled, first_call=len(rec.calls))
    span = tracer.span
    instance = workload.instance

    def checked(name: str, fn):
        def call():
            targets = rec.call(name, fn, tracer)
            if targets is not FAILED:
                rec.check(name, targets, reference)
            return targets

        return _repeat(rec, repeat_seconds, call)

    translated = _translate(workload, rec, tracer, p, repeat_seconds)
    if translated is FAILED:
        p.end_call = len(rec.calls)
        return p
    graph, mappings, deployed = translated

    if deployed is FAILED:
        for name in ("etl_run_s", "ohm_run_s"):
            rec.skip(name)
    else:
        job, hybrid = deployed

        def etl_run():
            with span("etl.engine"):
                targets = EtlEngine(obs=p.obs("etl.engine")).execute(job, instance)
            for dataset in targets:
                with span("data.csvio"):
                    write_csv(dataset, os.path.join(out_dir, f"{dataset.name}.csv"))
            return targets

        targets = checked("etl_run_s", etl_run)
        if targets is not FAILED:
            p.facts["data.csvio.bytes"] = sum(
                os.path.getsize(os.path.join(out_dir, f"{d.name}.csv"))
                for d in targets
            )

        def ohm_run():
            with span("ohm.engine"):
                return OhmExecutor(obs=p.obs("ohm.engine")).execute(graph, instance)

        checked("ohm_run_s", ohm_run)

    def mappings_run():
        with span("mapping.executor"):
            return MappingExecutor(obs=p.obs("mapping.executor")).execute(
                mappings, instance
            )

    checked("mappings_run_s", mappings_run)

    if deployed is FAILED:
        rec.skip("hybrid_run_s")
    else:
        with contextlib.ExitStack() as stack:
            if tracer.enabled:
                for method in ("__init__", "query"):
                    stack.enter_context(
                        wrapped(SqliteRunner, method, tracer, "deploy.sql")
                    )
            checked(
                "hybrid_run_s",
                lambda: hybrid.execute(instance, obs=p.obs("deploy.hybrid")),
            )
    p.end_call = len(rec.calls)
    return p


def _sum_counters(counters: Dict[str, int], prefix: str, suffix: str) -> int:
    return sum(
        value
        for name, value in counters.items()
        if name.startswith(prefix) and name.endswith(suffix)
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, p: Pass, probe: SpeedProbe) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    self_seconds = tracer.self_seconds(probe)
    failures = tracer.failures()
    m: Dict[str, float] = {
        f"{layer}.seconds": self_seconds.get(layer, 0.0) for layer in LAYERS
    }
    for name in (
        "compile.operators",
        "mapping.from_ohm.mappings",
        "mapping.to_ohm.operators",
        "analysis.diagnostics",
        "rewrite.operators_after",
        "deploy.pushdown.statements",
        "data.csvio.bytes",
    ):
        m[name] = p.facts.get(name, 0)
    m["mapping.jsonio.failures"] = failures.get("mapping.jsonio", 0)
    m["deploy.sql.failures"] = failures.get("deploy.sql", 0)
    m["deploy.datastage.boxes"] = p.counters("deploy.datastage").get(
        f"deploy.{DATASTAGE.name}.boxes", 0
    )
    rewrite = p.counters("rewrite")
    m["rewrite.attempted"] = _sum_counters(rewrite, "rewrite.rule.", ".attempted")
    m["rewrite.fired"] = _sum_counters(rewrite, "rewrite.rule.", ".fired")
    m["rewrite.fired_per_attempt"] = _ratio(m["rewrite.fired"], m["rewrite.attempted"])
    m["deploy.pushdown.pushed_operators"] = p.counters("deploy.pushdown").get(
        "deploy.pushdown.pushed_operators", 0
    )
    link_rows = _sum_counters(p.counters("etl.engine"), "etl.link.", ".rows")
    m["etl.engine.rows_per_s"] = _ratio(link_rows, m["etl.engine.seconds"])
    ohm_rows = _sum_counters(p.counters("ohm.engine"), "ohm.operator.", ".rows_out")
    m["ohm.engine.rows_per_s"] = _ratio(ohm_rows, m["ohm.engine.seconds"])
    kernels = p.counters("mapping.executor")
    candidates = kernels.get("exec.kernel.filter.rows_in", 0)
    m["mapping.executor.candidates"] = candidates
    m["mapping.executor.useful_ratio"] = _ratio(
        kernels.get("exec.kernel.filter.rows_out", 0), candidates
    )
    return m


@dataclass
class Run:
    """Everything one measured run produced."""

    recorder: Recorder
    #: reference-speed seconds of the timed calls of each pass
    untraced_seconds: List[float]
    traced_seconds: List[float]
    #: per-layer metrics of each traced pass
    layers: List[Dict[str, float]]
    #: counts from the last pass
    facts: Dict[str, float]
    #: the spans of the last traced pass
    spans: list
    #: the host's median speed relative to the reference speed, and the
    #: number of probe samples it was taken from
    speed: float = 1.0
    probes: int = 0


#: a run makes at least this many passes; a step that takes more than
#: a third of ``--seconds`` still gets three samples
MIN_PASSES = 3


def measure(
    workload: Workload,
    reference: Instance,
    seconds: float,
    trace: bool,
    out_dir: str,
) -> Run:
    """Run at least :data:`MIN_PASSES` passes, then more until the next
    one would end more than half a pass after ``seconds``, so that every
    step has samples to take a median of and a run's length stays within
    half a pass of ``seconds``. With ``trace``, untraced and traced
    passes alternate, and every step runs once in each."""
    rec = Recorder(failed_call_seconds=seconds)
    passes = []
    durations: List[float] = []
    start = time.monotonic()
    with SpeedProbe() as probe:
        while True:
            traced = trace and len(durations) % 2 == 1
            tracer = Tracer() if traced else NullTracer()
            began = time.monotonic()
            p = run_once(
                workload, reference, rec, tracer, out_dir,
                0.0 if trace else REPEAT_SECONDS,
            )
            durations.append(time.monotonic() - began)
            passes.append((tracer, p))
            if len(passes) < MIN_PASSES:
                continue
            if time.monotonic() - start + statistics.median(durations) / 2 > seconds:
                break
    rec.finish(probe)
    run = Run(rec, [], [], [], passes[-1][1].facts, [], probes=len(probe.durations))
    if probe.durations:
        run.speed = REFERENCE_SECONDS / statistics.median(probe.durations)
    for tracer, p in passes:
        total = sum(rec.reference[p.first_call:p.end_call])
        if tracer.enabled:
            run.traced_seconds.append(total)
            run.layers.append(layer_metrics(tracer, p, probe))
            run.spans = [asdict(span) for span in tracer.spans]
        else:
            run.untraced_seconds.append(total)
    return run
