"""The ETL runtime engine: executes a :class:`~repro.etl.model.Job`.

This plays the role of the DataStage runtime: stages run in dataflow
order, each consuming the datasets on its input links and producing one
dataset per output link. Source stages pull from the supplied
:class:`~repro.data.dataset.Instance`; target stages validate and collect
their deliveries.

Runtime statistics (the numbers an ETL monitor would show — paper
section VI) are collected per run into an :class:`EtlRunStats`: rows per
link, seconds per stage. Passing an :class:`~repro.obs.Observability`
additionally records them into the shared metrics registry
(``etl.link.<name>.rows``, ``etl.stage.<name>.seconds``) and emits one
``etl.stage.<type>`` span per executed stage under an ``etl.run`` root.

Fault tolerance (see ``docs/robustness.md``) is layered on the same
loop:

* a per-run (or per-stage ``on_error``) row policy — ``fail_fast`` /
  ``skip`` / ``reject`` — absorbed via a per-stage
  :class:`~repro.resilience.ErrorContext`; rejected rows flow onto a
  stage's dedicated reject link when one is declared
  (:meth:`Job.reject_link`), otherwise into
  :attr:`EtlRunStats.rejected`;
* transient source/target failures are retried under a
  :class:`~repro.resilience.RetryPolicy` with exponential backoff;
* a :class:`~repro.resilience.CheckpointStore` snapshots each completed
  stage so an interrupted run resumes from the last good frontier;
* a failing batched kernel degrades per stage to row kernels, then to
  the interpreting oracle (``exec.degrade.*`` counters), never changing
  results — only how they are computed.

The run lifecycle (pre-run check, supervision, the per-run planner and
its degradation ladder, catalog feedback) is the shared
:func:`repro.exec.driver.drive`; this module supplies the per-stage
step.
"""

from __future__ import annotations

import warnings
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.data.dataset import Dataset, Instance
from repro.errors import ExecutionError
from repro.etl.model import Job
from repro.etl.stages.access import TableSource, TableTarget
from repro.exec.driver import RunOptions, drive
from repro.resilience import ErrorContext, RejectedRow, rejects_dataset


class EtlRunStats:
    """Statistics for one completed :meth:`EtlEngine.run`.

    :ivar link_counts: link name → rows that flowed over the link.
    :ivar stage_seconds: stage name → wall-clock execution seconds.
    :ivar reject_counts: stage name → rows rejected under ``reject``.
    :ivar skip_counts: stage name → rows dropped under ``skip``.
    :ivar rejected: :class:`~repro.resilience.RejectedRow` records that
        were *not* routed onto an in-job reject link.
    :ivar restored_stages: stage names restored from a checkpoint
        instead of executed.
    """

    __slots__ = (
        "link_counts",
        "stage_seconds",
        "reject_counts",
        "skip_counts",
        "rejected",
        "restored_stages",
    )

    def __init__(self):
        self.link_counts: Dict[str, int] = {}
        self.stage_seconds: Dict[str, float] = {}
        self.reject_counts: Dict[str, int] = {}
        self.skip_counts: Dict[str, int] = {}
        self.rejected: List[RejectedRow] = []
        self.restored_stages: List[str] = []

    @property
    def total_rows(self) -> int:
        """Rows moved across all links (the monitor's headline number)."""
        return sum(self.link_counts.values())

    @property
    def total_rejected(self) -> int:
        """Rows rejected anywhere in the run (on reject links or not)."""
        return sum(self.reject_counts.values())

    def __repr__(self) -> str:
        return (
            f"EtlRunStats({len(self.link_counts)} links, "
            f"{self.total_rows} rows)"
        )


class EtlEngine:
    """Executes jobs; collects per-link row counts and per-stage timings
    as runtime statistics.

    Statistics are built per run and published atomically on
    :attr:`last_run` only once the run completes, so an engine shared by
    two callers (or a re-entrant run) never observes a half-filled
    snapshot — each run's numbers replace the previous run's wholesale.

    The keyword ``options`` are those of
    :class:`~repro.exec.driver.RunOptions`, resolved once into
    :attr:`options`; ``on_error`` / ``retry`` / ``checkpoint`` default
    to the process triads (``REPRO_ON_ERROR``, ``REPRO_MAX_RETRIES``,
    ``REPRO_CHECKPOINT_DIR``).
    """

    def __init__(self, **options):
        #: the resolved run options (see :class:`RunOptions`).
        self.options = RunOptions(**options)
        #: statistics of the most recently *completed* run.
        self.last_run: EtlRunStats = EtlRunStats()

    @property
    def link_counts(self) -> Dict[str, int]:
        """Deprecated: per-link row counts of the most recent run.

        Use :attr:`last_run` (an :class:`EtlRunStats`) or the metrics
        registry (``etl.link.<name>.rows``) instead; this shim returns a
        copy, so mutating it no longer corrupts engine state."""
        warnings.warn(
            "EtlEngine.link_counts is deprecated; read "
            "EtlEngine.last_run.link_counts or the 'etl.link.<name>.rows' "
            "metrics instead",
            DeprecationWarning,
            stacklevel=2,
        )
        return dict(self.last_run.link_counts)

    def _endpoint(self, fn, name: str):
        """Run a source extract / target load: retry absorbs transients
        *inside* the breaker, so only an exhausted retry budget counts
        as one breaker failure — and an open breaker fails fast without
        touching the endpoint (or burning the backoff schedule)."""
        retry = self.options.retry
        breaker = self.options.breaker
        obs = self.options.obs
        if retry is not None:
            call = lambda: retry.call(fn, name=name, obs=obs)  # noqa: E731
        else:
            call = fn
        if breaker is not None:
            return breaker.call(name, call, obs=obs)
        return call()

    def _execute_stage(
        self, stage, inputs, data_edges, instance, registry, run, ctx
    ):
        """One stage's outputs and target delivery, as
        ``(outputs, delivered)``. Endpoints retry under the breaker;
        compiled stages run down the degradation ladder."""
        if isinstance(stage, TableTarget):
            delivered = self._endpoint(
                lambda: stage.load(
                    inputs[0],
                    trusted=run.planner.compiled,
                    errors=ctx if ctx.handling else None,
                ),
                stage.name,
            )
            return [], delivered
        if isinstance(stage, TableSource):
            outputs = self._endpoint(
                lambda: [
                    stage.extract(instance).renamed(e.name)
                    for e in data_edges
                ],
                stage.name,
            )
            return outputs, None
        out_relations = [e.schema for e in data_edges]
        kwargs = {"errors": ctx} if stage.supports_policies else {}
        if stage.supports_compiled:
            obs = self.options.obs
            outputs = run.attempt(
                lambda planner: stage.execute(
                    inputs, out_relations, registry,
                    planner=planner, obs=obs, **kwargs,
                ),
                ctx,
            )
        else:
            outputs = stage.execute(inputs, out_relations, registry, **kwargs)
        if len(outputs) != len(data_edges):
            raise ExecutionError(
                f"{stage.STAGE_TYPE} {stage.name!r} produced "
                f"{len(outputs)} outputs for {len(data_edges)} links",
                stage=stage.name,
            )
        return outputs, None

    def run(
        self, job: Job, instance: Optional[Instance] = None
    ) -> Tuple[Instance, Dict[str, Dataset]]:
        """Run ``job`` against ``instance``.

        Returns ``(targets, link_data)``: datasets delivered to each
        target stage (keyed by target relation name) and the dataset that
        flowed over every link (keyed by link name)."""
        options = self.options
        obs = options.obs
        metrics = obs.metrics
        checkpoint = options.checkpoint
        stats = EtlRunStats()
        instance = instance or Instance()
        by_port: Dict[Tuple[str, int], Dataset] = {}
        link_data: Dict[str, Dataset] = {}
        targets = Instance()
        frontier: dict = {}

        def stages():
            job.propagate_schemas()
            if checkpoint is not None:
                frontier.update(checkpoint.load_frontier(job))
            return [(stage.uid, stage) for stage in job.topological_order()]

        def step(stage, run):
            inputs = [
                by_port[(e.src, e.src_port)] for e in job.in_edges(stage.uid)
            ]
            out_edges = job.out_edges(stage.uid)
            restored = frontier.get(stage.uid)
            if restored is not None and all(
                e.name in restored[0] for e in out_edges
            ):
                outputs = [restored[0][e.name] for e in out_edges]
                delivered = restored[1]
                stats.restored_stages.append(stage.name)
                metrics.count("exec.checkpoint.restored")
            else:
                outputs, delivered = self._stage(
                    job, stage, inputs, out_edges, instance, run, stats
                )
            if delivered is not None:
                targets.put(delivered)
            for edge, dataset in zip(out_edges, outputs):
                by_port[(edge.src, edge.src_port)] = dataset
                link_data[edge.name] = dataset
                stats.link_counts[edge.name] = len(dataset)
            return {e.name: len(d) for e, d in zip(out_edges, outputs)}

        drive(
            options, job, job.registry, instance, stages, step,
            span=("etl.run", {"job": job.name}),
        )
        if checkpoint is not None:
            checkpoint.clear(job)
        self.last_run = stats
        return targets, link_data

    def _stage(self, job, stage, inputs, out_edges, instance, run, stats):
        """Execute one stage under its span, publish its row-error
        outcomes and timing, and checkpoint it. Returns ``(outputs,
        delivered)``; a declared reject link's dataset comes last."""
        options = self.options
        obs = options.obs
        metrics = obs.metrics
        data_edges = [e for e in out_edges if not e.is_reject]
        reject_edge = next((e for e in out_edges if e.is_reject), None)
        ctx = ErrorContext(stage.name, stage.on_error or options.on_error)
        with obs.tracer.span(
            f"etl.stage.{stage.STAGE_TYPE}", stage=stage.name
        ) as span:
            started = perf_counter() if obs.enabled else 0.0
            outputs, delivered = self._execute_stage(
                stage, inputs, data_edges, instance, job.registry, run, ctx
            )
            seconds = perf_counter() - started if obs.enabled else 0.0
            # a reject edge is out-of-band for the producer: data edges
            # carry stage outputs, the (always last) reject edge carries
            # this stage's rejected-row dataset
            if reject_edge is not None:
                outputs = list(outputs) + [
                    rejects_dataset(ctx.rejected, reject_edge.name)
                ]
            elif ctx.rejected:
                stats.rejected.extend(ctx.rejected)
            if ctx.rejected:
                stats.reject_counts[stage.name] = len(ctx.rejected)
            if ctx.skipped:
                stats.skip_counts[stage.name] = ctx.skipped
            ctx.publish(metrics, span)
            if obs.enabled:
                stats.stage_seconds[stage.name] = seconds
                metrics.observe(f"etl.stage.{stage.name}.seconds", seconds)
                span.set(
                    rows_in=sum(len(d) for d in inputs),
                    rows_out=sum(len(d) for d in outputs),
                )
        if options.checkpoint is not None:
            options.checkpoint.save_stage(
                job,
                stage.uid,
                [(e.name, d) for e, d in zip(out_edges, outputs)],
                delivered=delivered,
            )
            metrics.count("exec.checkpoint.saved")
        for edge, dataset in zip(out_edges, outputs):
            metrics.count(f"etl.link.{edge.name}.rows", len(dataset))
        return outputs, delivered

    def execute(self, job: Job, instance: Optional[Instance] = None) -> Instance:
        """Run and return only the target datasets."""
        targets, _links = self.run(job, instance)
        return targets


def run_job(
    job: Job, instance: Optional[Instance] = None, **options
) -> Instance:
    """Convenience: run ``job`` and return the target datasets;
    ``options`` are :class:`EtlEngine`'s."""
    return EtlEngine(**options).execute(job, instance)


def run_job_with_links(
    job: Job, instance: Optional[Instance] = None, **options
) -> Tuple[Instance, Dict[str, Dataset]]:
    """Run ``job`` returning targets plus every link's dataset;
    ``options`` are :class:`EtlEngine`'s."""
    return EtlEngine(**options).run(job, instance)


__all__ = ["EtlEngine", "EtlRunStats", "run_job", "run_job_with_links"]
