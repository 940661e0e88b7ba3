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
"""

from __future__ import annotations

import warnings
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.data.dataset import Dataset, Instance
from repro.errors import STATIC_ERRORS, ExecutionError, RunCancelled
from repro.etl.model import Job
from repro.etl.stages.access import TableSource, TableTarget
from repro.exec import (
    ExpressionPlanner,
    degrade_counter,
    resolve_batch_size,
    resolve_batched,
    resolve_compiled,
    resolve_fused,
    resolve_mode,
)
from repro.obs import NULL_OBS, Observability
from repro.resilience import (
    ErrorContext,
    RejectedRow,
    rejects_dataset,
    resolve_checkpoint,
    resolve_on_error,
    resolve_retry,
)
from repro.supervision import (
    governed,
    resolve_breaker,
    resolve_memory_budget,
    resolve_supervisor,
)


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

    ``on_error`` / ``retry`` / ``checkpoint`` default to the process
    triads (``REPRO_ON_ERROR``, ``REPRO_MAX_RETRIES``,
    ``REPRO_CHECKPOINT_DIR``); ``degrade=False`` disables the batched →
    rows → oracle fallback ladder (useful when debugging a kernel — the
    first failure then surfaces directly).
    """

    def __init__(
        self,
        obs: Optional[Observability] = None,
        compiled: Optional[bool] = None,
        batched: Optional[bool] = None,
        batch_size: Optional[int] = None,
        on_error: Optional[str] = None,
        retry=None,
        checkpoint=None,
        degrade: bool = True,
        mode: Optional[str] = None,
        catalog=None,
        fused: Optional[bool] = None,
        deadline: Optional[float] = None,
        memory_budget=None,
        breaker=None,
        supervisor=None,
        check: Optional[bool] = None,
    ):
        self._obs = obs or NULL_OBS
        # local import: repro.analysis itself imports the stage/operator
        # catalogues, so a module-level import here would be circular
        from repro.analysis import resolve_check

        #: whether :func:`repro.analysis.check_plan` vets the job before
        #: any row is processed (``REPRO_CHECK`` ladder).
        self.check = resolve_check(check)
        #: whether stages lower expressions through the compiler
        #: (``False`` falls back to the interpreting oracle; ``None``
        #: at the constructor meant the process default).
        self.compiled = resolve_compiled(compiled)
        #: whether stages route through the columnar block kernels
        #: (requires the compiler; stages fall back per operator).
        self.batched = self.compiled and resolve_batched(batched)
        self.batch_size = resolve_batch_size(batch_size)
        #: the run-level row error policy (stages may override per-stage
        #: via ``Stage.on_error``).
        self.on_error = resolve_on_error(on_error)
        #: retry policy for transient source/target failures, or None.
        self.retry = resolve_retry(retry)
        #: checkpoint store for resumable runs, or None.
        self.checkpoint = resolve_checkpoint(checkpoint)
        self.degrade = degrade
        #: execution-tier mode: "rows"/"block" pin the tier,
        #: "auto" picks per run from the input size via the cost model,
        #: None keeps the per-flag resolution above.
        self.mode = resolve_mode(mode)
        #: whether batched stages chain block operators through fused
        #: selection-vector pipelines (falls back per chain).
        self._fused_opt = fused
        self.fused = self.batched and resolve_fused(fused)
        if self.mode is not None:
            probe = ExpressionPlanner(
                None, compiled, batched, self.batch_size, mode=self.mode,
                fused=fused,
            )
            self.batched = probe.batched
            self.fused = probe.fused
        #: per-run deadline supervision, or None (no per-boundary work).
        self.supervisor = resolve_supervisor(
            supervisor, deadline, obs=self._obs
        )
        #: resident-row budget blocking kernels obey during runs, or None.
        self.memory_budget = resolve_memory_budget(memory_budget)
        #: circuit breaker guarding source/target endpoints, or None.
        self.breaker = resolve_breaker(breaker)
        #: statistics catalog fed back with source stats and per-link
        #: actuals after every run (None disables the feedback loop).
        self.catalog = catalog
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

    # -- fault-tolerant building blocks ---------------------------------------

    def _endpoint(self, fn, name: str):
        """Run a source extract / target load: retry absorbs transients
        *inside* the breaker, so only an exhausted retry budget counts
        as one breaker failure — and an open breaker fails fast without
        touching the endpoint (or burning the backoff schedule)."""
        if self.retry is not None:
            call = lambda: self.retry.call(  # noqa: E731
                fn, name=name, obs=self._obs
            )
        else:
            call = fn
        if self.breaker is not None:
            return self.breaker.call(name, call, obs=self._obs)
        return call()

    def _ladder(self, planner: ExpressionPlanner) -> List[ExpressionPlanner]:
        """The degradation ladder for this run, most capable tier first:
        fused pipelines → batched blocks → compiled row kernels →
        interpreting oracle."""
        tiers = [planner]
        if not self.degrade:
            return tiers
        if planner.fused:
            tiers.append(
                ExpressionPlanner(
                    planner.registry, True, True, self.batch_size,
                    fused=False,
                )
            )
        if planner.batched:
            tiers.append(
                ExpressionPlanner(
                    planner.registry, True, False, self.batch_size
                )
            )
        if self.compiled:
            tiers.append(
                ExpressionPlanner(
                    planner.registry, False, False, self.batch_size
                )
            )
        return tiers

    def _execute_stage(
        self, stage, inputs, out_relations, registry, tiers, ctx, metrics
    ):
        """One stage through the degradation ladder.

        Each failing tier drops to the next; the context is reset per
        attempt so a failed attempt's partial rejects are not counted
        twice. When every tier fails, the last tier's exception (the
        oracle's — the most trustworthy diagnosis) propagates."""
        if not stage.supports_compiled:
            if stage.supports_policies:
                return stage.execute(inputs, out_relations, registry, errors=ctx)
            return stage.execute(inputs, out_relations, registry)
        last_exc = None
        for i, planner in enumerate(tiers):
            if i:
                metrics.count(degrade_counter(tiers[i - 1]))
            ctx.reset()
            kwargs = {"planner": planner, "obs": self._obs}
            if stage.supports_policies:
                kwargs["errors"] = ctx
            try:
                return stage.execute(inputs, out_relations, registry, **kwargs)
            except RunCancelled:
                raise  # cancellation is not a tier failure — never degrade
            except STATIC_ERRORS:
                # a plan defect fails identically at every tier: degrading
                # would only bury the diagnosis under tier noise
                raise
            except Exception as exc:  # noqa: BLE001 — ladder decides
                last_exc = exc
        raise last_exc

    # -- the run loop ---------------------------------------------------------

    def _restore_stage(
        self, stage, restored, out_edges, targets, by_port, link_data, stats
    ) -> None:
        """Wire a checkpoint-restored stage's saved outputs in place of
        executing it."""
        metrics = self._obs.metrics
        saved_outputs, delivered = restored
        outputs = [saved_outputs[e.name] for e in out_edges]
        if delivered is not None:
            targets.put(delivered)
        stats.restored_stages.append(stage.name)
        metrics.count("exec.checkpoint.restored")
        for edge, dataset in zip(out_edges, outputs):
            by_port[(edge.src, edge.src_port)] = dataset
            link_data[edge.name] = dataset
            stats.link_counts[edge.name] = len(dataset)
        if self.supervisor is not None:
            self.supervisor.committed(stage.uid)

    def _compute_stage(
        self, stage, inputs, data_edges, instance, registry, tiers, ctx
    ):
        """One stage's pure compute (endpoint retry included): no spans,
        no shared-state writes. Returns ``(outputs, delivered)``."""
        metrics = self._obs.metrics
        if isinstance(stage, TableTarget):
            delivered = self._endpoint(
                lambda: stage.load(
                    inputs[0],
                    trusted=self.compiled,
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
        outputs = self._execute_stage(
            stage, inputs, out_relations, registry, tiers, ctx, metrics
        )
        if len(outputs) != len(data_edges):
            raise ExecutionError(
                f"{stage.STAGE_TYPE} {stage.name!r} produced "
                f"{len(outputs)} outputs for {len(data_edges)} links",
                stage=stage.name,
            )
        return outputs, None

    def _finish_stage(
        self, stage, inputs, outputs, delivered, reject_edge, ctx, span,
        seconds, targets, stats,
    ):
        """One stage's bookkeeping. Returns the outputs with the
        reject-link dataset appended when the stage declares one."""
        metrics = self._obs.metrics
        if isinstance(stage, TableTarget):
            targets.put(delivered)
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
        if self._obs.enabled:
            stats.stage_seconds[stage.name] = seconds
            metrics.observe(f"etl.stage.{stage.name}.seconds", seconds)
            span.set(
                rows_in=sum(len(d) for d in inputs),
                rows_out=sum(len(d) for d in outputs),
            )
        return outputs

    def _commit_stage(
        self, job, stage, out_edges, outputs, delivered, by_port,
        link_data, stats,
    ) -> None:
        """Checkpoint and wire a finished stage's outputs onto its
        links."""
        metrics = self._obs.metrics
        if self.checkpoint is not None:
            self.checkpoint.save_stage(
                job,
                stage.uid,
                [(e.name, d) for e, d in zip(out_edges, outputs)],
                delivered=delivered,
            )
            metrics.count("exec.checkpoint.saved")
        for edge, dataset in zip(out_edges, outputs):
            by_port[(edge.src, edge.src_port)] = dataset
            link_data[edge.name] = dataset
            stats.link_counts[edge.name] = len(dataset)
            metrics.count(f"etl.link.{edge.name}.rows", len(dataset))
        if self.supervisor is not None:
            self.supervisor.committed(stage.uid)

    def run(
        self, job: Job, instance: Optional[Instance] = None
    ) -> Tuple[Instance, Dict[str, Dataset]]:
        """Run ``job`` against ``instance``.

        Returns ``(targets, link_data)``: datasets delivered to each
        target stage (keyed by target relation name) and the dataset that
        flowed over every link (keyed by link name)."""
        tracer = self._obs.tracer
        observing = self._obs.enabled
        stats = EtlRunStats()
        instance = instance or Instance()
        if self.check:
            from repro.analysis import check_plan

            check_plan(job, registry=job.registry)
        # one planner per run: expressions shared by several stages are
        # lowered once, and the job's own registry is captured
        planner = ExpressionPlanner(
            job.registry, self.compiled, self.batched, self.batch_size,
            mode=self.mode, fused=self._fused_opt,
        )
        if self.mode == "auto":
            n_rows = max((len(d) for d in instance), default=0)
            tier = planner.tune_for(n_rows, memory_budget=self.memory_budget)
            self._obs.metrics.count(f"exec.auto.tier.{tier}")
        tiers = self._ladder(planner)
        job.propagate_schemas()
        by_port: Dict[Tuple[str, int], Dataset] = {}
        link_data: Dict[str, Dataset] = {}
        targets = Instance()
        supervisor = self.supervisor
        if supervisor is not None:
            supervisor.start(self._obs)
        frontier = (
            self.checkpoint.load_frontier(job) if self.checkpoint else {}
        )
        with governed(self.memory_budget), tracer.span(
            "etl.run", job=job.name
        ):
            for stage in job.topological_order():
                if supervisor is not None:
                    supervisor.check(stage.name)
                inputs = [
                    by_port[(e.src, e.src_port)]
                    for e in job.in_edges(stage.uid)
                ]
                out_edges = job.out_edges(stage.uid)
                data_edges = [e for e in out_edges if not e.is_reject]
                reject_edge = next(
                    (e for e in out_edges if e.is_reject), None
                )
                restored = frontier.get(stage.uid)
                if restored is not None and all(
                    e.name in restored[0] for e in out_edges
                ):
                    self._restore_stage(
                        stage, restored, out_edges,
                        targets, by_port, link_data, stats,
                    )
                    continue
                ctx = ErrorContext(
                    stage.name, stage.on_error or self.on_error
                )
                with tracer.span(
                    f"etl.stage.{stage.STAGE_TYPE}", stage=stage.name
                ) as span:
                    started = perf_counter() if observing else 0.0
                    outputs, delivered = self._compute_stage(
                        stage, inputs, data_edges, instance,
                        job.registry, tiers, ctx,
                    )
                    seconds = (
                        perf_counter() - started if observing else 0.0
                    )
                    outputs = self._finish_stage(
                        stage, inputs, outputs, delivered, reject_edge,
                        ctx, span, seconds, targets, stats,
                    )
                self._commit_stage(
                    job, stage, out_edges, outputs, delivered,
                    by_port, link_data, stats,
                )
        if self.checkpoint is not None:
            self.checkpoint.clear(job)
        if self.catalog is not None:
            # close the feedback loop: the next estimate_graph over the
            # same link names re-plans from these actuals
            self.catalog.observe_instance(instance)
            self.catalog.observe_link_counts(stats.link_counts)
        self.last_run = stats
        return targets, link_data

    def execute(self, job: Job, instance: Optional[Instance] = None) -> Instance:
        """Run and return only the target datasets."""
        targets, _links = self.run(job, instance)
        return targets


def run_job(
    job: Job,
    instance: Optional[Instance] = None,
    obs: Optional[Observability] = None,
    compiled: Optional[bool] = None,
    batched: Optional[bool] = None,
    batch_size: Optional[int] = None,
    on_error: Optional[str] = None,
    retry=None,
    checkpoint=None,
    fused: Optional[bool] = None,
    deadline: Optional[float] = None,
    memory_budget=None,
    breaker=None,
    check: Optional[bool] = None,
) -> Instance:
    """Convenience: run ``job`` and return the target datasets."""
    return EtlEngine(
        obs=obs,
        compiled=compiled,
        batched=batched,
        batch_size=batch_size,
        on_error=on_error,
        retry=retry,
        checkpoint=checkpoint,
        fused=fused,
        deadline=deadline,
        memory_budget=memory_budget,
        breaker=breaker,
        check=check,
    ).execute(job, instance)


def run_job_with_links(
    job: Job,
    instance: Optional[Instance] = None,
    obs: Optional[Observability] = None,
    compiled: Optional[bool] = None,
    batched: Optional[bool] = None,
    batch_size: Optional[int] = None,
    on_error: Optional[str] = None,
    retry=None,
    checkpoint=None,
    fused: Optional[bool] = None,
    deadline: Optional[float] = None,
    memory_budget=None,
    breaker=None,
    check: Optional[bool] = None,
) -> Tuple[Instance, Dict[str, Dataset]]:
    """Run ``job`` returning targets plus every link's dataset."""
    return EtlEngine(
        obs=obs,
        compiled=compiled,
        batched=batched,
        batch_size=batch_size,
        on_error=on_error,
        retry=retry,
        checkpoint=checkpoint,
        fused=fused,
        deadline=deadline,
        memory_budget=memory_budget,
        breaker=breaker,
    ).run(job, instance)


__all__ = ["EtlEngine", "EtlRunStats", "run_job", "run_job_with_links"]
