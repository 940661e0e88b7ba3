"""The one run driver the three runtimes share.

The ETL engine, the OHM executor and the mapping executor run the same
lifecycle around different per-node work. This module owns that
lifecycle; each runtime supplies only its nodes and its per-node step.
:func:`drive` runs these steps in order, once per run:

1. **options** — the runtime's constructor kwargs were resolved once
   through :mod:`repro.config` into a :class:`RunOptions`;
2. **check** — with ``check`` on, :func:`repro.analysis.check_plan`
   vets the plan before any row is processed;
3. **supervise** — the :class:`~repro.supervision.RunSupervisor` starts,
   is checked before each node and told after it which node committed,
   and the memory budget is installed around the run;
4. **planner** — one :class:`~repro.exec.ExpressionPlanner` per run,
   re-tiered from the input size under ``mode="auto"``
   (``exec.auto.tier.*``);
5. **ladder** — the fused → block → rows → oracle ladder below that
   planner, and the one attempt loop (:meth:`Run.attempt`) that walks
   it: a failing tier drops to the next (``exec.degrade.*``), while
   cancellation and static plan errors surface at once;
6. **catalog feedback** — the row counts the steps return feed the
   statistics catalog, so the next estimate re-plans from actuals.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import STATIC_ERRORS, RunCancelled
from repro.exec import ExpressionPlanner, degrade_counter, resolve_fused
from repro.obs import NULL_OBS
from repro.resilience import (
    ErrorContext,
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


class RunOptions:
    """A runtime's constructor kwargs, resolved once.

    Each option resolves as ``kwarg > process setter > REPRO_* env var
    > default`` (see :mod:`repro.config`):

    :ivar obs: the :class:`~repro.obs.Observability` runs report into.
    :ivar compiled: lower expressions through the compiler (False is the
        interpreting oracle).
    :ivar batched: route operators through the columnar block kernels
        (needs ``compiled``; ``mode`` "rows"/"block" pins it).
    :ivar batch_size: rows per block on the batched tier.
    :ivar fused: chain block operators through selection-vector
        pipelines whenever the block tier runs.
    :ivar mode: "rows"/"block" pin the tier, "auto" picks it per run
        from the input size, None keeps the flags above.
    :ivar on_error: the run-level row error policy.
    :ivar retry: retry policy for transient endpoint failures, or None.
    :ivar checkpoint: checkpoint store for resumable runs, or None.
    :ivar breaker: circuit breaker guarding endpoints, or None.
    :ivar supervisor: the run supervisor (built from ``deadline`` when
        none is given), or None for unsupervised runs.
    :ivar memory_budget: resident-row budget for blocking kernels, or
        None.
    :ivar catalog: statistics catalog fed back after every run, or None.
    :ivar check: vet the plan with static analysis before any row.

    ``retry``, ``checkpoint`` and ``breaker`` act on source/target
    endpoints, which only the ETL engine has; the OHM and mapping
    executors resolve with ``endpoints=False`` and reject them.
    """

    __slots__ = (
        "obs",
        "compiled",
        "batched",
        "batch_size",
        "fused",
        "mode",
        "on_error",
        "retry",
        "checkpoint",
        "breaker",
        "supervisor",
        "memory_budget",
        "catalog",
        "check",
    )

    def __init__(
        self,
        endpoints: bool = True,
        /,
        *,
        obs=None,
        compiled: Optional[bool] = None,
        batched: Optional[bool] = None,
        batch_size: Optional[int] = None,
        on_error: Optional[str] = None,
        retry=None,
        checkpoint=None,
        mode: Optional[str] = None,
        catalog=None,
        fused: Optional[bool] = None,
        deadline: Optional[float] = None,
        memory_budget=None,
        breaker=None,
        supervisor=None,
        check: Optional[bool] = None,
    ):
        # local import: repro.analysis imports the stage and operator
        # catalogues, which import the runtimes, which import this module
        from repro.analysis import resolve_check

        if not endpoints:
            for name, value in (
                ("retry", retry),
                ("checkpoint", checkpoint),
                ("breaker", breaker),
            ):
                if value is not None:
                    raise TypeError(f"unexpected keyword argument {name!r}")
        self.obs = obs or NULL_OBS
        self.check = resolve_check(check)
        # the planner owns the tier-flag precedence (the compiler gates
        # batching, a pinned mode overrides the batched flag)
        tiers = ExpressionPlanner(
            None, compiled, batched, batch_size, mode=mode, fused=fused
        )
        self.compiled = tiers.compiled
        self.batched = tiers.batched
        self.batch_size = tiers.batch_size
        self.mode = tiers.mode
        self.fused = resolve_fused(fused)
        self.on_error = resolve_on_error(on_error)
        self.retry = resolve_retry(retry) if endpoints else None
        self.checkpoint = resolve_checkpoint(checkpoint) if endpoints else None
        self.breaker = resolve_breaker(breaker) if endpoints else None
        self.supervisor = resolve_supervisor(
            supervisor, deadline, obs=self.obs
        )
        self.memory_budget = resolve_memory_budget(memory_budget)
        self.catalog = catalog

    def planner(self, registry) -> ExpressionPlanner:
        """A fresh top-tier planner for ``registry``: the one a run
        starts from, and the one a runtime's per-node methods use when
        called outside a run."""
        return ExpressionPlanner(
            registry, self.compiled, self.batched, self.batch_size,
            mode=self.mode, fused=self.fused,
        )


def _ladder(top: ExpressionPlanner) -> List[ExpressionPlanner]:
    """The degradation ladder below ``top``, most capable tier first:
    fused pipelines → batched blocks → compiled row kernels →
    interpreting oracle."""
    rungs = [top]
    registry, size = top.registry, top.batch_size
    if top.fused:
        rungs.append(
            ExpressionPlanner(registry, True, True, size, fused=False)
        )
    if top.batched:
        rungs.append(ExpressionPlanner(registry, True, False, size))
    if top.compiled:
        rungs.append(ExpressionPlanner(registry, False, False, size))
    return rungs


class Run:
    """One run in flight, handed to every node step.

    :ivar planner: the run's top-tier planner (tier flags for work that
        never degrades, such as endpoint I/O).
    :ivar ladder: that planner followed by every lower rung.
    """

    __slots__ = ("planner", "ladder", "_metrics")

    def __init__(self, options: RunOptions, registry, instance):
        planner = options.planner(registry)
        if options.mode == "auto":
            n_rows = max((len(d) for d in instance), default=0)
            tier = planner.tune_for(
                n_rows, memory_budget=options.memory_budget
            )
            options.obs.metrics.count(f"exec.auto.tier.{tier}")
        self.planner = planner
        self.ladder = _ladder(planner)
        self._metrics = options.obs.metrics

    def attempt(self, fn: Callable, errors: ErrorContext):
        """``fn(planner)`` down the ladder until one tier succeeds.

        ``errors`` is reset per attempt, so a failed attempt's partial
        rejects are not counted twice. When every tier fails, the last
        tier's exception (the oracle's — the most trustworthy diagnosis)
        propagates."""
        ladder = self.ladder
        last_exc = None
        for i, planner in enumerate(ladder):
            if i:
                self._metrics.count(degrade_counter(ladder[i - 1]))
            errors.reset()
            try:
                return fn(planner)
            except RunCancelled:
                raise  # cancellation is not a tier failure — never degrade
            except STATIC_ERRORS:
                # a plan defect fails identically at every tier: degrading
                # would only bury the diagnosis under tier noise
                raise
            except Exception as exc:  # noqa: BLE001 — the ladder decides
                last_exc = exc
        raise last_exc


def drive(
    options: RunOptions,
    plan,
    registry,
    instance,
    nodes: Callable[[], Iterable[Tuple[str, object]]],
    step: Callable[[object, Run], Dict[str, int]],
    span: Optional[Tuple[str, dict]] = None,
) -> None:
    """Run ``plan`` through the shared lifecycle.

    :param plan: the job, graph or mapping set (what ``check`` vets).
    :param registry: the function registry expressions lower against.
    :param instance: the source instance (its largest dataset sizes the
        run under ``mode="auto"``; the catalog observes it).
    :param nodes: called once the plan passed its check; returns the
        ``(name, node)`` pairs in execution order. ``name`` is what the
        supervisor checks and commits.
    :param step: the runtime's per-node work, ``step(node, run)``;
        returns ``{relation name: rows}`` for what the node produced.
    :param span: ``(name, attributes)`` of the run's root span, if any.
    """
    if options.check:
        from repro.analysis import check_plan

        check_plan(plan, registry=registry)
    obs = options.obs
    supervisor = options.supervisor
    if supervisor is not None:
        supervisor.start(obs)
    run = Run(options, registry, instance)
    ordered = nodes()
    observed: Dict[str, int] = {}
    root = obs.tracer.span(span[0], **span[1]) if span else nullcontext()
    with governed(options.memory_budget), root:
        for name, node in ordered:
            if supervisor is not None:
                supervisor.check(name)
            observed.update(step(node, run))
            if supervisor is not None:
                supervisor.committed(name)
    catalog = options.catalog
    if catalog is not None:
        # close the feedback loop: the next estimate over the same
        # relation names re-plans from these actuals
        catalog.observe_instance(instance)
        catalog.observe_link_counts(observed)


__all__ = ["Run", "RunOptions", "drive"]
