"""Graceful kernel degradation: fused chains → batched → row kernels →
interpreted oracle. A kernel fault at a tier never changes results — it
only shows up in the ``exec.degrade.*`` counters.

A block-tier fault plan also fires inside the fused tier (fused chains
run the block kernels' lowered functions), so a batched+fused engine
degrades fused → block on the first block fault; the block tier then
succeeds once the fault budget is spent."""

import pytest

from repro.compile import compile_job
from repro.errors import FaultInjected
from repro.etl import EtlEngine
from repro.faults import FaultPlan
from repro.mapping import MappingExecutor, ohm_to_mappings
from repro.obs import Observability
from repro.ohm import OhmExecutor
from repro.resilience import format_row
from repro.workloads import build_faulty_job, generate_faulty_instance


def _premium_rows(targets):
    return sorted(map(format_row, targets.dataset("Premium").rows))


@pytest.fixture
def instance():
    instance, _plan = generate_faulty_instance(n=40, seed=13)
    return instance


@pytest.fixture
def baseline(instance):
    targets, _ = EtlEngine().run(build_faulty_job(), instance)
    return _premium_rows(targets)


def _etl(instance, **options):
    return EtlEngine(**options).run(build_faulty_job(), instance)[0]


def _ohm(instance, **options):
    graph = compile_job(build_faulty_job())
    return OhmExecutor(**options).run(graph, instance)[0]


def _mapping(instance, **options):
    mappings = ohm_to_mappings(compile_job(build_faulty_job()))
    return MappingExecutor(**options).run(mappings, instance)[0]


@pytest.fixture(params=[_etl, _ohm, _mapping], ids=["etl", "ohm", "mapping"])
def run(request):
    """One runtime over the faulty job: every runtime walks the one
    ladder of :mod:`repro.exec.driver`."""
    return request.param


class TestLadder:
    def test_block_fault_degrades_to_row_kernels(
        self, run, instance, baseline
    ):
        plan = FaultPlan(seed=1).fault_kernels(tier="block", first=1)
        obs = Observability(stats=True)
        with plan.injected():
            targets = run(instance, obs=obs, compiled=True, batched=True)
        assert _premium_rows(targets) == baseline
        assert obs.metrics.counter("exec.degrade.fused_to_block") >= 1
        assert plan.kernel_faults_fired.get("block", 0) >= 1

    def test_compiled_fault_degrades_to_oracle(self, run, instance, baseline):
        plan = FaultPlan(seed=2).fault_kernels(tier="compiled", first=1)
        obs = Observability(stats=True)
        with plan.injected():
            targets = run(instance, obs=obs, compiled=True, batched=False)
        assert _premium_rows(targets) == baseline
        assert obs.metrics.counter("exec.degrade.rows_to_oracle") >= 1

    def test_batched_engine_falls_all_the_way_to_oracle(
        self, run, instance, baseline
    ):
        plan = (
            FaultPlan(seed=3)
            .fault_kernels(tier="block", first=100)
            .fault_kernels(tier="compiled", first=100)
        )
        obs = Observability(stats=True)
        with plan.injected():
            targets = run(instance, obs=obs, compiled=True, batched=True)
        assert _premium_rows(targets) == baseline
        assert obs.metrics.counter("exec.degrade.block_to_rows") >= 1
        assert obs.metrics.counter("exec.degrade.rows_to_oracle") >= 1

    def test_all_tiers_faulted_surfaces_the_error(self, run, instance):
        plan = (
            FaultPlan(seed=4)
            .fault_kernels(tier="block", first=100)
            .fault_kernels(tier="compiled", first=100)
            .fault_kernels(tier="oracle", first=100)
        )
        with plan.injected():
            with pytest.raises(FaultInjected):
                run(instance, compiled=True, batched=True)


class TestEtlDegrade:
    def test_degraded_run_with_rejects_keeps_parity(self, instance):
        poisoned, _ = generate_faulty_instance(n=40, seed=13, poison=4)
        clean_engine = EtlEngine(on_error="reject")
        clean, _ = clean_engine.run(build_faulty_job(), poisoned)
        clean_rejects = sorted(
            format_row(r.row) for r in clean_engine.last_run.rejected
        )
        plan = FaultPlan(seed=6).fault_kernels(tier="block", first=1)
        engine = EtlEngine(compiled=True, batched=True, on_error="reject")
        with plan.injected():
            degraded, _ = engine.run(build_faulty_job(), poisoned)
        assert _premium_rows(degraded) == _premium_rows(clean)
        assert sorted(
            format_row(r.row) for r in engine.last_run.rejected
        ) == clean_rejects


class TestInfrastructureErrorsAreNotAbsorbed:
    """Regression: an injected kernel fault under policy=reject must
    degrade the whole stage, not masquerade as per-row data errors on
    the reject channel."""

    def test_kernel_faults_do_not_leak_onto_the_reject_channel(self):
        poisoned, plan = generate_faulty_instance(n=40, seed=15, poison=4)
        clean_engine = EtlEngine(compiled=False, on_error="reject")
        clean, _ = clean_engine.run(build_faulty_job(), poisoned)
        clean_rejects = sorted(
            format_row(r.row) for r in clean_engine.last_run.rejected
        )
        fault_plan = FaultPlan(seed=15).fault_kernels(
            tier="compiled", rate=0.5
        )
        engine = EtlEngine(compiled=True, batched=False, on_error="reject")
        with fault_plan.injected():
            targets, _ = engine.run(build_faulty_job(), poisoned)
        assert _premium_rows(targets) == _premium_rows(clean)
        rejects = engine.last_run.rejected
        assert sorted(format_row(r.row) for r in rejects) == clean_rejects
        assert all(r.error_code != "FaultInjected" for r in rejects)
