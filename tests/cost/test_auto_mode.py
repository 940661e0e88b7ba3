"""mode="auto": per-run tier selection, bit-identical to the oracle."""

import pytest

from repro.compile import compile_job
from repro.config import MODES
from repro.cost import derived_block_min_rows
from repro.errors import ValidationError
from repro.etl import EtlEngine
from repro.mapping import MappingExecutor
from repro.obs import Observability
from repro.ohm import OhmExecutor
from repro.workloads import (
    build_chain_job,
    build_example_job,
    generate_chain_instance,
    generate_instance,
)


def _auto_tier_metric(obs):
    counters = obs.metrics.snapshot().get("counters", {})
    tiers = [
        key[len("exec.auto.tier."):]
        for key in counters if key.startswith("exec.auto.tier.")
    ]
    assert len(tiers) >= 1
    return tiers[-1]


class TestTierSelection:
    def test_small_input_runs_on_row_kernels(self):
        obs = Observability(stats=True)
        engine = EtlEngine(obs=obs, mode="auto")
        engine.execute(build_example_job(), generate_instance(20))
        assert _auto_tier_metric(obs) == "rows"

    def test_medium_input_runs_on_block_kernels(self):
        n = derived_block_min_rows() * 3
        obs = Observability(stats=True)
        engine = EtlEngine(obs=obs, mode="auto")
        engine.execute(build_chain_job(4), generate_chain_instance(n))
        assert _auto_tier_metric(obs) == "block"

    def test_large_input_runs_on_block_kernels(self):
        n = derived_block_min_rows() * 30
        obs = Observability(stats=True)
        engine = EtlEngine(obs=obs, mode="auto")
        engine.execute(build_chain_job(4), generate_chain_instance(n))
        assert _auto_tier_metric(obs) == "block"


class TestExplicitModes:
    def test_mode_rows_disables_batching(self):
        engine = EtlEngine(mode="rows", batched=True)
        assert engine.options.batched is False

    def test_mode_block_enables_batching(self):
        engine = EtlEngine(mode="block")
        assert engine.options.batched is True

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValidationError):
            EtlEngine(mode="turbo")

    @pytest.mark.parametrize("via", ["kwarg", "env"])
    def test_parallel_mode_is_rejected(self, via, monkeypatch):
        kwargs = {"mode": "parallel"} if via == "kwarg" else {}
        if via == "env":
            monkeypatch.setenv("REPRO_MODE", "parallel")
        with pytest.raises(ValidationError) as info:
            EtlEngine(**kwargs)
        assert "expected one of ('rows', 'block', 'auto')" in str(info.value)


class TestAutoParity:
    """Whatever tier auto picks, results match the interpreting oracle."""

    @pytest.mark.parametrize("n", [50, 2000], ids=["rows", "block"])
    def test_etl_engine(self, n):
        job = build_chain_job(6)
        instance = generate_chain_instance(n)
        oracle = EtlEngine(compiled=False).execute(job, instance)
        auto = EtlEngine(mode="auto").execute(job, instance)
        assert auto.same_bags(oracle)

    @pytest.mark.parametrize("n", [50, 2000], ids=["rows", "block"])
    def test_ohm_executor(self, n):
        graph = compile_job(build_chain_job(6))
        instance = generate_chain_instance(n)
        oracle = OhmExecutor(compiled=False).execute(graph, instance)
        auto = OhmExecutor(mode="auto").execute(graph, instance)
        assert auto.same_bags(oracle)

    def test_mapping_executor(self):
        from repro.fasttrack import Orchid

        orchid = Orchid()
        job = build_example_job()
        mappings = orchid.to_mappings(orchid.import_etl(job))
        instance = generate_instance(150)
        oracle = MappingExecutor(compiled=False).execute(mappings, instance)
        auto = MappingExecutor(mode="auto").execute(mappings, instance)
        assert auto.same_bags(oracle)

    def test_example_job_all_modes_agree(self):
        job = build_example_job()
        instance = generate_instance(120)
        oracle = EtlEngine(compiled=False).execute(job, instance)
        for mode in MODES:
            result = EtlEngine(mode=mode).execute(job, instance)
            assert result.same_bags(oracle), mode
