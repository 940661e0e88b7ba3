"""The benchmark's three workloads, each built from a seed.

Every builder returns the ETL job and the source instance the pipeline
runs over; the sizes are keyword arguments so the benchmark's own tests
can run the same shapes at tiny sizes. Why each workload exists is
recorded in ``BENCHMARK.json`` and ``perfbench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.data.dataset import Instance
from repro.etl.model import Job
from repro.etl.xmlio import job_to_xml
from repro.workloads import (
    build_chain_job,
    build_example_job,
    build_kitchen_sink_job,
    generate_chain_instance,
    generate_instance,
    generate_kitchen_sink_instance,
)


def chain(seed: int, stages: int = 400, rows: int = 200) -> Tuple[Job, Instance]:
    """A deep linear job: the translation layers do the work."""
    return build_chain_job(stages, seed=seed), generate_chain_instance(rows, seed=seed)


def kitchen_sink(
    seed: int, orders: int = 25_000, customers: int = 5_000
) -> Tuple[Job, Instance]:
    """A wide, shallow job over ~34k rows: the runtimes do the work.

    The surrogate key is off: its key assignment depends on row order,
    which the mapping executor does not preserve."""
    job = build_kitchen_sink_job(with_surrogate_key=False)
    return job, generate_kitchen_sink_instance(orders, customers, seed=seed)


def paper_example(seed: int, customers: int = 600) -> Tuple[Job, Instance]:
    """The paper's Figure-3 job: the mapping executor's join does the work."""
    return build_example_job(), generate_instance(customers, seed=seed)


WORKLOADS: Dict[str, Callable[..., Tuple[Job, Instance]]] = {
    "chain400": chain,
    "sink25k": kitchen_sink,
    "paper600": paper_example,
}


@dataclass(frozen=True)
class Workload:
    """The generated inputs: the job object, its XML and the source data."""

    name: str
    job: Job
    xml: str
    instance: Instance


def build(name: str, seed: int, **sizes: int) -> Workload:
    """Build workload ``name`` from ``seed`` (``sizes`` override the
    builder's default sizes)."""
    job, instance = WORKLOADS[name](seed, **sizes)
    return Workload(name, job, job_to_xml(job), instance)
