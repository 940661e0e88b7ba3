"""repro.cost — the cost-based planning layer.

Every data-size decision the system makes — push an OHM region into the
DBMS or keep it in the ETL engine (:mod:`repro.deploy.pushdown`), run a
job on row kernels or block kernels (``mode="auto"`` on the engines)
— consults the same three pieces:

* :mod:`repro.cost.catalog` — a :class:`StatisticsCatalog` of
  per-relation row counts, distinct-value/null-fraction sketches
  (seedable sampling), and observed per-edge actuals fed back from runs;
* :mod:`repro.cost.estimate` — a :class:`CardinalityEstimator` walking
  the OHM graph propagating selectivities;
* :mod:`repro.cost.model` — a :class:`CostModel` with per-platform
  operator cost functions (sqlite vs row kernels vs block kernels) and
  the derived rows/block crossover.

``--explain`` renders all of it per operator
(:func:`repro.cost.explain.explain_graph`); ``docs/planning.md`` is the
handbook.

The ``cost_based`` knob (kwarg > :func:`set_default_cost_based` >
``REPRO_COST`` > True) gates whether ``plan_pushdown`` costs SQL-vs-ETL
placement or keeps the paper's pushability-only maximal pushdown.
"""

from __future__ import annotations

from typing import Optional

from repro import config
from repro.cost.catalog import (
    ColumnStats,
    StatisticsCatalog,
    TableStats,
    catalog_for,
)
from repro.cost.estimate import (
    CardinalityEstimator,
    GraphEstimate,
    OperatorEstimate,
)
from repro.cost.explain import (
    actuals_from_edges,
    actuals_from_metrics,
    explain_graph,
)
from repro.cost.model import (
    DEFAULT_MODEL,
    FUSED_ROW_COST,
    CostModel,
    choose_tier,
    derived_block_min_rows,
)


def default_cost_based() -> bool:
    """The process-wide cost-based-pushdown default: a
    :func:`set_default_cost_based` override wins, else ``REPRO_COST``,
    else True."""
    return config.COST_BASED.default()


def set_default_cost_based(value: Optional[bool]) -> None:
    """Override the process-wide cost-based default (None restores the
    environment-variable/True resolution)."""
    config.COST_BASED.set(value)


def resolve_cost_based(value: Optional[bool]) -> bool:
    """Resolve ``plan_pushdown``'s ``cost`` argument: an explicit
    True/False wins, None means the process default."""
    return bool(config.COST_BASED.resolve(value))


__all__ = [
    "CardinalityEstimator",
    "ColumnStats",
    "CostModel",
    "DEFAULT_MODEL",
    "FUSED_ROW_COST",
    "GraphEstimate",
    "OperatorEstimate",
    "StatisticsCatalog",
    "TableStats",
    "actuals_from_edges",
    "actuals_from_metrics",
    "catalog_for",
    "choose_tier",
    "default_cost_based",
    "derived_block_min_rows",
    "explain_graph",
    "resolve_cost_based",
    "set_default_cost_based",
]
