"""repro.config — the central tuning-knob registry.

Every data-size and robustness decision the system makes used to carry
its own scattered module-level triad (``default_*`` / ``set_default_*``
/ ``resolve_*`` plus a ``REPRO_*`` environment variable). This module
centralizes the machinery: a :class:`Knob` implements the established
resolution precedence exactly once —

    explicit kwarg  >  process-wide setter  >  REPRO_* env var  >  default

— and every knob in the system is an instance registered here. The
public triads in :mod:`repro.exec` and :mod:`repro.resilience` are thin
delegations onto these instances, so existing call sites (and the CLI
flags) keep working unchanged.

Registered knobs:

================== ============================= =========================
name               environment variable(s)       default
================== ============================= =========================
compiled           REPRO_COMPILED                True
batched            REPRO_BATCH                   False
batch_size         REPRO_BATCH_SIZE, REPRO_BATCH 1024
fused              REPRO_FUSE                    True (needs batched)
on_error           REPRO_ON_ERROR                "fail_fast"
max_retries        REPRO_MAX_RETRIES             0
checkpoint_dir     REPRO_CHECKPOINT_DIR          None (off)
cost_based         REPRO_COST                    True
mode               REPRO_MODE                    None (explicit flags)
deadline           REPRO_DEADLINE                None (unbounded)
memory_budget      REPRO_MEMORY_BUDGET           None (unbounded)
breaker            REPRO_BREAKER                 None (breakers off)
check              REPRO_CHECK                   False (no pre-run lint)
================== ============================= =========================
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.errors import ValidationError

#: strings that mean "off" for boolean REPRO_* variables.
FALSE_VALUES = ("0", "false", "no", "off")

#: default rows per block in batched mode.
DEFAULT_BATCH_SIZE = 1024

#: the row error policies of :mod:`repro.resilience` (authoritative
#: tuple; ``repro.resilience.POLICIES`` re-exports it).
ERROR_POLICIES = ("fail_fast", "skip", "reject")

#: the execution-tier modes an engine's ``mode`` kwarg accepts.
MODES = ("rows", "block", "auto")


def parse_bool(raw: str) -> bool:
    """'0'/'false'/'no'/'off' (any case) are False; anything else True."""
    return raw.strip().lower() not in FALSE_VALUES


def _parse_false_only(raw: str) -> Optional[bool]:
    """Only an explicit false value overrides (for knobs defaulting on)."""
    return False if raw.strip().lower() in FALSE_VALUES else None


def _parse_int_above(minimum: int) -> Callable[[str], Optional[int]]:
    def parse(raw: str) -> Optional[int]:
        try:
            value = int(raw)
        except ValueError:
            return None
        return value if value >= minimum else None

    return parse


class Knob:
    """One named tuning knob with the standard resolution precedence.

    :param env: environment variable name(s), tried in order.
    :param default: the baked-in default value.
    :param parse: turns an env string into a value; returning ``None``
        skips that variable (it may also raise, e.g. on a malformed
        ``REPRO_MAX_RETRIES``).
    :param validate: normalizes/checks explicit values — applied to both
        setter and kwarg inputs, never to the default.
    """

    __slots__ = ("name", "env", "_default", "_parse", "_validate", "_override")

    def __init__(
        self,
        name: str,
        env: Union[str, Tuple[str, ...]] = (),
        default: Any = None,
        parse: Optional[Callable[[str], Any]] = None,
        validate: Optional[Callable[[Any], Any]] = None,
    ):
        self.name = name
        self.env = (env,) if isinstance(env, str) else tuple(env)
        self._default = default
        self._parse = parse
        self._validate = validate
        self._override: Any = None

    def set(self, value: Any) -> None:
        """Install a process-wide override (``None`` removes it,
        restoring the env-var/default resolution)."""
        if value is not None and self._validate is not None:
            value = self._validate(value)
        self._override = value

    def override(self) -> Any:
        """The current setter override, or None."""
        return self._override

    def from_env(self) -> Any:
        """The value the environment supplies, or None."""
        for variable in self.env:
            raw = os.environ.get(variable)
            if raw is None:
                continue
            value = self._parse(raw) if self._parse is not None else raw
            if value is not None:
                return value
        return None

    def default(self) -> Any:
        """Resolve without an explicit kwarg: setter > env > default."""
        if self._override is not None:
            return self._override
        value = self.from_env()
        if value is not None:
            return value
        return self._default

    def resolve(self, explicit: Any) -> Any:
        """Resolve an engine constructor's kwarg: an explicit value wins
        (validated), ``None`` means :meth:`default`."""
        if explicit is not None:
            if self._validate is not None:
                return self._validate(explicit)
            return explicit
        return self.default()

    def __repr__(self) -> str:
        return f"Knob({self.name!r}, env={self.env!r})"


_REGISTRY: Dict[str, Knob] = {}


def register(knob: Knob) -> Knob:
    """Add ``knob`` to the process registry (idempotent by name)."""
    _REGISTRY[knob.name] = knob
    return knob


def knob(name: str) -> Knob:
    """Look up a registered knob by name."""
    return _REGISTRY[name]


def snapshot() -> Dict[str, Any]:
    """Every registered knob's currently-resolved default — what an
    engine built with no kwargs would use. Diagnostic surface for
    ``--explain`` and tests."""
    return {name: k.default() for name, k in sorted(_REGISTRY.items())}


# -- validators ---------------------------------------------------------------


def _check_batch_size(value: Any) -> int:
    size = int(value)
    if size < 1:
        raise ValueError(f"batch size must be >= 1, got {value!r}")
    return size


def check_policy(policy: str) -> str:
    """Validate a row error policy name (shared with
    :mod:`repro.resilience.policy`)."""
    if policy not in ERROR_POLICIES:
        raise ValidationError(
            f"unknown error policy {policy!r}; expected one of "
            f"{ERROR_POLICIES}"
        )
    return policy


def check_mode(mode: str) -> str:
    """Validate an execution-tier mode name."""
    if mode not in MODES:
        raise ValidationError(
            f"unknown execution mode {mode!r}; expected one of {MODES}"
        )
    return mode


def _parse_on_error(raw: str) -> Optional[str]:
    value = raw.strip().lower()
    return check_policy(value) if value else None


def _parse_max_retries(raw: str) -> Optional[int]:
    value = raw.strip()
    if not value:
        return None
    try:
        parsed = int(value)
    except ValueError:
        raise ValidationError(
            f"REPRO_MAX_RETRIES must be an integer, got {value!r}"
        ) from None
    if parsed < 0:
        raise ValidationError("REPRO_MAX_RETRIES must be >= 0")
    return parsed


def _check_max_retries(value: Any) -> int:
    if value < 0:
        raise ValidationError("max retries must be >= 0")
    return value


def _parse_mode(raw: str) -> Optional[str]:
    value = raw.strip().lower()
    return check_mode(value) if value else None


def _parse_deadline(raw: str) -> Optional[float]:
    value = raw.strip()
    if not value:
        return None
    try:
        parsed = float(value)
    except ValueError:
        raise ValidationError(
            f"REPRO_DEADLINE must be a number of seconds, got {value!r}"
        ) from None
    return _check_deadline(parsed)


def _check_deadline(value: Any) -> float:
    deadline = float(value)
    if deadline <= 0:
        raise ValidationError("deadline must be > 0 seconds")
    return deadline


def _parse_memory_budget(raw: str) -> Optional[int]:
    value = raw.strip()
    if not value:
        return None
    try:
        parsed = int(value)
    except ValueError:
        raise ValidationError(
            f"REPRO_MEMORY_BUDGET must be an integer row count, got {value!r}"
        ) from None
    return _check_memory_budget(parsed)


def _check_memory_budget(value: Any) -> int:
    budget = int(value)
    if budget < 1:
        raise ValidationError("memory budget must be >= 1 resident row")
    return budget


def _parse_breaker(raw: str) -> Optional[int]:
    value = raw.strip()
    if not value:
        return None
    try:
        parsed = int(value)
    except ValueError:
        raise ValidationError(
            f"REPRO_BREAKER must be an integer failure threshold, "
            f"got {value!r}"
        ) from None
    if parsed < 0:
        raise ValidationError("REPRO_BREAKER must be >= 0")
    return parsed


def _check_breaker(value: Any) -> int:
    threshold = int(value)
    if threshold < 0:
        raise ValidationError("breaker failure threshold must be >= 0")
    return threshold


# -- the knobs ----------------------------------------------------------------

COMPILED = register(
    Knob("compiled", env="REPRO_COMPILED", default=True,
         parse=_parse_false_only)
)
BATCHED = register(
    Knob("batched", env="REPRO_BATCH", default=False, parse=parse_bool)
)
BATCH_SIZE = register(
    Knob(
        "batch_size",
        env=("REPRO_BATCH_SIZE", "REPRO_BATCH"),
        default=DEFAULT_BATCH_SIZE,
        parse=_parse_int_above(2),
        validate=_check_batch_size,
    )
)
#: whether batched execution fuses adjacent block operators into
#: selection-vector pipelines (see :mod:`repro.exec.fuse`); defaults on,
#: so only an explicit ``REPRO_FUSE=0`` / ``--no-fuse`` disables it. It
#: only takes effect when the batched tier is active.
FUSED = register(
    Knob("fused", env="REPRO_FUSE", default=True, parse=_parse_false_only)
)
ON_ERROR = register(
    Knob(
        "on_error",
        env="REPRO_ON_ERROR",
        default=ERROR_POLICIES[0],
        parse=_parse_on_error,
        validate=check_policy,
    )
)
MAX_RETRIES = register(
    Knob(
        "max_retries",
        env="REPRO_MAX_RETRIES",
        default=0,
        parse=_parse_max_retries,
        validate=_check_max_retries,
    )
)
CHECKPOINT_DIR = register(
    Knob(
        "checkpoint_dir",
        env="REPRO_CHECKPOINT_DIR",
        default=None,
        parse=lambda raw: raw.strip() or None,
    )
)
#: whether ``plan_pushdown`` costs SQL-vs-ETL placement (True) or keeps
#: the paper's pushability-only maximal pushdown (False) — see
#: :mod:`repro.deploy.pushdown`.
COST_BASED = register(
    Knob("cost_based", env="REPRO_COST", default=True, parse=parse_bool)
)
#: process-default execution-tier mode for engines built without an
#: explicit ``mode`` kwarg; ``None`` keeps the per-flag resolution.
MODE = register(
    Knob("mode", env="REPRO_MODE", default=None, parse=_parse_mode,
         validate=check_mode)
)
#: per-run wall-clock deadline in seconds for supervised runs; ``None``
#: means unbounded (see :mod:`repro.supervision`).
DEADLINE = register(
    Knob(
        "deadline",
        env="REPRO_DEADLINE",
        default=None,
        parse=_parse_deadline,
        validate=_check_deadline,
    )
)
#: resident-row budget for blocking operators (hash-join build sides,
#: group states, sort buffers); above it they spill to temp-file runs.
MEMORY_BUDGET = register(
    Knob(
        "memory_budget",
        env="REPRO_MEMORY_BUDGET",
        default=None,
        parse=_parse_memory_budget,
        validate=_check_memory_budget,
    )
)
#: consecutive-failure threshold after which endpoint circuit breakers
#: trip open; 0/None disables breakers.
BREAKER = register(
    Knob(
        "breaker",
        env="REPRO_BREAKER",
        default=None,
        parse=_parse_breaker,
        validate=_check_breaker,
    )
)
#: whether the engines statically analyze a plan (:mod:`repro.analysis`)
#: before executing it; error-severity diagnostics then abort the run
#: before row one.
CHECK = register(
    Knob("check", env="REPRO_CHECK", default=False, parse=parse_bool)
)


__all__ = [
    "BATCHED",
    "BATCH_SIZE",
    "BREAKER",
    "CHECK",
    "CHECKPOINT_DIR",
    "COMPILED",
    "COST_BASED",
    "DEADLINE",
    "MEMORY_BUDGET",
    "DEFAULT_BATCH_SIZE",
    "ERROR_POLICIES",
    "FALSE_VALUES",
    "FUSED",
    "Knob",
    "MAX_RETRIES",
    "MODE",
    "MODES",
    "ON_ERROR",
    "check_mode",
    "check_policy",
    "knob",
    "parse_bool",
    "register",
    "snapshot",
]
