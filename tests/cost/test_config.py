"""The central knob registry: kwarg > setter > env > default."""

import pytest

from repro import config
from repro.config import Knob, check_mode, check_policy, parse_bool
from repro.errors import ValidationError


@pytest.fixture(autouse=True)
def _clean_overrides():
    """Every test leaves the process-wide knobs untouched."""
    yield
    for name in ("batch_size", "on_error", "mode", "cost_based"):
        config.knob(name).set(None)


class TestPrecedence:
    def test_kwarg_beats_setter_beats_env_beats_default(self, monkeypatch):
        knob = config.BATCH_SIZE
        assert knob.resolve(None) == config.DEFAULT_BATCH_SIZE
        monkeypatch.setenv("REPRO_BATCH_SIZE", "64")
        assert knob.resolve(None) == 64
        knob.set(128)
        assert knob.resolve(None) == 128
        assert knob.resolve(256) == 256  # the kwarg always wins

    def test_setter_none_restores_env_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_SIZE", "300")
        config.BATCH_SIZE.set(600)
        assert config.BATCH_SIZE.default() == 600
        config.BATCH_SIZE.set(None)
        assert config.BATCH_SIZE.default() == 300

    def test_env_fallback_chain(self, monkeypatch):
        # batch_size reads REPRO_BATCH_SIZE first, then REPRO_BATCH
        monkeypatch.setenv("REPRO_BATCH", "512")
        assert config.BATCH_SIZE.default() == 512
        monkeypatch.setenv("REPRO_BATCH_SIZE", "2048")
        assert config.BATCH_SIZE.default() == 2048

    def test_unparseable_env_value_is_skipped(self, monkeypatch):
        # REPRO_BATCH=1 means "batched on", not "batch size 1"
        monkeypatch.setenv("REPRO_BATCH", "1")
        assert config.BATCHED.default() is True
        assert config.BATCH_SIZE.default() == config.DEFAULT_BATCH_SIZE

    def test_triads_delegate_to_the_registry(self):
        from repro.exec import resolve_batch_size, set_default_batch_size

        set_default_batch_size(5)
        try:
            assert resolve_batch_size(None) == 5
            assert config.BATCH_SIZE.default() == 5
            assert resolve_batch_size(2) == 2
        finally:
            set_default_batch_size(None)

    def test_resilience_triads_delegate(self):
        from repro.resilience import default_on_error, set_default_on_error

        set_default_on_error("reject")
        try:
            assert default_on_error() == "reject"
            assert config.ON_ERROR.default() == "reject"
        finally:
            set_default_on_error(None)


class TestValidation:
    def test_bad_policy_rejected_everywhere(self):
        with pytest.raises(ValidationError):
            check_policy("explode")
        with pytest.raises(ValidationError):
            config.ON_ERROR.set("explode")
        with pytest.raises(ValidationError):
            config.ON_ERROR.resolve("explode")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValidationError):
            check_mode("warp")
        with pytest.raises(ValidationError):
            config.MODE.resolve("warp")
        for mode in config.MODES:
            assert check_mode(mode) == mode

    def test_malformed_max_retries_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "many")
        with pytest.raises(ValidationError):
            config.MAX_RETRIES.default()
        monkeypatch.setenv("REPRO_MAX_RETRIES", "-1")
        with pytest.raises(ValidationError):
            config.MAX_RETRIES.default()

    def test_parse_bool(self):
        for raw in ("0", "false", "No", "OFF"):
            assert parse_bool(raw) is False
        for raw in ("1", "true", "yes", "anything"):
            assert parse_bool(raw) is True


class TestDerivedDefaults:
    def test_snapshot_covers_every_knob(self):
        snap = config.snapshot()
        assert sorted(snap) == [
            "batch_size", "batched", "breaker", "check", "checkpoint_dir",
            "compiled", "cost_based", "deadline", "fused", "max_retries",
            "memory_budget", "mode", "on_error",
        ]
        assert snap["compiled"] is True
        assert snap["cost_based"] is True
        assert snap["mode"] is None


class TestKnobMechanics:
    def test_validate_applies_to_setter_and_kwarg_not_default(self):
        def check(value):
            if value < 0:
                raise ValueError("negative")
            return value * 2

        knob = Knob("test_validate", default=-1, validate=check)
        assert knob.default() == -1  # default bypasses validation
        assert knob.resolve(3) == 6
        with pytest.raises(ValueError):
            knob.set(-5)
