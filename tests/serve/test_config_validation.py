"""ServeConfig validation: actionable errors."""

from __future__ import annotations

import pytest

from repro.serve.config import ServeConfig


class TestValueErrors:
    """Every rejection names the field, the constraint, and the value."""

    @pytest.mark.parametrize(
        "kwargs,needle",
        [
            ({"max_batch_size": 0}, "max_batch_size"),
            ({"max_wait_ms": -1.0}, "max_wait_ms"),
            ({"workers": 0}, "workers"),
            ({"replicas": 0}, "replicas"),
            ({"drift_band": 0.0}, "drift_band"),
            ({"train_epochs": -1}, "train_epochs"),
            ({"calib_images": 0}, "calib_images"),
            ({"exec_path": "vectorized"}, "exec_path"),
        ],
    )
    def test_rejects_and_names_field_and_value(self, kwargs, needle):
        with pytest.raises(ValueError) as exc:
            ServeConfig(**kwargs)
        message = str(exc.value)
        assert needle in message
        # The offending value itself appears in the message.
        bad = repr(list(kwargs.values())[0])
        assert bad.strip("'") in message

    def test_replicas_error_explains_the_modes(self):
        with pytest.raises(ValueError, match="thread pool"):
            ServeConfig(replicas=-2)

    def test_valid_config_accepts_replicas(self):
        cfg = ServeConfig(replicas=4, port=0)
        assert cfg.replicas == 4
