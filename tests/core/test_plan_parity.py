"""Planned vs unplanned conv records, and planned execution under tracing.

Both paths run the same Eq. 3 kernel; these tests pin what each keeps
around it.  The records agree on every counter serving reads.  The one
deliberate divergence: the planned step does not keep the mask itself
(``per_channel_sensitive``/``last_mask``), because the accelerator
simulator schedules a layer from ``per_channel_sensitive`` when present
and filling it would change the simulated cycles of planned inference.

Tracing must not change the route: a traced planned run still takes
the compiled fast path, returns the same bits, and its spans nest
``engine.layer -> odq.run -> odq.full_result``.

The planned max pool skips the Tensor op's argmax; it must still keep
the same element.
"""

import numpy as np
import pytest

from repro.core.pipeline import QuantizedInferenceEngine
from repro.core.plan import MaxPoolStep
from repro.core.schemes import odq_scheme
from repro.models import LeNet5
from repro.nn import functional as F
from repro.nn.layers import MaxPool2d
from repro.nn.tensor import Tensor
from repro.obs import trace


def _conv_census(records) -> dict:
    return {
        name: (
            rec.images, rec.outputs_total, rec.sensitive_total, dict(rec.macs),
            {k: v for k, v in rec.extra.items() if k.startswith("exec_")},
        )
        for name, rec in records.items()
    }


@pytest.fixture
def lenet_engine():
    rng = np.random.default_rng(3)
    model = LeNet5(num_classes=10, in_channels=1, image_size=16, rng=rng)
    model.eval()
    engine = QuantizedInferenceEngine(model, odq_scheme(0.3))
    engine.calibrate(rng.random((24, 1, 16, 16)))
    yield engine, rng.random((4, 1, 16, 16))
    engine.restore()


@pytest.fixture
def resnet_engine(trained_resnet, calib_batch):
    model, _ = trained_resnet
    engine = QuantizedInferenceEngine(model, odq_scheme(0.5))
    engine.calibrate(calib_batch[:16])
    yield engine, calib_batch[:4]
    engine.restore()


class TestRecordParity:
    @pytest.mark.parametrize("exec_path", ["auto", "dense", "sparse"])
    def test_planned_record_matches_unplanned(self, exec_path):
        rng = np.random.default_rng(11)
        model = LeNet5(num_classes=10, in_channels=1, image_size=16, rng=rng)
        model.eval()
        engine = QuantizedInferenceEngine(model, odq_scheme(0.3, exec_path=exec_path))
        try:
            engine.calibrate(rng.random((24, 1, 16, 16)))
            x = rng.random((4, 1, 16, 16))
            engine.infer(x)  # compile (its traced pass runs unplanned)

            engine.reset_records()
            planned_out = engine.infer(x)
            assert engine.plan_stats()["hits"] == 1
            planned = engine.records

            engine.reset_records()
            engine.use_plan = False
            unplanned_out = engine.infer(x)
            unplanned = engine.records
        finally:
            engine.restore()

        assert np.array_equal(planned_out, unplanned_out)
        assert _conv_census(planned) == _conv_census(unplanned)
        for name, rec in planned.items():
            assert rec.per_channel_sensitive is None, name
            assert rec.last_mask is None, name
            assert unplanned[name].per_channel_sensitive is not None, name
            assert unplanned[name].last_mask is not None, name


class TestTracingParity:
    @pytest.mark.parametrize("which, mode", [("lenet_engine", "flat"),
                                             ("resnet_engine", "graph")])
    def test_traced_plan_keeps_fast_path(self, which, mode, request):
        engine, x = request.getfixturevalue(which)
        engine.infer(x)  # compile outside the traced window
        untraced = engine.infer(x)
        before = engine.plan_stats()["plans"][0]

        with trace.collect():
            traced = engine.infer(x)
            spans = trace.spans()

        plan = engine.plan_stats()["plans"][0]
        assert plan["mode"] == mode
        assert plan["fast_conv_steps"] == plan["conv_steps"] > 0
        assert plan["dispatch_reevaluated"] == before["dispatch_reevaluated"] == 0
        assert plan["dispatch_frozen"] - before["dispatch_frozen"] == plan["conv_steps"]
        assert np.array_equal(traced, untraced)

        by_id = {s.span_id: s for s in spans}
        chains = {
            (by_id[by_id[s.parent_id].parent_id].name, by_id[s.parent_id].name)
            for s in spans
            if s.name == "odq.full_result"
            and s.parent_id in by_id and by_id[s.parent_id].parent_id in by_id
        }
        assert chains == {("engine.layer", "odq.run")}
        layers = {s.attrs["layer"] for s in spans if s.name == "engine.layer"}
        assert len(layers) == plan["conv_steps"]


@pytest.mark.parametrize("kernel, stride", [(2, 2), (3, 1), (3, 2), (2, 3)])
def test_maxpool_step_picks_the_element_the_tensor_op_picks(kernel, stride):
    """Ties, signed zeros, infinities and NaN: the planned max pool keeps
    the first maximum in window order, as ``F.max_pool2d``'s argmax does."""
    rng = np.random.default_rng(kernel * 10 + stride)
    x = rng.integers(-2, 3, size=(2, 3, 9, 8)).astype(np.float64)
    x[x == 0] = rng.choice([0.0, -0.0], size=int((x == 0).sum()))
    u = rng.random(x.shape)
    x[u < 0.05] = np.nan
    x[(u >= 0.05) & (u < 0.08)] = np.inf
    x[(u >= 0.08) & (u < 0.10)] = -np.inf

    got = MaxPoolStep(MaxPool2d(kernel, stride), x.shape).run(x)
    want = F.max_pool2d(Tensor(x), kernel, stride).data
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
