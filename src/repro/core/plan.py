"""Compiled inference plans: one-pass layer planning with shape-specialized dispatch.

An :class:`InferencePlan` is compiled once per (engine, input shape/dtype)
by tracing a single inference through the model and pre-binding, per
layer, everything the hot path otherwise re-decides on every call:

* packed weight operands (``PackedConvWeights`` frozen up front),
* the 2-D bias and the exec-path mode and crossover, so a conv step
  calls the Eq. 3 kernel (:func:`repro.core.odq.conv_eq3`) directly,
* the module walk itself: a flat plan replays numpy steps with no
  Tensor tape.

GEMMs go through :func:`repro.core.gemm.pgemm` like every other caller;
its route decision is a few compares, so nothing about it is frozen.

Two plan modes:

``flat``
    The traced leaf calls form a linear chain (verified by array
    *identity*: each step consumed exactly the previous step's output).
    ``run()`` is then a plain loop over numpy step closures — no Tensor
    allocation, no autograd tape wiring, no backward-index precompute
    (max-pool's scatter indices are the single largest non-GEMM cost of
    the unplanned path).
``graph``
    The model's forward has structure a flat tape cannot honor
    (residual adds, concats, repeated modules).  The model walks its own
    Tensor graph as before, but every instrumented conv routes through
    its pre-bound plan step, keeping the frozen operands.

Bit-exactness contract
----------------------
Every flat step mirrors the exact numpy expression tree of the Tensor op
it replaces (e.g. ReLU is ``x * (x > 0)``, not ``np.maximum``; global
average pooling is ``sum * (1.0 / count)``, not ``np.mean``; BatchNorm's
subtraction is ``x + (-mean)``), so planned output is bit-identical
(``==``) to the unplanned path — pinned by ``tests/core/test_plan.py``.

Staleness
---------
A plan never goes stale silently.  ``valid()`` re-checks, by object
identity, every piece of state a step froze (packed operands, weight and
buffer arrays, exec-path config, instance-level ``run`` monkeypatches);
the engine recompiles on mismatch.  Deliberately *not* frozen: the mask
threshold (``effective_threshold`` is read per call so threshold sweeps
hit the planned path unchanged) and the ``ColumnCache`` (built through
``executor._build_cache`` so an installed ``cache_provider`` — e.g. the
sweep column cache — keeps working).

Records: the planned conv fast path maintains ``sensitive_total``, MAC
counters and the ``exec_*`` extras (everything serving reads).  It skips
``per_channel_sensitive`` / ``last_mask`` upkeep — those feed the
accelerator mask dumps, which drive the unplanned ``forward()`` path.
This is the one place the two paths' records differ, and it is
deliberate: the accelerator simulator schedules a layer's executor pass
from ``per_channel_sensitive`` when it is present, so filling it here
would change the simulated cycles of planned inference.

Tracing does not change the route: a fast conv step runs the same
kernel under its own ``engine.layer`` span, and the kernel emits the
``odq.*`` phase spans beneath it.  Only steps that cannot take the fast
path (non-ODQ schemes, patched executors) call ``executor.run``; the
plan counts those as re-evaluated.
"""

from __future__ import annotations

import numpy as np

from repro.core import gemm
from repro.core.odq import ODQConvExecutor, conv_eq3
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.tensor import Tensor
from repro.obs import trace


class PlanStep:
    """One pre-bound operation of a flat plan.  Stateless steps are
    always valid; stateful ones override :meth:`valid`."""

    kind = "?"

    def run(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def valid(self) -> bool:
        return True

    def describe(self) -> dict:
        return {"kind": self.kind}


class PassStep(PlanStep):
    """Identity: eval-mode dropout, Identity modules, and pools whose
    window exceeds the (shape-specialized) input."""

    kind = "pass"

    def __init__(self, reason: str, module=None) -> None:
        self.reason = reason
        self.module = module

    def run(self, x: np.ndarray) -> np.ndarray:
        return x

    def valid(self) -> bool:
        m = self.module
        if isinstance(m, Dropout):
            # Train-mode dropout with p > 0 is no longer an identity.
            return not m.training or m.p <= 0.0
        return True

    def describe(self) -> dict:
        return {"kind": self.kind, "reason": self.reason}


class ReLUStep(PlanStep):
    kind = "relu"

    def run(self, x: np.ndarray) -> np.ndarray:
        return x * (x > 0)


class FlattenStep(PlanStep):
    kind = "flatten"

    def run(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)


class MaxPoolStep(PlanStep):
    """``F.max_pool2d`` forward only — skips the backward scatter-index
    precompute (divmod + 4 index grids + zeros) the Tensor op pays.

    The Tensor op copies the patches and takes their ``argmax``: the
    first maximum in row-major window order, NaN counting as largest.
    Walking the window offsets in that order and replacing only on a
    strict win (or a first NaN) keeps the same element — sign of zero
    included — without the copy or the gather.
    """

    kind = "maxpool"

    def __init__(self, module: MaxPool2d, in_shape: tuple) -> None:
        self.module = module
        self.kernel = module.kernel_size
        self.stride = module.stride
        _, _, h, w = in_shape
        self.oh = (h - self.kernel) // self.stride + 1
        self.ow = (w - self.kernel) // self.stride + 1

    def run(self, x: np.ndarray) -> np.ndarray:
        k, s = self.kernel, self.stride
        span_h, span_w = s * (self.oh - 1) + 1, s * (self.ow - 1) + 1
        best = x[:, :, :span_h:s, :span_w:s].copy()
        for i in range(k):
            for j in range(k):
                if i or j:
                    w = x[:, :, i:i + span_h:s, j:j + span_w:s]
                    wins = (w > best) | (np.isnan(w) & ~np.isnan(best))
                    np.copyto(best, w, where=wins)
        return best

    def valid(self) -> bool:
        return (
            self.module.kernel_size == self.kernel
            and self.module.stride == self.stride
        )

    def describe(self) -> dict:
        return {"kind": self.kind, "kernel": self.kernel, "stride": self.stride}


class AvgPoolStep(PlanStep):
    kind = "avgpool"

    def __init__(self, module: AvgPool2d, in_shape: tuple) -> None:
        self.module = module
        self.kernel = module.kernel_size
        self.stride = module.stride
        _, _, h, w = in_shape
        self.oh = (h - self.kernel) // self.stride + 1
        self.ow = (w - self.kernel) // self.stride + 1

    def run(self, x: np.ndarray) -> np.ndarray:
        n, c = x.shape[0], x.shape[1]
        k, s = self.kernel, self.stride
        sn, sc, sh, sw = x.strides
        patches = np.lib.stride_tricks.as_strided(
            x,
            shape=(n, c, self.oh, self.ow, k, k),
            strides=(sn, sc, sh * s, sw * s, sh, sw),
            writeable=False,
        )
        return patches.mean(axis=(-1, -2))

    def valid(self) -> bool:
        return (
            self.module.kernel_size == self.kernel
            and self.module.stride == self.stride
        )

    def describe(self) -> dict:
        return {"kind": self.kind, "kernel": self.kernel, "stride": self.stride}


class GlobalAvgPoolStep(PlanStep):
    kind = "gap"

    def __init__(self, in_shape: tuple) -> None:
        _, _, h, w = in_shape
        # Tensor.mean computes sum * (1.0 / count); mirror that exactly
        # (multiply by the reciprocal, not np.mean).
        self.inv = 1.0 / (h * w)

    def run(self, x: np.ndarray) -> np.ndarray:
        return x.sum(axis=(2, 3)) * self.inv


class LinearStep(PlanStep):
    """``F.linear`` forward only: one :func:`gemm.pgemm` plus the bias."""

    kind = "linear"

    def __init__(self, module: Linear, in_shape: tuple) -> None:
        self.module = module
        self._w_src = module.weight.data
        self._b_src = None if module.bias is None else module.bias.data
        self.shape = [in_shape[0], in_shape[1], module.out_features]

    def run(self, x: np.ndarray) -> np.ndarray:
        out = gemm.pgemm(x, self.module.weight.data.T)
        if self._b_src is not None:
            out = out + self._b_src
        return out

    def valid(self) -> bool:
        m = self.module
        if m.weight.data is not self._w_src:
            return False
        if self._b_src is None:
            return m.bias is None
        return m.bias is not None and m.bias.data is self._b_src

    def describe(self) -> dict:
        return {"kind": self.kind, "shape": self.shape}


class BatchNormStep(PlanStep):
    """Eval-mode BatchNorm2d with the per-channel constants pre-reshaped.

    Mirrors the Tensor expression tree exactly: subtraction is
    ``x + (-mean)`` and the scale is ``(var + eps) ** -0.5``.
    """

    kind = "batchnorm"

    def __init__(self, module: BatchNorm2d) -> None:
        self.module = module
        self._rm_src = module.running_mean
        self._rv_src = module.running_var
        self._g_src = module.gamma.data
        self._b_src = module.beta.data
        self._eps = module.eps
        self.neg_mean4 = -(module.running_mean.reshape(1, -1, 1, 1))
        self.inv_std4 = (
            module.running_var.reshape(1, -1, 1, 1) + module.eps
        ) ** -0.5
        self.gamma4 = module.gamma.data.reshape(1, -1, 1, 1)
        self.beta4 = module.beta.data.reshape(1, -1, 1, 1)

    def run(self, x: np.ndarray) -> np.ndarray:
        xhat = (x + self.neg_mean4) * self.inv_std4
        return xhat * self.gamma4 + self.beta4

    def valid(self) -> bool:
        m = self.module
        return (
            not m.training
            and m.running_mean is self._rm_src
            and m.running_var is self._rv_src
            and m.gamma.data is self._g_src
            and m.beta.data is self._b_src
            and m.eps == self._eps
        )


class PlannedConvStep(PlanStep):
    """One instrumented conv with its per-call re-decisions pre-bound.

    ``fast=True`` (an unpatched, frozen :class:`ODQConvExecutor`) calls
    :func:`~repro.core.odq.conv_eq3` with the executor's packed operands,
    2-D bias, exec-path mode and crossover bound at compile time.
    Otherwise (non-ODQ scheme, subclass, or an instance-level ``run``
    monkeypatch) the step delegates to ``executor.run`` — still
    profiting from the flat tape around it.
    """

    kind = "conv"

    def __init__(self, ex, in_shape: tuple, counters: dict) -> None:
        self.ex = ex
        self.counters = counters
        self.fast = (
            type(ex) is ODQConvExecutor
            and ex.frozen
            and "run" not in ex.__dict__
        )
        self.in_shape = tuple(in_shape)
        if not self.fast:
            return
        n, _, h, w = in_shape
        oh, ow = ex.info.output_hw(h, w)
        self.rows = n * oh * ow
        self.packed = ex._packed
        self.bias2d = ex._bias2d()
        self._bias_src = None if ex.conv.bias is None else ex.conv.bias.data
        self.path_mode = ex.exec_path
        self.crossover = ex.sparse_crossover

    def valid(self) -> bool:
        ex = self.ex
        if not self.fast:
            # A delegating step freezes no executor state; delegation
            # stays correct even if the executor later qualifies for the
            # fast path (it would just be slower until a recompile).
            return True
        if not (ex.frozen and ex._packed is self.packed):
            return False
        if "run" in ex.__dict__:
            return False
        if ex.exec_path != self.path_mode or ex.sparse_crossover != self.crossover:
            return False
        if self._bias_src is None:
            return ex.conv.bias is None
        return ex.conv.bias is not None and ex.conv.bias.data is self._bias_src

    def run(self, x: np.ndarray) -> np.ndarray:
        ex = self.ex
        with trace.span("engine.layer", layer=ex.info.name, mode="run"):
            if not self.fast:
                self.counters["reevaluated"] += 1
                return ex.run(x)
            self.counters["frozen"] += 1
            ex._note_shapes(x)
            # Threshold is read per call (not frozen) so sweeps that
            # mutate executor thresholds hit the planned path unchanged.
            res = conv_eq3(
                lambda: ex._build_cache(x), self.packed, ex.qp_w.scale,
                self.bias2d, ex.effective_threshold, self.path_mode,
                self.crossover, ex.info.name,
                keep_partial=ex.collect_partials,
            )
            # The count only: see "Records" in the module docstring.
            ex.record.sensitive_total += res.sensitive
            ex._note_run(res)
            return res.out

    def describe(self) -> dict:
        d = {"kind": self.kind, "layer": self.ex.info.name, "fast": self.fast}
        if self.fast:
            d.update(
                path=self.path_mode,
                rows=self.rows,
                crossover=self.crossover if self.path_mode == "auto" else None,
            )
        return d


_LEAF_STEP_TYPES = (
    Identity, ReLU, Flatten, Linear, BatchNorm2d,
    MaxPool2d, AvgPool2d, GlobalAvgPool2d, Dropout,
)


class InferencePlan:
    """A compiled, shape-specialized execution recipe for one engine."""

    def __init__(self, engine, input_shape, input_dtype, mode, steps,
                 conv_steps, counters) -> None:
        self.engine = engine
        self.input_shape = tuple(input_shape)
        self.input_dtype = str(input_dtype)
        self.mode = mode  # "flat" | "graph"
        self.steps = steps
        self.conv_steps = conv_steps  # name -> PlannedConvStep
        self.counters = counters  # {"frozen": n, "reevaluated": n}
        self.executions = 0

    def valid(self) -> bool:
        if self.mode == "flat":
            return all(step.valid() for step in self.steps)
        return all(step.valid() for step in self.conv_steps.values())

    def run(self, x: np.ndarray) -> np.ndarray:
        self.executions += 1
        if self.mode == "flat":
            out = x
            for step in self.steps:
                out = step.run(out)
            return out
        engine = self.engine
        engine._active_plan = self
        try:
            return engine.model(Tensor(x)).data
        finally:
            engine._active_plan = None

    # -- introspection -------------------------------------------------------

    def summary(self) -> dict:
        """Compact digest for ``session.describe()`` and the profile table."""
        return {
            "input_shape": list(self.input_shape),
            "input_dtype": self.input_dtype,
            "mode": self.mode,
            "steps": len(self.steps) if self.mode == "flat" else len(self.conv_steps),
            "conv_steps": len(self.conv_steps),
            "fast_conv_steps": sum(
                1 for s in self.conv_steps.values() if s.fast
            ),
            "executions": self.executions,
            "dispatch_frozen": self.counters["frozen"],
            "dispatch_reevaluated": self.counters["reevaluated"],
        }

    def describe(self) -> dict:
        """Full step-by-step listing (the ``repro plan`` CLI output)."""
        if self.mode == "flat":
            steps = [step.describe() for step in self.steps]
        else:
            steps = [step.describe() for step in self.conv_steps.values()]
        return {**self.summary(), "step_list": steps}


class _TraceEntry:
    __slots__ = ("module", "x", "out")

    def __init__(self, module, x, out) -> None:
        self.module = module
        self.x = x
        self.out = out


def _trace_leaves(engine, x: np.ndarray):
    """Run one inference with leaf forwards instrumented.

    Returns ``(tape, output Tensor)``.  The traced call *is* a full
    unplanned inference (records, spans, autograd all unchanged), so its
    output doubles as the result of the batch that triggered the compile.
    """
    from repro.core.pipeline import InstrumentedConv

    tape: list[_TraceEntry] = []
    wrapped: list = []

    def instrument(module) -> None:
        orig = module.forward

        def traced(t):
            out = orig(t)
            tape.append(_TraceEntry(module, t, out))
            return out

        module.__dict__["forward"] = traced
        wrapped.append(module)

    for _, m in engine.model.named_modules():
        if "forward" in m.__dict__:
            continue  # already instance-patched: leave it alone
        if isinstance(m, InstrumentedConv) or type(m) in _LEAF_STEP_TYPES:
            instrument(m)

    xt = Tensor(x)
    try:
        out_t = engine.model(xt)
    finally:
        for m in wrapped:
            m.__dict__.pop("forward", None)
    return tape, xt, out_t


def _is_linear_chain(tape, xt, out_t) -> bool:
    """True when the traced calls form one pass-the-baton chain.

    Verified by array *identity*: step i consumed exactly step i-1's
    output and nothing else reached the model output.  Residual adds,
    concats, and untraced custom modules all break identity and fall
    back to graph mode.
    """
    if not tape:
        return False
    if tape[0].x.data is not xt.data:
        return False
    for prev, cur in zip(tape, tape[1:]):
        if cur.x.data is not prev.out.data:
            return False
    return out_t.data is tape[-1].out.data


def _flat_step_for(entry, counters):
    """Map one traced leaf call to a flat step, or None if unsupported."""
    from repro.core.pipeline import InstrumentedConv

    m = entry.module
    in_shape = entry.x.data.shape
    if isinstance(m, InstrumentedConv):
        return PlannedConvStep(m.executor, in_shape, counters)
    if isinstance(m, Identity):
        return PassStep("identity")
    if isinstance(m, ReLU):
        return ReLUStep()
    if isinstance(m, Flatten):
        return FlattenStep()
    if isinstance(m, Dropout):
        if m.training and m.p > 0.0:
            return None  # stochastic: not plannable
        return PassStep("dropout-eval", module=m)
    if isinstance(m, (MaxPool2d, AvgPool2d)):
        if min(in_shape[2], in_shape[3]) < m.kernel_size:
            return PassStep("pool-smaller-than-window")
        cls = MaxPoolStep if isinstance(m, MaxPool2d) else AvgPoolStep
        return cls(m, in_shape)
    if isinstance(m, GlobalAvgPool2d):
        return GlobalAvgPoolStep(in_shape)
    if isinstance(m, Linear):
        return LinearStep(m, in_shape)
    if isinstance(m, BatchNorm2d):
        if m.training:
            return None  # running-stat updates: not plannable
        return BatchNormStep(m)
    return None


def compile_plan(engine, x: np.ndarray):
    """Compile a plan for ``engine`` specialized to ``x``'s shape/dtype.

    Returns ``(plan, output)`` where ``output`` is the (bit-exact,
    unplanned) inference result of ``x`` itself — the compile pass costs
    one traced inference, never an extra forward.
    """
    tape, xt, out_t = _trace_leaves(engine, x)
    counters = {"frozen": 0, "reevaluated": 0}

    steps: list[PlanStep] | None = None
    if _is_linear_chain(tape, xt, out_t):
        candidate = [_flat_step_for(entry, counters) for entry in tape]
        if all(step is not None for step in candidate):
            steps = candidate

    from repro.core.pipeline import InstrumentedConv

    if steps is not None:
        conv_in_order = [s for s in steps if isinstance(s, PlannedConvStep)]
        mode = "flat"
    else:
        # Graph mode: the model keeps walking its own forward; convs
        # route through pre-bound steps in traced execution order.
        conv_in_order = [
            PlannedConvStep(e.module.executor, e.x.data.shape, counters)
            for e in tape
            if isinstance(e.module, InstrumentedConv)
        ]
        steps = []
        mode = "graph"

    conv_steps = {step.ex.info.name: step for step in conv_in_order}
    plan = InferencePlan(
        engine, x.shape, x.dtype, mode, steps, conv_steps, counters,
    )
    return plan, out_t.data


__all__ = [
    "InferencePlan",
    "PlanStep",
    "PlannedConvStep",
    "compile_plan",
]
