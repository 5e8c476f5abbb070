"""Every Eq. 3 route against an independent loop-level reference.

The planned and unplanned paths share one kernel
(:func:`repro.core.odq.conv_eq3`), so comparing them with each other
cannot catch a bug in that kernel or in the im2col/GEMM stack under it.
The reference here is written straight from Eq. 3: quantize to INT4,
split each operand into 2-bit high/low planes, and per output feature
sum the four cross terms in int64 over its receptive field.  It uses no
im2col, ``ColumnCache``, ``pgemm`` or ``int_conv2d``.
"""

import itertools

import numpy as np
import pytest

from repro.core import plan as plan_mod
from repro.core.odq import ODQConvExecutor, odq_mixed_conv
from repro.nn.layers import Conv2d
from repro.quant.uniform import affine_qparams

LOW = 2  # N_LBS: the paper's INT4 = 2 high + 2 low bits
CROSSOVER = 0.9


def _planes(q, signed):
    """``q = (high << LOW) + low``; sign-magnitude for signed operands."""
    sign = np.sign(q) if signed else 1
    mag = np.abs(q)
    return sign * (mag >> LOW), sign * (mag & ((1 << LOW) - 1))


def _quantize(v, qp):
    return np.clip(np.round(v / qp.scale) + qp.zero_point, qp.qmin, qp.qmax).astype(np.int64)


def eq3_reference(x, w, b, stride, padding, qp_a, qp_w, compensate):
    """(predictor partial, exact INT4 result), both NCHW float64."""
    q, qw = _quantize(x, qp_a), _quantize(w, qp_w)
    n, c_in, h, wd = q.shape
    c_out, _, k, _ = qw.shape
    zp = qp_a.zero_point
    # Zero padding of the real input is padding with the zero point.
    qpad = np.full((n, c_in, h + 2 * padding, wd + 2 * padding), zp, dtype=np.int64)
    qpad[:, :, padding:padding + h, padding:padding + wd] = q
    qh, ql = _planes(qpad, signed=False)
    wh, wl = _planes(qw, signed=True)
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wd + 2 * padding - k) // stride + 1
    hh = np.zeros((n, c_out, oh, ow), dtype=np.int64)
    acc = np.zeros_like(hh)
    for img, co, i, j in itertools.product(range(n), range(c_out), range(oh), range(ow)):
        rows = slice(i * stride, i * stride + k)
        cols = slice(j * stride, j * stride + k)
        ih, il = qh[img, :, rows, cols], ql[img, :, rows, cols]
        t_hh = int((ih * wh[co]).sum())
        t_hl = int((ih * wl[co]).sum())
        t_lh = int((il * wh[co]).sum())
        t_ll = int((il * wl[co]).sum())
        hh[img, co, i, j] = t_hh
        acc[img, co, i, j] = (t_hh << 2 * LOW) + (t_hl << LOW) + (t_lh << LOW) + t_ll
    # E[q_l] * sum(qw): the predictor's expected low-plane contribution.
    e_low = float(_planes(q, signed=False)[1].mean()) if compensate else 0.0
    w_sum = qw.sum(axis=(1, 2, 3)).reshape(1, -1, 1, 1)
    scale = qp_a.scale * qp_w.scale
    bias = 0.0 if b is None else b.reshape(1, -1, 1, 1)
    partial = scale * (hh * (1 << 2 * LOW) + (e_low - zp) * w_sum) + bias
    exact = scale * (acc - zp * w_sum) + bias
    return partial, exact


def _threshold(partial, quantile):
    """A threshold near ``quantile`` of |partial|, >= 1e-6 from every value."""
    mags = np.unique(np.abs(partial))
    mids = (mags[:-1] + mags[1:])[np.diff(mags) >= 2e-6] / 2
    t = float(mids[np.argmin(np.abs(mids - np.quantile(mags, quantile)))])
    assert np.min(np.abs(mags - t)) >= 1e-6
    return t


@pytest.mark.parametrize("compensate", [True, False])
@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("path", ["dense", "sparse", "auto"])
def test_routes_match_reference(path, stride, padding, bias, compensate, monkeypatch):
    rng = np.random.default_rng(100 * stride + 10 * padding + 2 * bias + compensate)
    conv = Conv2d(3, 4, 3, stride=stride, padding=padding, bias=bias, rng=rng)
    w = conv.weight.data
    b = None if conv.bias is None else rng.normal(0.0, 0.5, size=4)
    if b is not None:
        conv.bias.data = b
    x = rng.normal(0.3, 1.0, size=(2, 3, 7, 7))

    captured = []
    real_kernel = plan_mod.conv_eq3
    monkeypatch.setattr(
        plan_mod, "conv_eq3",
        lambda *a, **kw: captured.append(real_kernel(*a, **kw)) or captured[-1],
    )
    qp_a = affine_qparams(float(x.min()), float(x.max()), 4)
    for quantile in (0.5, 0.97):
        ex = ODQConvExecutor(conv, "L", threshold=0.0, exec_path=path,
                             compensate_low_bits=compensate)
        ex.calibrate(x)
        ex.freeze()
        partial, exact = eq3_reference(x, w, b, stride, padding, qp_a, ex.qp_w, compensate)
        ex.threshold = _threshold(partial, quantile)
        mask = np.abs(partial) > ex.threshold
        expected = np.where(mask, exact, partial)
        rows_hit = int(mask.any(axis=1).sum())
        expected_path = path if path != "auto" else (
            "sparse" if rows_hit <= CROSSOVER * mask[:, 0].size else "dense")

        mixed = odq_mixed_conv(x, w, b, stride, padding, ex.threshold, qp_a, ex.qp_w,
                               compensate_low_bits=compensate, exec_path=path)
        unplanned = ex.run(x)
        step = plan_mod.PlannedConvStep(ex, x.shape, {"frozen": 0, "reevaluated": 0})
        planned = step.run(x)
        assert step.fast and step.counters["frozen"] == 1

        np.testing.assert_array_equal(mixed["mask"].mask, mask)
        np.testing.assert_array_equal(ex.record.last_mask.mask, mask)
        np.testing.assert_array_equal(captured[-1].mask.mask, mask)
        assert mixed["exec_path"] == captured[-1].path == expected_path
        assert ex.record.extra["exec_rows_computed"] == 2 * (
            rows_hit if expected_path == "sparse" else mask[:, 0].size)
        for out in (mixed["out"], unplanned, planned):
            np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(mixed["partial"], partial, rtol=1e-12, atol=1e-12)
        if mixed["full"] is not None:
            np.testing.assert_allclose(mixed["full"], exact, rtol=1e-12, atol=1e-12)
