"""repro.core.gemm: bit-exactness, ``out=``, call counting.

The contract under test is brutal on purpose: ``pgemm(a, b)`` must be
*bit-identical* to ``a @ b`` (``np.array_equal``, not ``allclose``) for
every operand the conv call sites produce, because the ODQ executors'
sensitivity masks are thresholded on these outputs and a 1-ulp drift
flips mask bits.
"""

import math

import numpy as np
import pytest

from repro.core import gemm

#: Rows of the conv-shaped test GEMMs (odd, so nothing divides evenly).
M = 67


@pytest.fixture(autouse=True)
def _fresh_stats():
    gemm.reset_stats()
    yield
    gemm.reset_stats()


class TestBitExactness:
    """pgemm == a @ b, exactly."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kn", [(1152, 256), (576, 64), (800, 16)])
    def test_matches_serial_product(self, dtype, kn):
        k, n = kn
        rng = np.random.default_rng(42)
        a = rng.standard_normal((M, k)).astype(dtype)
        b = rng.standard_normal((k, n)).astype(dtype)
        assert np.array_equal(gemm.pgemm(a, b), a @ b)

    def test_transposed_operands(self):
        """The QAT backward multiplies ``cols.T @ gmat`` and
        ``gmat @ wmat.T`` — transposed-layout views, not copies."""
        rng = np.random.default_rng(7)
        a = rng.standard_normal((M, 576))
        b = rng.standard_normal((576, 64))
        expected = a @ b
        assert np.array_equal(gemm.pgemm(np.asfortranarray(a), b), expected)
        assert np.array_equal(gemm.pgemm(a, np.asfortranarray(b)), expected)

    def test_non_contiguous_slices(self):
        k, n = 576, 64
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2 * M, 2 * k))[::2, ::2]   # strided views
        b = rng.standard_normal((2 * k, 3 * n))[::2, ::3]
        assert a.shape == (M, k) and b.shape == (k, n)
        assert np.array_equal(gemm.pgemm(a, b), a @ b)

    def test_out_parameter_contiguous(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((M, 576))
        b = rng.standard_normal((576, 64))
        out = np.empty((M, 64))
        ret = gemm.pgemm(a, b, out=out)
        assert ret is out
        assert np.array_equal(out, a @ b)

    def test_out_parameter_wrong_dtype_copies(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((M, 576)).astype(np.float32)
        b = rng.standard_normal((576, 64)).astype(np.float32)
        out = np.empty((M, 64), dtype=np.float64)  # not the result dtype
        ret = gemm.pgemm(a, b, out=out)
        assert ret is out
        assert np.array_equal(out.astype(np.float32), a @ b)

    def test_shape_mismatch_raises_like_matmul(self):
        with pytest.raises(ValueError):
            gemm.pgemm(np.ones((4, 5)), np.ones((6, 4)))


class TestStats:
    def test_stats_reset(self):
        a = np.random.default_rng(1).standard_normal((64, 64))
        gemm.pgemm(a, a)
        gemm.pgemm(a, a, out=np.empty((64, 64)))
        assert gemm.stats().calls == 2
        gemm.reset_stats()
        assert gemm.stats().calls == 0

    def test_benchmark_facing_contract(self):
        """The benchmark pins the retired pool off with
        ``configure(threads=1, min_flops=math.inf)``, logs
        ``gemm_threads()`` and reads ``pooled_calls``/``planned_calls``."""
        gemm.configure(threads=1, min_flops=math.inf)
        gemm.configure()
        with pytest.raises(ValueError):
            gemm.configure(threads=2)
        assert gemm.gemm_threads() == 1
        a = np.ones((8, 8))
        gemm.pgemm(a, a)
        assert gemm.stats().as_dict() == {
            "calls": 1, "pooled_calls": 0, "planned_calls": 0,
        }
