"""The row-local op contract (DESIGN.md §3).

An op that declares ``row_local`` promises that output row ``i`` reads
only input row ``i``, with the same bytes whatever other rows share the
call: a row of a 2-D activation, or a pixel ``(b, h, w)`` of an NCHW
one, which goes through the op as a ``(rows, C, 1, 1)`` batch of
images.  A propagation replay runs such an op on the rows a fault
changed alone, so every op that declares it is checked here: on any
subset of rows it byte-equals those rows of the op on all rows,
non-finite rows included.
"""

import numpy as np
import pytest
import tail_model

from repro.abft import get_scheme
from repro.gemm import GemmProblem, TiledGemm, select_tile
from repro.nn import Conv2dSpec, ProtectedInference, build_transformer_runnable
from repro.nn.inference import Conv2d, Flatten, GlobalAvgPool, Linear, MaxPool2d, ReLU
from repro.nn.transformer import _GELU, _HeadContext, _HeadScores, _SoftmaxTail, _TailLinear


def model_inputs(model, x):
    """``(op, its clean input)`` for every op of ``model`` on ``x``."""
    trace = ProtectedInference(model, get_scheme("global")).trace(x)
    return list(zip(model.ops, (x, *trace.activations[:-1])))


def decoder_inputs():
    model = build_transformer_runnable("transformer_decoder", batch=2)
    x = (np.random.default_rng(1).standard_normal((16, 128)) * 0.5).astype(np.float16)
    return model_inputs(model, x)


def tail_inputs():
    _, model = tail_model.build()
    shape = tail_model.INPUT_SHAPE
    x = (np.random.default_rng(1).standard_normal(shape) * 0.5).astype(np.float16)
    return model_inputs(model, x)


def with_non_finite_rows(op, x):
    """``x`` with ±inf and NaN in rows 1-4 where ``op`` reads them (the
    softmax's score columns, a whole row of -inf among them)."""
    x = x.copy()
    cols = range(-op.n, 0) if isinstance(op, _SoftmaxTail) else range(x.shape[1])
    x[1, cols[0]], x[2, cols[1]], x[3, cols[2]] = np.inf, -np.inf, np.nan
    x[4, cols[0] :] = -np.inf
    return x


def rows_of(x):
    """``x`` as ``(rows, row width)``: pixels of NCHW in ``(b, h, w)`` order."""
    return x if x.ndim == 2 else x.transpose(0, 2, 3, 1).reshape(-1, x.shape[1])


def run(op, x, m):
    """``op`` on ``x``; a linear op multiplies on an executor of ``m``
    logical rows, as a replay recomputes rows of a traced GEMM."""
    if not op.is_linear:
        return op.forward(x)
    a, b, ctx = op.lower(x)
    problem = GemmProblem(m, b.shape[1], b.shape[0])
    ex = TiledGemm(problem, select_tile(problem))
    acc = ex.multiply(ex.pad_rows(a)[0], ex.pad_b(b)[0])
    return op.reshape_output(ex.epilogue(ex.crop(acc), 1.0), ctx)


def assert_rows_alone_match(op, x):
    m = len(rows_of(x))
    full = rows_of(run(op, x, m))
    subsets = [[0], [m - 1], list(range(1, m, 2)) or [0], list(range(0, m, 3)), list(range(m))]
    for subset in subsets:
        part = rows_of(x)[subset]
        if x.ndim == 4:
            part = part.reshape(len(subset), -1, 1, 1)
        out = run(op, part, m).reshape(len(subset), -1)
        assert out.tobytes() == full[subset].tobytes(), (type(op).__name__, subset)


class TestRowLocalOps:
    @pytest.mark.parametrize("inputs", [decoder_inputs, tail_inputs])
    def test_rows_alone_match_all_rows(self, inputs):
        for op, x in inputs():
            if op.row_local:
                if isinstance(op, (_SoftmaxTail, _GELU)):
                    x = with_non_finite_rows(op, x)
                assert_rows_alone_match(op, x)

    def test_the_models_hold_every_row_local_op(self):
        declared = {type(op) for op, _ in decoder_inputs() + tail_inputs() if op.row_local}
        assert declared == {
            ReLU,
            _GELU,
            _SoftmaxTail,
            Linear,
            _TailLinear,
            _HeadScores,
            _HeadContext,
            Conv2d,
        }

    def test_only_a_1x1_stride_1_unpadded_conv_is_row_local(self, rng):
        def conv(kernel, stride=1, padding=0):
            spec = Conv2dSpec(4, 6, kernel=kernel, stride=stride, padding=padding)
            weights = rng.standard_normal((6, 4, kernel, kernel)).astype(np.float16)
            return Conv2d(spec, weights).row_local

        assert conv(1)
        assert not conv(3, padding=1)
        assert not conv(1, stride=2)
        assert not conv(1, padding=1)

    def test_pools_and_flatten_are_not_row_local(self):
        for op in (GlobalAvgPool(), MaxPool2d(2, 2), Flatten()):
            assert not op.row_local
