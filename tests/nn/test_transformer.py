"""The transformer workload zoo (`repro.nn.transformer`).

Contract: a block spec lowers into the documented GEMM stream — QKV
projection, per-head score/context products, attention output, two FFN
projections — identically on both zoo surfaces: the shape-only graph
(``build_transformer_graph``) and the runnable numeric model
(``build_transformer_runnable``).  The runnable's traced GEMMs must
match the graph's problems layer for layer, so deployment plans built
from the graph drive campaigns on the runnable unchanged.
"""

import warnings

import numpy as np
import pytest

from repro.abft import get_scheme
from repro.api import as_policy, deploy
from repro.errors import ShapeError
from repro.faults import FaultKind, FaultSpec
from repro.gemm import GemmProblem, TiledGemm, select_tile
from repro.gpu import get_gpu
from repro.nn import (
    ProtectedInference,
    TransformerBlockSpec,
    build_model,
    build_runnable,
    build_transformer_graph,
    build_transformer_runnable,
    runnable_input_shape,
    transformer_models,
)
from repro.nn.transformer import TRANSFORMER_PRESETS, _GELU


class TestSpec:
    def test_presets_registered_in_both_zoos(self):
        from repro.nn import list_models, runnable_models

        for name in transformer_models():
            assert name in list_models()
            assert name in runnable_models()

    def test_head_split_must_divide(self):
        with pytest.raises(ShapeError, match="divide evenly"):
            TransformerBlockSpec(d_model=100, n_heads=3, d_ff=256, seq_len=8)

    @pytest.mark.parametrize("field", ["d_model", "n_heads", "d_ff", "seq_len"])
    def test_dimensions_must_be_positive(self, field):
        kwargs = dict(d_model=64, n_heads=4, d_ff=128, seq_len=8)
        kwargs[field] = 0
        with pytest.raises(ShapeError):
            TransformerBlockSpec(**kwargs)

    def test_decoder_preset_has_long_kv(self):
        spec = TRANSFORMER_PRESETS["transformer_decoder"]
        assert spec.kv == 128 and spec.seq_len == 8
        assert TRANSFORMER_PRESETS["transformer_encoder"].kv == 32


class TestGraph:
    def test_decoder_gemm_stream(self):
        graph = build_transformer_graph("transformer_decoder")
        spec = TRANSFORMER_PRESETS["transformer_decoder"]
        dims = {
            layer.name.rsplit("/", 1)[-1]: (
                layer.problem.m, layer.problem.n, layer.problem.k
            )
            for layer in graph
        }
        m, d, dh, kv = spec.rows, spec.d_model, spec.head_dim, spec.kv
        assert dims["qkv"] == (m, 3 * d, d)
        assert dims["attn.h0.scores"] == (m, kv, dh)
        assert dims["attn.h0.ctx"] == (m, dh, kv)
        assert dims["attn.out"] == (m, d, d)
        assert dims["ffn.fc1"] == (m, spec.d_ff, d)
        assert dims["ffn.fc2"] == (m, d, spec.d_ff)
        assert len(graph) == 4 + 2 * spec.n_heads

    def test_attention_gemms_are_kind_attention(self):
        graph = build_transformer_graph("transformer_encoder")
        kinds = {layer.name.rsplit("/", 1)[-1]: layer.kind for layer in graph}
        assert kinds["attn.h0.scores"] == "attention"
        assert kinds["attn.h3.ctx"] == "attention"
        assert kinds["qkv"] == "linear" and kinds["ffn.fc1"] == "linear"

    def test_batch_scales_rows_only(self):
        one = build_transformer_graph("transformer_encoder", batch=1)
        four = build_transformer_graph("transformer_encoder", batch=4)
        for l1, l4 in zip(one, four):
            assert l4.problem.m == 4 * l1.problem.m
            assert (l4.problem.n, l4.problem.k) == (l1.problem.n, l1.problem.k)


class TestRunnable:
    @pytest.mark.parametrize("name", list(TRANSFORMER_PRESETS))
    def test_trace_matches_graph_problems(self, name):
        graph = build_model(name, batch=1)
        runnable = build_runnable(name, seed=3)
        assert runnable.linear_names == [
            layer.name.rsplit("/", 1)[-1] for layer in graph
        ]
        x = (
            np.random.default_rng(11)
            .standard_normal(runnable_input_shape(name)) * 0.5
        ).astype(np.float16)
        trace = ProtectedInference(runnable, get_scheme("global")).trace(x)
        for step, layer in zip(trace.steps, graph):
            p = layer.problem
            assert step.a.shape == (p.m, p.k), step.name
            assert step.b.shape == (p.k, p.n), step.name

    def test_weights_are_a_pure_function_of_seed(self):
        w = lambda m: [
            op.weights.tobytes() for op in m.ops
            if getattr(op, "is_linear", False) and hasattr(op, "weights")
        ]
        assert w(build_transformer_runnable("transformer_decoder", seed=5)) == \
            w(build_transformer_runnable("transformer_decoder", seed=5))
        assert w(build_transformer_runnable("transformer_decoder", seed=5)) != \
            w(build_transformer_runnable("transformer_decoder", seed=6))

    def test_clean_pass_shape_and_no_detection(self):
        runnable = build_transformer_runnable("transformer_encoder", seed=0)
        x = (
            np.random.default_rng(2)
            .standard_normal(runnable_input_shape("transformer_encoder"))
            * 0.5
        ).astype(np.float16)
        result = ProtectedInference(runnable, get_scheme("thread_onesided")).run(x)
        assert not result.detected
        spec = TRANSFORMER_PRESETS["transformer_encoder"]
        assert result.output.shape == (spec.rows, spec.d_model)


class TestDeployment:
    def test_guided_plan_covers_every_gemm(self):
        plan = as_policy("guided").assign(
            build_model("transformer_decoder"), get_gpu("T4")
        )
        assert len(plan.layer_names) == 12
        assert plan.guided_overhead_percent < 10

    @pytest.mark.parametrize("dtype", ["fp16", "int8"])
    def test_campaign_full_coverage_both_pipelines(self, dtype):
        session = deploy(
            "transformer_decoder", "T4",
            policy="guided" if dtype == "fp16" else "guided@int8",
            seed=0,
        )
        result = session.campaign("ffn.fc1", seed=0).run_batch(16)
        assert result.coverage == 1.0
        assert not result.false_negatives

    def test_propagation_campaign_on_attention_layer(self):
        session = deploy(
            "transformer_decoder", "T4", seed=0,
            runnable=build_runnable("transformer_decoder", seed=0),
        )
        x = (
            np.random.default_rng(9)
            .standard_normal(runnable_input_shape("transformer_decoder"))
            * 0.5
        ).astype(np.float16)
        result = session.propagation_campaign(
            "attn.h0.scores", x=x, seed=0
        ).run_batch(8)
        assert result.n_trials == 8
        assert result.undetected_sdc_rate == 0.0


def apply_op(op, x):
    """One op of the runnable model, linear ones on a plain tiled GEMM."""
    if not op.is_linear:
        return op.forward(x)
    a, b, ctx = op.lower(x)
    problem = GemmProblem(a.shape[0], b.shape[1], a.shape[1])
    gemm = TiledGemm(problem, select_tile(problem))
    return op.reshape_output(gemm.epilogue(gemm.crop(gemm.run(a, b)), 1.0), ctx)


class TestNonFiniteActivations:
    """inf/NaN activations (a struck upstream GEMM) are the hardware's
    values: every op passes them on without a RuntimeWarning and keeps
    them inside their rows."""

    def test_every_op_passes_non_finite_rows_silently(self):
        model = build_transformer_runnable("transformer_decoder", seed=0)
        x = (
            np.random.default_rng(3)
            .standard_normal(runnable_input_shape("transformer_decoder"))
            * 0.5
        ).astype(np.float16)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for op in model.ops:
                struck = x.copy()
                struck[0] = np.inf
                struck[1] = -np.inf
                struck[2] = np.nan
                struck[3, ::2], struck[3, 1::2] = np.inf, -np.inf
                out = apply_op(op, struck)
                x = apply_op(op, x)
                assert (~np.isfinite(out[:4])).any(axis=1).all(), type(op).__name__
                assert out[4:].tobytes() == x[4:].tobytes(), type(op).__name__

    @pytest.mark.parametrize(
        "policy",
        ["guided"]
        + [
            f"fixed:{name}"
            for name in (
                "global",
                "thread_onesided",
                "thread_twosided",
                "global_multi:2",
                "replication_single",
                "replication_traditional",
            )
        ],
    )
    def test_protected_pass_over_non_finite_activation(self, policy):
        """A detected but unrecovered inf/NaN reaches every downstream
        layer; their checksum reductions keep the hardware's values
        without a RuntimeWarning, and the struck layer reports it."""
        session = deploy(
            "transformer_decoder",
            "T4",
            batch=2,
            policy=policy,
            runnable=build_runnable("transformer_decoder", batch=2, seed=0),
        )
        shape = runnable_input_shape("transformer_decoder", batch=2)
        x = (np.random.default_rng(1).standard_normal(shape) * 0.5).astype(np.float16)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for layer in ("qkv", "ffn.fc1"):
                for value in (np.inf, -np.inf, np.nan):
                    spec = FaultSpec(row=0, col=0, kind=FaultKind.SET, value=value)
                    result = session.run(x, faults={layer: [spec]})
                    struck = [o for o in result.layer_outcomes if o.name == layer]
                    assert [o.detected for o in struck] == [True], (layer, value)

    def test_gelu_table_matches_the_formula_exhaustively(self):
        patterns = np.arange(1 << 16).astype(np.uint16)
        values = patterns.view(np.float16)
        nan_in = np.isnan(values)
        assert (~nan_in).sum() == 63490
        square = values.reshape(256, 256)
        for layout in (values, square, square.T):
            x32 = layout.astype(np.float32)
            with np.errstate(invalid="ignore"):
                inner = np.sqrt(2.0 / np.pi) * (x32 + 0.044715 * x32**3)
                expected = (0.5 * x32 * (1.0 + np.tanh(inner))).astype(np.float16)
            got = _GELU().forward(layout)
            assert got.shape == layout.shape and got.dtype == np.float16
            keep = ~np.isnan(layout)
            assert got[keep].tobytes() == expected[keep].tobytes()
            assert np.isnan(got[~keep]).all()
