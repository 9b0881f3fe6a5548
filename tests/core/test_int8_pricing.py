"""Dtype-aware pricing: the INT8 pipe through selection and policies.

The quantized pipeline changes two numbers in the analytic model — the
matrix-math throughput (the device's INT8 pipe) and the operand width
(one byte) — and everything downstream must follow: CMR doubles on the
T4, arithmetic intensity doubles at fixed shape, and intensity-guided
selection over ``@int8`` tokens can flip a layer across the
compute/bandwidth boundary that its FP16 twin sits on one side of.
"""

import pytest

from repro.api import as_policy
from repro.config import DEFAULT_CONSTANTS, INT8_CONSTANTS
from repro.core import IntensityGuidedABFT
from repro.errors import ConfigurationError
from repro.gemm import GemmProblem
from repro.gpu import get_gpu
from repro.nn import TransformerBlockSpec, build_transformer_graph


class TestForDtype:
    def test_fp16_is_identity(self):
        t4 = get_gpu("T4")
        assert t4.for_dtype("fp16") is t4

    def test_int8_swaps_the_matrix_pipe(self):
        t4 = get_gpu("T4")
        int8 = t4.for_dtype("int8")
        assert int8.matmul_flops == 130.0e12
        assert int8.cmr == pytest.approx(2 * t4.cmr)
        assert int8.mem_bandwidth == t4.mem_bandwidth

    def test_jetson_int8_is_its_evaluated_pipe(self):
        jetson = get_gpu("Jetson-AGX-Xavier")
        assert jetson.for_dtype("int8").matmul_flops == jetson.matmul_flops

    @pytest.mark.parametrize("device", ["V100", "P4"])
    def test_devices_without_int8_pipe_refuse(self, device):
        with pytest.raises(ConfigurationError, match="no modeled INT8"):
            get_gpu(device).for_dtype("int8")

    def test_unknown_dtype_refuses(self):
        with pytest.raises(ConfigurationError, match="unknown pipeline dtype"):
            get_gpu("T4").for_dtype("fp8")


class TestInt8Constants:
    def test_operand_width_is_one_byte(self):
        assert INT8_CONSTANTS.fp16_bytes == 1
        assert DEFAULT_CONSTANTS.fp16_bytes == 2

    def test_intensity_doubles_at_fixed_shape(self):
        p = GemmProblem(512, 4096, 1024)
        fp16 = p.arithmetic_intensity(padded=True)
        int8 = p.flops(padded=True) / p.bytes_moved(padded=True, dtype_bytes=1)
        assert int8 == pytest.approx(2 * fp16)


class TestGuidedInt8:
    def test_tokens_carry_the_dtype(self):
        guided = IntensityGuidedABFT(get_gpu("T4"), dtype="int8")
        sel = guided.select_for_problem(GemmProblem(64, 64, 64))
        assert set(sel.scheme_times_s) == {"global@int8", "thread_onesided@int8"}
        assert sel.scheme.endswith("@int8")

    @pytest.mark.parametrize("dtype", ["fp16", "int8"])
    def test_intra_block_flip_on_the_large_block(self, dtype):
        """The transformer_abft experiment's claim, pinned: attention
        GEMMs go thread-level while the FFN projection goes global, in
        the same block on the same device, on both pipelines."""
        spec = TransformerBlockSpec(
            d_model=1024, n_heads=16, d_ff=4096, seq_len=512
        )
        graph = build_transformer_graph("block", spec=spec)
        guided = IntensityGuidedABFT(get_gpu("T4"), dtype=dtype)
        sel = guided.select_for_model(graph)
        chosen = {
            layer.name.rsplit("/", 1)[-1]: layer.scheme
            for layer in sel.layers
        }
        suffix = "" if dtype == "fp16" else "@int8"
        assert chosen["attn.h0.scores"] == f"thread_onesided{suffix}"
        assert chosen["ffn.fc1"] == f"global{suffix}"
        # By construction guided is never slower than either uniform.
        assert sel.guided_total_s <= sel.scheme_total_s(f"global{suffix}")
        assert sel.guided_total_s <= sel.scheme_total_s(
            f"thread_onesided{suffix}"
        )


class TestPolicies:
    def test_guided_int8_policy_name_and_tokens(self):
        policy = as_policy("guided@int8")
        assert policy.name == "guided@int8"
        plan = policy.assign(
            build_transformer_graph("transformer_decoder"), get_gpu("T4")
        )
        assert all(layer.scheme.endswith("@int8") for layer in plan)

    def test_fixed_int8_policy_prices_the_quantized_pipe(self):
        graph = build_transformer_graph("transformer_decoder")
        t4 = get_gpu("T4")
        fp16 = as_policy("fixed:global").assign(graph, t4)
        int8 = as_policy("fixed:global@int8").assign(graph, t4)
        assert int8.layers[0].scheme == "global@int8"
        # One-byte operands halve the DRAM bytes of the bandwidth-bound
        # layers, so the INT8 deployment is strictly faster end to end.
        assert int8.guided_total_s < fp16.guided_total_s

    def test_fixed_int8_on_a_device_without_the_pipe_refuses(self):
        with pytest.raises(ConfigurationError, match="no modeled INT8"):
            as_policy("fixed:global@int8").assign(
                build_transformer_graph("transformer_decoder"), get_gpu("V100")
            )
