"""Transformer blocks under intensity-guided ABFT, FP16 and INT8.

The transformer zoo entries decompose a block into GEMMs of two very
different shapes: attention score/context products are small and
bandwidth bound (their K or N dimension is a head dimension or a KV
length), while the FFN projections are large and, at production sizes,
compute bound.  Intensity-guided ABFT should therefore *split* its
decision inside one block — thread-level ABFT on the attention GEMMs,
global ABFT on the FFN GEMMs — exactly the per-layer flip the paper
demonstrates across CNN layers (§6.2), now reproduced inside a single
transformer block and on both numeric pipelines.

The small presets (encoder/decoder at d_model=128) stay fully bandwidth
bound and pick thread-level ABFT everywhere; the GPT-2-medium-sized
block is where the flip appears.
"""

from __future__ import annotations

from ..core import IntensityGuidedABFT
from ..gpu import T4, GPUSpec
from ..nn import TransformerBlockSpec, build_transformer_graph
from ..nn.transformer import TRANSFORMER_PRESETS
from ..utils import Table

#: Swept block shapes: the two zoo presets plus a production-sized block
#: (GPT-2-medium-like: d_model=1024, 16 heads, d_ff=4096, 512 tokens)
#: whose FFN GEMMs cross the T4's compute/bandwidth boundary.
BLOCKS: dict[str, TransformerBlockSpec] = dict(
    TRANSFORMER_PRESETS,
    transformer_large=TransformerBlockSpec(
        d_model=1024, n_heads=16, d_ff=4096, seq_len=512
    ),
)

#: Numeric pipelines to sweep (requires a device with an INT8 pipe).
DTYPES: tuple[str, ...] = ("fp16", "int8")


def transformer_abft(spec: GPUSpec = T4) -> Table:
    """Sweep block shapes x dtype; show the per-layer scheme flip.

    The ``scores``/``fc1`` columns print the guided choice for one
    attention-shaped GEMM and one FFN GEMM of the same block on the
    same device — the rows where they differ are the intra-block flip.
    """
    table = Table(
        [
            "block",
            "dtype",
            "agg AI",
            "CMR",
            "thread (%)",
            "global (%)",
            "guided (%)",
            "scores choice",
            "fc1 choice",
        ],
        title=f"transformer blocks under intensity-guided ABFT ({spec.name})",
    )
    for block_name, block in BLOCKS.items():
        graph = build_transformer_graph(block_name, spec=block)
        for dtype in DTYPES:
            guided = IntensityGuidedABFT(spec, dtype=dtype)
            plan = guided.select_for_model(graph)
            by_layer = {layer.name.rsplit("/", 1)[-1]: layer for layer in plan}
            suffix = "" if dtype == "fp16" else f"@{dtype}"
            table.add_row(
                [
                    block_name,
                    dtype,
                    graph.aggregate_intensity(),
                    guided.spec.cmr,
                    plan.scheme_overhead_percent(f"thread_onesided{suffix}"),
                    plan.scheme_overhead_percent(f"global{suffix}"),
                    plan.guided_overhead_percent,
                    by_layer["attn.h0.scores"].scheme,
                    by_layer["ffn.fc1"].scheme,
                ]
            )
    return table
