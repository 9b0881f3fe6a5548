"""Property: a propagation replay is the faulted forward pass.

A :class:`~repro.faults.PropagationCampaign` never reruns the model
per trial: it replays the struck layer's FP16 output through the
downstream layers, recomputing only the GEMM rows whose padded
activations differ from the clean pass's (DESIGN.md §3).  Whatever the
fault set, replaying the struck output of a faulted protected forward
pass must reproduce that pass's model output byte for byte.  The
record digests pin what replay computed on fixed draws; this property
pins it against an independent path on any draw — FP16 with additive,
non-finite and bit-flip faults, INT8 with finite additive faults (a
non-finite INT8 activation has no defined quantization).
"""

import functools

import numpy as np
import pytest
import tail_model
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import deploy
from repro.faults import FaultKind, FaultSpec
from repro.nn import build_runnable, runnable_input_shape

BATCH = {"mlp_bottom": 1, "coral": 2, "transformer_decoder": 2, tail_model.NAME: 1}
CASES = [(model, dtype) for model in BATCH for dtype in ("fp16", "int8")]


@functools.cache
def session_and_input(model, dtype):
    batch = BATCH[model]
    policy = "guided" if dtype == "fp16" else "guided@int8"
    if model == tail_model.NAME:
        graph, runnable = tail_model.build()
        session = deploy(graph, "T4", policy=policy, runnable=runnable)
        shape = tail_model.INPUT_SHAPE
    else:
        session = deploy(
            model,
            "T4",
            batch=batch,
            policy=policy,
            runnable=build_runnable(model, batch=batch, seed=0),
        )
        shape = runnable_input_shape(model, batch=batch)
    x = (np.random.default_rng(1).standard_normal(shape) * 0.5).astype(np.float16)
    return session, x


@functools.cache
def campaign(model, dtype, layer):
    session, x = session_and_input(model, dtype)
    return session.propagation_campaign(layer, x=x)


def finite_add(draw, row, col, decades=(-1.0, 6.0)):
    sign = draw(st.sampled_from([-1.0, 1.0]))
    return FaultSpec(row, col, FaultKind.ADD, value=sign * 10 ** draw(st.floats(*decades)))


def fp16_fault(draw, row, col):
    kind = draw(st.sampled_from(list(FaultKind)))
    if kind is FaultKind.ADD:
        return finite_add(draw, row, col)
    if kind is FaultKind.SET:
        value = draw(st.sampled_from([float("inf"), float("-inf"), float("nan")]))
        return FaultSpec(row, col, kind, value=value)
    width = 32 if kind is FaultKind.BITFLIP_FP32 else 16
    return FaultSpec(row, col, kind, bit=draw(st.integers(0, width - 1)))


@functools.cache
def clean_extremes(model, dtype):
    """Per layer, the sites of the clean output's largest and smallest
    values, where the next INT8 layer's activation scale is decided."""
    session, x = session_and_input(model, dtype)
    return {
        rec.name: [
            np.unravel_index(pick(rec.outcome.c), rec.outcome.c.shape)
            for pick in (np.argmax, np.argmin)
        ]
        for rec in session.run(x).layer_outcomes
    }


@st.composite
def fault_sets(draw, model, dtype):
    """A struck layer and 1-4 faults at logical output sites, uniform
    or at the clean output's extremes."""
    session, _ = session_and_input(model, dtype)
    layer = draw(st.sampled_from(session.plan.layer_names))
    dims = session.plan.layer(layer)
    specs = []
    for _ in range(draw(st.integers(1, 4))):
        extreme = draw(st.integers(0, 3)) > 0 if dtype == "int8" else draw(st.booleans())
        if extreme:
            row, col = map(int, draw(st.sampled_from(clean_extremes(model, dtype)[layer])))
        else:
            row, col = draw(st.integers(0, dims.m - 1)), draw(st.integers(0, dims.n - 1))
        if dtype == "fp16":
            specs.append(fp16_fault(draw, row, col))
        else:
            # At an extreme, a few FP16 ULPs of change (an INT32 delta
            # of 10 to 1000 here) move the next layer's scale while
            # most of its quantized rows keep their bytes.
            specs.append(finite_add(draw, row, col, (1.0, 3.0) if extreme else (-1.0, 6.0)))
    return layer, specs


@pytest.mark.parametrize("model, dtype", CASES)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_replay_of_the_struck_output_is_the_faulted_pass(model, dtype, data):
    layer, specs = data.draw(fault_sets(model, dtype))
    session, x = session_and_input(model, dtype)
    full = session.run(x, faults={layer: specs})
    struck = next(rec for rec in full.layer_outcomes if rec.name == layer)
    replayed = campaign(model, dtype, layer)._replay(struck.outcome.c)
    assert replayed.tobytes() == full.output.tobytes()
