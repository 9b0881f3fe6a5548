"""A narrow ResNet-50 tail for the replay tests.

3x3 conv -> ReLU -> 1x1 conv -> ReLU -> global average pool -> flatten
-> classifier, at batch 1 on a 7x7 activation: the shape of the ``sdc``
benchmark's tail with a few channels.  No runnable zoo model has a 1x1
convolution or a global average pool, so without this model no test
replays a fault through either.
"""

import numpy as np

from repro.nn import Conv2dSpec, LinearSpec, SequentialModel
from repro.nn.graph import GraphBuilder
from repro.nn.inference import Conv2d, Flatten, GlobalAvgPool, Linear, ReLU

NAME = "resnet_tail"
CHANNELS, WIDE, HW, CLASSES = 8, 32, 7, 10
#: The input activation, NCHW at batch 1.
INPUT_SHAPE = (1, CHANNELS, HW, HW)


def build(seed=0):
    """``(graph, runnable)`` of the tail, weights drawn from ``seed``."""
    rng = np.random.default_rng([seed, *NAME.encode()])
    builder = GraphBuilder(NAME, batch=1, channels=CHANNELS, h=HW, w=HW)
    builder.conv(CHANNELS, 3, padding=1, name="conv2")
    builder.conv(WIDE, 1, name="conv3")
    builder.adaptive_pool(1, 1)
    builder.linear(CLASSES, name="fc")
    graph = builder.build(f"1x{CHANNELS}x{HW}x{HW} activations")
    c2 = Conv2dSpec(CHANNELS, CHANNELS, kernel=3, padding=1)
    c3 = Conv2dSpec(CHANNELS, WIDE, kernel=1)
    fc = LinearSpec(WIDE, CLASSES)
    ops = [
        Conv2d(c2, SequentialModel.random_weights_conv(c2, rng), name="conv2"),
        ReLU(),
        Conv2d(c3, SequentialModel.random_weights_conv(c3, rng), name="conv3"),
        ReLU(),
        GlobalAvgPool(),
        Flatten(),
        Linear(fc, SequentialModel.random_weights_linear(fc, rng), name="fc"),
    ]
    return graph, SequentialModel(ops, name=NAME)
