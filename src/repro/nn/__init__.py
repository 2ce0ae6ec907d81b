"""Minimal neural-network framework (numpy only).

Implements exactly what the situation classifiers need: convolution
(im2col), batch norm, ReLU, pooling, dense layers, softmax
cross-entropy, SGD-with-momentum / Adam, a sequential container with
residual blocks (the ResNet-18 design cue of Table IV, scaled to the
synthetic task), and ``.npz`` serialization.

Data layout is NCHW throughout.
"""

from repro.nn.layers import (
    Layer,
    Parameter,
    Dense,
    ReLU,
    Flatten,
    Conv2D,
    BatchNorm2D,
    MaxPool2D,
    GlobalAvgPool2D,
    fuse_conv_bn,
)
from repro.nn.model import Sequential, ResidualBlock, FusedResidualBlock
from repro.nn.losses import softmax_cross_entropy, softmax
from repro.nn.optim import SGD, Adam
from repro.nn.trainer import Trainer, TrainConfig, TrainReport

__all__ = [
    "Layer",
    "Parameter",
    "Dense",
    "ReLU",
    "Flatten",
    "Conv2D",
    "BatchNorm2D",
    "MaxPool2D",
    "GlobalAvgPool2D",
    "Sequential",
    "ResidualBlock",
    "FusedResidualBlock",
    "fuse_conv_bn",
    "softmax_cross_entropy",
    "softmax",
    "SGD",
    "Adam",
    "Trainer",
    "TrainConfig",
    "TrainReport",
]
