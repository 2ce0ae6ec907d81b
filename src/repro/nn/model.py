"""Model containers: sequential stacks, residual blocks, and fusion.

``Sequential.fuse()`` produces the deployment form of a trained model:
every conv+BN pair (including those inside residual blocks) is folded
into a single conv via :func:`repro.nn.layers.fuse_conv_bn`, which
removes five full-tensor passes per classifier forward and all BN
broadcasting temporaries from the per-cycle hot path.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.utils.contracts import check_finite, check_shapes
from repro.nn.layers import (
    BatchNorm2D,
    Conv2D,
    Layer,
    Parameter,
    ReLU,
    fuse_conv_bn,
)

__all__ = ["Sequential", "ResidualBlock", "FusedResidualBlock"]


class Sequential(Layer):
    """A plain chain of layers."""

    def __init__(self, *layers: Layer):
        if not layers:
            raise ValueError("Sequential needs at least one layer")
        self.layers: List[Layer] = list(layers)

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    @check_finite("x", result=True)
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training)
        return x

    @check_finite("grad")
    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def fuse(self) -> "Sequential":
        """An inference-only copy with frozen BatchNorms folded away.

        - ``Conv2D`` followed by ``BatchNorm2D`` becomes one conv with
          folded weights/bias (fresh parameter arrays);
        - ``ResidualBlock`` becomes a :class:`FusedResidualBlock`;
        - every other layer is shared with the original model (they are
          stateless at inference; ``Dense`` weights stay shared).

        Outputs match the unfused model to float32 rounding (the
        reference tests bound the difference at 1e-4).  The fused model
        must not be trained: fused layers have no BN to update and
        raise on ``backward``.
        """
        fused: List[Layer] = []
        i = 0
        while i < len(self.layers):
            layer = self.layers[i]
            nxt = self.layers[i + 1] if i + 1 < len(self.layers) else None
            if isinstance(layer, Conv2D) and isinstance(nxt, BatchNorm2D):
                fused.append(fuse_conv_bn(layer, nxt))
                i += 2
            elif isinstance(layer, ResidualBlock):
                fused.append(FusedResidualBlock(layer))
                i += 1
            elif isinstance(layer, Sequential):
                fused.append(layer.fuse())
                i += 1
            else:
                fused.append(layer)
                i += 1
        return Sequential(*fused)


class ResidualBlock(Layer):
    """conv-bn-relu-conv-bn + identity (or 1x1 projection) skip, relu.

    The basic block of ResNet-18 [17], at the scale the synthetic
    situation-classification task needs.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        rng: np.random.Generator,
    ):
        self.conv1 = Conv2D(in_channels, out_channels, 3, rng, bias=False)
        self.bn1 = BatchNorm2D(out_channels)
        self.relu1 = ReLU()
        self.conv2 = Conv2D(out_channels, out_channels, 3, rng, bias=False)
        self.bn2 = BatchNorm2D(out_channels)
        self.relu2 = ReLU()
        self.projection: Optional[Conv2D] = None
        if in_channels != out_channels:
            self.projection = Conv2D(
                in_channels, out_channels, 1, rng, padding=0, bias=False
            )

    def parameters(self) -> List[Parameter]:
        params = (
            self.conv1.parameters()
            + self.bn1.parameters()
            + self.conv2.parameters()
            + self.bn2.parameters()
        )
        if self.projection is not None:
            params += self.projection.parameters()
        return params

    @check_shapes(x=("N", "C", "H", "W"))
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = self.conv1.forward(x, training)
        out = self.bn1.forward(out, training)
        out = self.relu1.forward(out, training)
        out = self.conv2.forward(out, training)
        out = self.bn2.forward(out, training)
        skip = x if self.projection is None else self.projection.forward(x, training)
        return self.relu2.forward(out + skip, training)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        grad = self.relu2.backward(grad)
        grad_main = self.bn2.backward(grad)
        grad_main = self.conv2.backward(grad_main)
        grad_main = self.relu1.backward(grad_main)
        grad_main = self.bn1.backward(grad_main)
        grad_main = self.conv1.backward(grad_main)
        if self.projection is not None:
            grad_skip = self.projection.backward(grad)
        else:
            grad_skip = grad
        return grad_main + grad_skip


class FusedResidualBlock(Layer):
    """Inference-only residual block with BN folded into its convs.

    The forward pass owns every intermediate buffer (conv outputs are
    fresh arrays), so the ReLUs and the skip-add run in place — one
    block forward performs exactly three GEMMs (two with projection
    absent) and no other full-tensor passes.
    """

    def __init__(self, block: ResidualBlock):
        self.conv1 = fuse_conv_bn(block.conv1, block.bn1)
        self.conv2 = fuse_conv_bn(block.conv2, block.bn2)
        self.projection: Optional[Conv2D] = block.projection

    def parameters(self) -> List[Parameter]:
        params = self.conv1.parameters() + self.conv2.parameters()
        if self.projection is not None:
            params += self.projection.parameters()
        return params

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            raise RuntimeError(
                "FusedResidualBlock is inference-only; train the unfused model"
            )
        out = self.conv1.forward(x)
        np.maximum(out, 0.0, out=out)
        out = self.conv2.forward(out)
        if self.projection is not None:
            out += self.projection.forward(x)
        else:
            out += x
        np.maximum(out, 0.0, out=out)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise RuntimeError(
            "FusedResidualBlock is inference-only; train the unfused model"
        )
