"""Classifier network architecture and the inference wrapper."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.nn.layers import (
    BatchNorm2D,
    Conv2D,
    Dense,
    GlobalAvgPool2D,
    MaxPool2D,
    ReLU,
)
from repro.nn.losses import softmax
from repro.nn.model import ResidualBlock, Sequential
from repro.utils.rng import derive_rng

__all__ = ["build_tiny_resnet", "SituationClassifier"]


def build_tiny_resnet(
    n_classes: int,
    in_channels: int = 3,
    widths: Tuple[int, int] = (8, 16),
    seed: int = 0,
) -> Sequential:
    """A small residual CNN in the ResNet-18 style of Table IV.

    stem conv-bn-relu-pool -> residual block (widened) -> pool ->
    residual block -> global average pool -> linear head.  Input is
    NCHW with spatial dims divisible by 4.  The stem pools immediately
    so the residual blocks run at quarter resolution — sized for the
    single-core evaluation environment.
    """
    if n_classes < 2:
        raise ValueError(f"n_classes must be >= 2, got {n_classes}")
    rng = derive_rng(seed, "tiny-resnet/init")
    w1, w2 = widths
    return Sequential(
        Conv2D(in_channels, w1, 3, rng, bias=False),
        BatchNorm2D(w1),
        ReLU(),
        MaxPool2D(2),
        ResidualBlock(w1, w2, rng),
        MaxPool2D(2),
        ResidualBlock(w2, w2, rng),
        GlobalAvgPool2D(),
        Dense(w2, n_classes, rng),
    )


class SituationClassifier:
    """Inference wrapper: network + class list + input preprocessing."""

    def __init__(
        self,
        name: str,
        model: Sequential,
        classes: Sequence,
        input_shape: Tuple[int, int, int],
    ):
        self.name = name
        self.model = model
        self.classes = tuple(classes)
        self.input_shape = tuple(input_shape)

    def fuse(self) -> "SituationClassifier":
        """A deployment copy whose network has conv+BN pairs folded.

        Predictions match the unfused classifier to float32 rounding
        (the fold is exact up to rounding; see
        :meth:`repro.nn.model.Sequential.fuse`), at a fraction of the
        per-frame inference cost — this is what the runtime identifier
        deploys inside the control loop.
        """
        return SituationClassifier(
            self.name, self.model.fuse(), self.classes, self.input_shape
        )

    def predict_proba(self, network_input: np.ndarray) -> np.ndarray:
        """Class probabilities for a preprocessed ``(C, H, W)`` input."""
        if network_input.shape != self.input_shape:
            raise ValueError(
                f"input shape {network_input.shape} != expected {self.input_shape}"
            )
        logits = self.model.forward(network_input[None], training=False)
        return softmax(logits)[0]

    def predict(self, network_input: np.ndarray):
        """The most likely class for a preprocessed input."""
        return self.classes[int(np.argmax(self.predict_proba(network_input)))]

    def predict_frame(self, frame_rgb: np.ndarray):
        """Classify a full ISP output frame.

        The frame is block-averaged down to the network input by one
        integer factor shared by both axes; the result must match
        ``input_shape`` exactly, or :meth:`predict_proba` raises.  The
        closed loop classifies each lane's frame with its own call.
        """
        from repro.classifiers.dataset import to_network_input

        _, h, w = self.input_shape
        factor_h = frame_rgb.shape[0] // h
        factor_w = frame_rgb.shape[1] // w
        if factor_h != factor_w or factor_h * h != frame_rgb.shape[0]:
            raise ValueError(
                f"frame {frame_rgb.shape[:2]} incompatible with input {(h, w)}"
            )
        return self.predict(to_network_input(frame_rgb, factor_h))
