"""Weight (de)serialization for nn models.

Weights are stored positionally: ``Layer.parameters()`` returns
parameters in a deterministic order, so saving the flat list and
loading it into an identically-constructed model round-trips exactly.
BatchNorm running statistics are captured as well.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.nn.layers import BatchNorm2D, Layer

__all__ = ["model_state", "load_state"]


def _batchnorms(layer: Layer) -> List[BatchNorm2D]:
    found: List[BatchNorm2D] = []
    if isinstance(layer, BatchNorm2D):
        found.append(layer)
    for attr in vars(layer).values():
        if isinstance(attr, Layer):
            found.extend(_batchnorms(attr))
        elif isinstance(attr, list):
            for item in attr:
                if isinstance(item, Layer):
                    found.extend(_batchnorms(item))
    return found


def model_state(model: Layer) -> Dict[str, np.ndarray]:
    """Capture parameters + batch-norm statistics as named arrays."""
    state: Dict[str, np.ndarray] = {}
    for i, param in enumerate(model.parameters()):
        state[f"param_{i:03d}"] = param.value
    for i, bn in enumerate(_batchnorms(model)):
        state[f"bn_{i:03d}_mean"] = bn.running_mean
        state[f"bn_{i:03d}_var"] = bn.running_var
    return state


def load_state(model: Layer, state: Dict[str, np.ndarray]) -> None:
    """Inverse of :func:`model_state`; shapes must match exactly."""
    params = model.parameters()
    for i, param in enumerate(params):
        key = f"param_{i:03d}"
        if key not in state:
            raise ValueError(f"missing weight {key} in state")
        value = state[key]
        if value.shape != param.value.shape:
            raise ValueError(
                f"{key}: shape {value.shape} != expected {param.value.shape}"
            )
        param.value = value.astype(np.float32)
        param.grad = np.zeros_like(param.value)
    for i, bn in enumerate(_batchnorms(model)):
        bn.running_mean = state[f"bn_{i:03d}_mean"].astype(np.float32)
        bn.running_var = state[f"bn_{i:03d}_var"].astype(np.float32)
