"""Lightweight runtime contracts for hot array boundaries.

This module lives in :mod:`repro.utils` so that every layer — including
:mod:`repro.metrics`, which imports nothing but ``utils`` — can guard
its boundaries without coupling to the linter.

The static checks (:mod:`repro.analysis`) catch structural mistakes;
these decorators catch the dynamic ones — a frame with the wrong rank
reaching the perception pipeline, a NaN leaking out of the NN forward
pass — *at the call site*, instead of as a cryptic downstream numpy
error.

Contracts are **on by default** (so every test run checks them) and
compile to nothing when disabled: with ``REPRO_CONTRACTS=0`` in the
environment at import time, the decorators return the function object
unchanged — zero wrapper, zero per-call cost.  When enabled, each
wrapper also consults :func:`contracts_enabled` per call so tests can
toggle checking without re-importing the library.

Shape specs map argument names to expected shapes::

    @check_shapes(frame=("H", "W", 3))      # rank 3, last dim exactly 3
    @check_shapes(x=("N", "C", None, None)) # rank 4, anything per dim
    def process(frame): ...

- ``int`` dimensions must match exactly,
- ``str`` dimensions are symbolic: every use of the same symbol within
  one call must agree (``("N", "N")`` demands a square matrix),
- ``None`` matches anything,
- an ``int`` spec (not a tuple) constrains only the rank.

:func:`check_finite` asserts ``np.isfinite`` over named array (or
scalar) arguments, and over the return value with ``result=True``.
"""

from __future__ import annotations

import functools
import inspect
import os
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

__all__ = [
    "ContractViolation",
    "assert_finite",
    "check_finite",
    "check_shapes",
    "contracts_enabled",
    "set_contracts_enabled",
]

ShapeSpec = Union[int, Tuple[Optional[Union[int, str]], ...]]

#: Captured once at import: REPRO_CONTRACTS=0 strips the decorators.
_COMPILED_IN = os.environ.get("REPRO_CONTRACTS", "1") != "0"

_enabled = _COMPILED_IN


class ContractViolation(ValueError):
    """A runtime contract (shape or finiteness) was violated."""


def contracts_enabled() -> bool:
    """Whether contract checks run on decorated calls."""
    return _enabled


def set_contracts_enabled(enabled: bool) -> bool:
    """Toggle checking at runtime; returns the previous value.

    Has no effect on functions decorated while ``REPRO_CONTRACTS=0``
    was set: those were compiled out entirely.
    """
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


def assert_finite(value, name: str = "value") -> None:
    """Raise :class:`ContractViolation` if *value* has NaN/Inf entries."""
    arr = np.asarray(value, dtype=float)
    if arr.size and not np.isfinite(arr).all():
        bad = int(arr.size - np.count_nonzero(np.isfinite(arr)))
        raise ContractViolation(
            f"{name} contains {bad} non-finite value(s) "
            f"(shape {arr.shape})"
        )


def _bind(fn: Callable, signature: inspect.Signature, args, kwargs):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound


def check_shapes(**specs: ShapeSpec) -> Callable[[Callable], Callable]:
    """Check named array arguments against shape specs (see module doc).

    The special key ``result`` constrains the return value.
    """
    result_spec = specs.pop("result", None)

    def decorate(fn: Callable) -> Callable:
        if not _COMPILED_IN:
            return fn
        signature = inspect.signature(fn)
        for name in specs:
            if name not in signature.parameters:
                raise TypeError(
                    f"check_shapes: {fn.__qualname__} has no parameter {name!r}"
                )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _enabled:
                return fn(*args, **kwargs)
            bound = _bind(fn, signature, args, kwargs)
            symbols: Dict[str, int] = {}
            for name, spec in specs.items():
                _check_shape(
                    bound.arguments[name], spec, f"{fn.__qualname__}({name})",
                    symbols,
                )
            result = fn(*args, **kwargs)
            if result_spec is not None:
                _check_shape(
                    result, result_spec, f"{fn.__qualname__}() result", symbols
                )
            return result

        return wrapper

    return decorate


def _check_shape(value, spec: ShapeSpec, label: str, symbols: Dict[str, int]):
    shape = np.shape(value)
    if isinstance(spec, int):
        if len(shape) != spec:
            raise ContractViolation(
                f"{label}: expected rank {spec}, got shape {shape}"
            )
        return
    if len(shape) != len(spec):
        raise ContractViolation(
            f"{label}: expected rank {len(spec)} shape {spec}, got {shape}"
        )
    for axis, (actual, expected) in enumerate(zip(shape, spec)):
        if expected is None:
            continue
        if isinstance(expected, str):
            pinned = symbols.setdefault(expected, actual)
            if pinned != actual:
                raise ContractViolation(
                    f"{label}: dim {axis} ({expected!r}) is {actual}, "
                    f"but {expected!r} was {pinned} earlier in the call"
                )
        elif actual != expected:
            raise ContractViolation(
                f"{label}: dim {axis} is {actual}, expected {expected} "
                f"(shape {shape} vs spec {spec})"
            )


def check_finite(
    *names: str, result: bool = False
) -> Callable[[Callable], Callable]:
    """Check that the named arguments (and optionally the return value)
    contain no NaN/Inf entries."""

    def decorate(fn: Callable) -> Callable:
        if not _COMPILED_IN:
            return fn
        signature = inspect.signature(fn)
        for name in names:
            if name not in signature.parameters:
                raise TypeError(
                    f"check_finite: {fn.__qualname__} has no parameter {name!r}"
                )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _enabled:
                return fn(*args, **kwargs)
            bound = _bind(fn, signature, args, kwargs)
            for name in names:
                assert_finite(
                    bound.arguments[name], f"{fn.__qualname__}({name})"
                )
            value = fn(*args, **kwargs)
            if result:
                assert_finite(value, f"{fn.__qualname__}() result")
            return value

        return wrapper

    return decorate
