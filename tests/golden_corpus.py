"""Golden-trace regression corpus: four frozen reference rollouts.

Each corpus entry freezes one execution path of the facade as a pair of
fixture files under ``tests/golden/``:

- ``<name>.npz`` — the :class:`~repro.hil.record.HilResult` of the run
  (arrays, cycle records, manifest), written with ``HilResult.save``;
- ``<name>.trace.jsonl`` — the JSONL telemetry trace of the equivalent
  one-lane run (``simulate(telemetry=...)``).

The four entries cover the paths a cache or kernel regression could
silently skew: a nominal one-lane run, a fault campaign with
mitigation, a lock-step batched run (lane traces are invariant to batch
composition, so the one-lane trace doubles as the batched reference),
and a case-4 run (all three classifiers adapting ROI, speed and ISP).
A serial ``HilEngine.run`` is the lock-step engine with one
lane, so the engine's own tests can only compare it with itself at
different batch sizes; these fixtures, recorded by the retired serial
step loop and replayed unregenerated, are the independent reference.

``tests/test_golden_traces.py`` replays every entry and asserts byte
equality.  After an *intentional* kernel change (which must also bump
``ROLLOUT_KERNEL_VERSION`` or ``RENDERER_VERSION`` — see
``docs/DESIGN.md``), regenerate the fixtures with::

    PYTHONPATH=src python tests/golden_corpus.py

and review the resulting diff like any other behaviour change.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: The facade keywords of each corpus entry.
#: Frames are small and tracks short: the fixtures stay a few hundred
#: kilobytes and each replay runs in well under a second.
CORPUS: Dict[str, Dict[str, object]] = {
    "nominal": {
        "situation": 1,
        "case": "case1",
        "seed": 11,
        "frame": (96, 48),
        "length_m": 40.0,
    },
    "fault_mitigation": {
        "situation": 3,
        "case": "case3",
        "seed": 13,
        "frame": (96, 48),
        "length_m": 60.0,
        "faults": "blackout",
        "mitigate": True,
    },
    "batched": {
        "situation": 2,
        "case": "case2",
        "seed": [21, 22],
        "frame": (96, 48),
        "length_m": 40.0,
    },
    "case4": {
        "situation": 4,
        "case": "case4",
        "seed": 17,
        "frame": (96, 48),
        "length_m": 40.0,
    },
}


def npz_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.npz"


def trace_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.trace.jsonl"


def serial_params(name: str) -> Dict[str, object]:
    """The entry's keywords reduced to one serial run.

    For the ``batched`` entry this is the first lane's seed: a batched
    lane is bit-identical to the serial run with the same seed, so the
    serial telemetry trace is the reference for the whole path.
    """
    params = dict(CORPUS[name])
    seed = params["seed"]
    if isinstance(seed, (list, tuple)):
        params["seed"] = seed[0]
    return params


def reference_result(name: str):
    """Produce the entry's reference :class:`HilResult` live (no cache)."""
    import repro.api

    params = dict(CORPUS[name])
    if name == "batched":
        results = repro.api.simulate(**params, batch=len(params["seed"]))
        return results[0]
    return repro.api.simulate(**params)


def regenerate() -> None:
    """Rebuild every fixture pair under ``tests/golden/``."""
    import repro.api

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in CORPUS:
        result = reference_result(name)
        result.save(str(npz_path(name)))
        repro.api.simulate(**serial_params(name), telemetry=trace_path(name))
        print(f"wrote {npz_path(name).name} + {trace_path(name).name}")


if __name__ == "__main__":
    regenerate()
