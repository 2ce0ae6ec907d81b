"""Metrics registry: counters, gauges, and bounded histograms.

Counters accumulate, gauges hold the latest value, histograms keep a
bounded sample list.  Registries are designed to cross process
boundaries: :meth:`MetricsRegistry.snapshot` produces a plain picklable
dict and :meth:`MetricsRegistry.merge` folds such a snapshot back in —
this is how :func:`repro.utils.parallel.parallel_map` funnels per-worker
stats to the parent instead of dropping them with the pool.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Named counters/gauges/histograms with snapshot/merge support."""

    #: Histogram sample cap per name (counts keep accumulating beyond).
    MAX_SAMPLES = 65536

    def __init__(self):
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, List[float]] = {}

    def count(self, name: str, amount: int = 1) -> None:
        """Add *amount* to the counter *name* (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + int(amount)

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge *name* to *value* (last write wins)."""
        self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Append one sample to the histogram *name* (bounded)."""
        samples = self._histograms.get(name)
        if samples is None:
            samples = []
            self._histograms[name] = samples
        if len(samples) < self.MAX_SAMPLES:
            samples.append(float(value))

    def counters(self) -> Dict[str, int]:
        """A copy of all counters."""
        return dict(self._counters)

    def gauges(self) -> Dict[str, float]:
        """A copy of all gauges."""
        return dict(self._gauges)

    def histogram(self, name: str) -> List[float]:
        """A copy of the samples recorded under *name* (maybe empty)."""
        return list(self._histograms.get(name, ()))

    def absorb_profiler(self, stats: Mapping[str, object]) -> None:
        """Fold :meth:`repro.utils.profiling.Profiler.stats` output in.

        Each stage label becomes a ``stage.<label>.calls`` counter and a
        ``stage.<label>.mean_ms`` histogram sample, so run metrics and
        wall-clock profiling share one report surface.
        """
        for label, stat in stats.items():
            self.count(f"stage.{label}.calls", stat.count)
            self.observe(f"stage.{label}.mean_ms", stat.mean_ms)

    def snapshot(self) -> Dict[str, object]:
        """A picklable plain-dict copy of the registry's state."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {k: list(v) for k, v in self._histograms.items()},
        }

    def merge(self, snapshot: Mapping[str, object]) -> None:
        """Fold a :meth:`snapshot` in: counters add, gauges last-win,
        histogram samples extend (bounded)."""
        for name, amount in snapshot.get("counters", {}).items():
            self.count(name, amount)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name, value)
        for name, samples in snapshot.get("histograms", {}).items():
            mine = self._histograms.get(name)
            if mine is None:
                mine = []
                self._histograms[name] = mine
            room = self.MAX_SAMPLES - len(mine)
            if room > 0:
                mine.extend(float(v) for v in samples[:room])

    def reset(self) -> None:
        """Drop every recorded metric."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
