"""Runtime situation identification backed by the trained CNNs."""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

import numpy as np

from repro.classifiers.models import SituationClassifier
from repro.core.reconfiguration import SituationIdentifier
from repro.core.situation import Situation

__all__ = ["CnnIdentifier"]


class CnnIdentifier(SituationIdentifier):
    """Identify situation features by running the trained classifiers.

    The incoming ISP frame is block-averaged to each network's input
    size (the frame must be an integer multiple — the default HiL frame
    of 384x192 maps onto the 48x24 network input with factor 8).

    By default the networks are deployed *fused* (conv+BN folded via
    :meth:`SituationClassifier.fuse`): classifier invocation sits on
    the per-cycle hot path, and the fused forward does the same math in
    a fraction of the passes.  Pass ``fuse=False`` to run the training
    graphs unchanged (e.g. to A/B the numerics).
    """

    def __init__(
        self,
        classifiers: Mapping[str, SituationClassifier],
        fuse: bool = True,
    ):
        missing = {"road", "lane", "scene"} - set(classifiers)
        if missing:
            raise ValueError(f"missing classifiers: {sorted(missing)}")
        self.classifiers: Dict[str, SituationClassifier] = {
            name: clf.fuse() if fuse else clf for name, clf in classifiers.items()
        }

    @classmethod
    def from_trained(
        cls,
        use_cache: bool = True,
        fuse: bool = True,
        verbose: bool = False,
    ) -> "CnnIdentifier":
        """Train (or load from cache) all three classifiers and wrap them.

        This is the one-call path behind the ``"cnn"`` identifier spec
        (see :mod:`repro.core.identifiers`): it hides the
        ``train_all_classifiers`` plumbing the examples previously
        inlined.
        """
        from repro.classifiers.train import train_all_classifiers

        trained = train_all_classifiers(use_cache=use_cache, verbose=verbose)
        return cls(
            {name: t.classifier for name, t in trained.items()}, fuse=fuse
        )

    def identify(
        self,
        frame_rgb: np.ndarray,
        which: Tuple[str, ...],
        true_situation: Situation,
    ) -> Dict[str, object]:
        """Run the requested classifiers on *frame_rgb* (see base class)."""
        result: Dict[str, object] = {}
        for name in which:
            result[name] = self.classifiers[name].predict_frame(frame_rgb)
        return result
