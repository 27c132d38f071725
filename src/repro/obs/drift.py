"""Input-drift detection: windowed check-in distributions vs a frozen reference.

A quality drop (see :mod:`repro.obs.quality`) tells you the model got
worse; drift tells you *why first*: the check-in stream stopped looking
like the stream the model learned.  :class:`DriftDetector` watches two
marginals of the ingest stream — POI popularity and tile (spatial cell)
occupancy — each as a sliding window of recent events diffed against a
**frozen reference window** made of the first events the detector saw.

Binning: per-POI bins would be hundreds of near-empty cells whose
epsilon-floored divergence is all sampling noise.  Instead the
reference's top ``bins - 1`` keys get a bin each and everything else
(including keys never seen in the reference) folds into an ``OTHER``
bin.  With ``bins=16`` and 512-event windows the stationary PSI noise
floor is roughly ``bins / window ≈ 0.03`` — an order of magnitude
under the 0.25 alert threshold (the classic "major shift" cutoff),
while a popularity permutation scatters the head into OTHER and blows
far past it.

Gauges (callback-backed — scrapes read live, ingest pays two dict
updates per event): ``repro_drift_psi{dist=...}``,
``repro_drift_kl{dist=...}``, ``repro_drift_alert`` (1.0 when any
distribution's PSI crosses the threshold and the window has enough
mass to trust), plus the threshold itself as
``repro_drift_threshold`` so dashboards can draw the line.
"""

from __future__ import annotations

import math
import threading
from collections import Counter as TallyCounter
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .metrics import MetricsRegistry

__all__ = ["DriftDetector"]

_EPSILON = 1e-6


def _divergences(cur_counts, ref_counts, cur_total, ref_total) -> Tuple[float, float]:
    """(PSI, KL(cur‖ref)) between two binned count vectors."""
    if cur_total <= 0 or ref_total <= 0:
        return 0.0, 0.0
    psi = 0.0
    kl = 0.0
    for cur, ref in zip(cur_counts, ref_counts):
        p = max(cur / cur_total, _EPSILON)
        q = max(ref / ref_total, _EPSILON)
        log_ratio = math.log(p / q)
        psi += (p - q) * log_ratio
        kl += p * log_ratio
    return psi, kl


class _Sketch:
    """One distribution: frozen reference bins + a sliding current window."""

    def __init__(self, bins: int, window: int):
        self.bins = bins
        self.window = window
        self.ref_tally: TallyCounter = TallyCounter()
        self.bin_of: Optional[Dict[int, int]] = None  # frozen at reference freeze
        self.ref_counts: List[float] = []
        self.ref_total = 0
        self.recent: deque = deque()
        self.cur_counts: List[int] = []

    def freeze(self) -> None:
        head = [key for key, _ in self.ref_tally.most_common(self.bins - 1)]
        self.bin_of = {key: i for i, key in enumerate(head)}
        other = len(head)  # everything unmapped, incl. unseen keys
        self.ref_counts = [0.0] * (other + 1)
        for key, count in self.ref_tally.items():
            self.ref_counts[self.bin_of.get(key, other)] += count
        self.ref_total = sum(self.ref_tally.values())
        self.cur_counts = [0] * (other + 1)

    def update(self, key: int) -> None:
        other = len(self.cur_counts) - 1
        index = self.bin_of.get(key, other)
        self.recent.append(index)
        self.cur_counts[index] += 1
        if len(self.recent) > self.window:
            self.cur_counts[self.recent.popleft()] -= 1

    def divergences(self) -> Tuple[float, float]:
        return _divergences(
            self.cur_counts, self.ref_counts, len(self.recent), self.ref_total
        )


class DriftDetector:
    """PSI/KL drift gauges over POI and tile check-in distributions.

    ``tile_of`` maps a POI id to its spatial cell (the model's
    ``tile_system.leaf_of_poi``); when absent only the POI marginal is
    tracked.  The first ``reference`` events freeze the baseline; until
    then (and until the sliding window holds ``min_window`` events)
    the alert stays 0 — a detector must not page on its own warm-up.
    Thread-safe; designed to run as a ``StreamIngest`` observer.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        *,
        window: int = 512,
        reference: int = 512,
        bins: int = 16,
        threshold: float = 0.25,
        min_window: Optional[int] = None,
        tile_of: Optional[Callable[[int], int]] = None,
    ):
        if window < 1 or reference < 1:
            raise ValueError("window and reference must be >= 1")
        if bins < 2:
            raise ValueError("bins must be >= 2 (head bins + OTHER)")
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.window = int(window)
        self.reference = int(reference)
        self.bins = int(bins)
        self.threshold = float(threshold)
        self.min_window = (
            int(min_window) if min_window is not None else max(1, self.window // 2)
        )
        self._tile_of = tile_of
        self.registry = registry if registry is not None else MetricsRegistry()

        self._lock = threading.Lock()
        self._seen = 0
        self._frozen = False
        self._sketches: Dict[str, _Sketch] = {
            "poi": _Sketch(self.bins, self.window)
        }
        if tile_of is not None:
            self._sketches["tile"] = _Sketch(self.bins, self.window)

        reg = self.registry
        self._events = reg.counter(
            "repro_drift_events", "Check-ins fed to the drift detector"
        )
        reg.gauge("repro_drift_threshold", "PSI alert threshold").set(self.threshold)
        reg.gauge(
            "repro_drift_reference_frozen",
            "1 once the reference window is frozen",
            fn=lambda: 1.0 if self._frozen else 0.0,
        )
        reg.gauge(
            "repro_drift_window_events",
            "Events currently in the sliding window",
            fn=lambda: float(self._window_fill()),
        )
        for dist in self._sketches:
            reg.gauge(
                "repro_drift_psi",
                "Population stability index vs the frozen reference",
                {"dist": dist},
                fn=lambda dist=dist: self._divergence(dist)[0],
            )
            reg.gauge(
                "repro_drift_kl",
                "KL(current || reference)",
                {"dist": dist},
                fn=lambda dist=dist: self._divergence(dist)[1],
            )
        reg.gauge(
            "repro_drift_alert",
            "1 when any distribution's PSI exceeds the threshold",
            fn=lambda: 1.0 if self.alert() else 0.0,
        )

    # ------------------------------------------------------------------
    # ingest side
    # ------------------------------------------------------------------
    def update(self, event, append_result=None) -> None:
        """Feed one check-in (signature matches the ingest observer hook)."""
        poi = int(event.poi_id)
        tile = int(self._tile_of(poi)) if self._tile_of is not None else None
        self._events.inc()
        with self._lock:
            self._seen += 1
            if not self._frozen:
                self._sketches["poi"].ref_tally[poi] += 1
                if tile is not None:
                    self._sketches["tile"].ref_tally[tile] += 1
                if self._seen >= self.reference:
                    self._freeze_locked()
                return
            self._sketches["poi"].update(poi)
            if tile is not None:
                self._sketches["tile"].update(tile)

    def update_many(self, events: Iterable) -> None:
        """Feed check-ins in order as :meth:`update` would, under one lock."""
        keys = {"poi": [int(event.poi_id) for event in events]}
        if self._tile_of is not None:
            keys["tile"] = [int(self._tile_of(poi)) for poi in keys["poi"]]
        count = len(keys["poi"])
        self._events.inc(count)
        with self._lock:
            # the first ``reference`` events tally; the rest slide through
            head = 0 if self._frozen else min(count, self.reference - self._seen)
            self._seen += count
            for dist, values in keys.items():
                self._sketches[dist].ref_tally.update(values[:head])
            if not self._frozen and self._seen >= self.reference:
                self._freeze_locked()
            for dist, values in keys.items():
                for key in values[head:]:
                    self._sketches[dist].update(key)

    def freeze_reference(self) -> None:
        """Freeze the reference early (before ``reference`` events)."""
        with self._lock:
            if not self._frozen:
                self._freeze_locked()

    def _freeze_locked(self) -> None:
        for sketch in self._sketches.values():
            sketch.freeze()
        self._frozen = True

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def _window_fill(self) -> int:
        with self._lock:
            if not self._frozen:
                return 0
            return len(self._sketches["poi"].recent)

    def _divergence(self, dist: str) -> Tuple[float, float]:
        with self._lock:
            if not self._frozen:
                return 0.0, 0.0
            return self._sketches[dist].divergences()

    def psi(self, dist: str = "poi") -> float:
        return self._divergence(dist)[0]

    def kl(self, dist: str = "poi") -> float:
        return self._divergence(dist)[1]

    def alert(self) -> bool:
        with self._lock:
            if not self._frozen:
                return False
            fill = len(self._sketches["poi"].recent)
            if fill < self.min_window:
                return False
            return any(
                sketch.divergences()[0] >= self.threshold
                for sketch in self._sketches.values()
            )

    def summary(self) -> Dict:
        with self._lock:
            frozen = self._frozen
            fill = len(self._sketches["poi"].recent) if frozen else 0
            dists = {
                name: dict(zip(("psi", "kl"), sketch.divergences()))
                if frozen
                else {"psi": 0.0, "kl": 0.0}
                for name, sketch in self._sketches.items()
            }
            seen = self._seen
        return {
            "enabled": True,
            "reference_size": self.reference,
            "window": self.window,
            "min_window": self.min_window,
            "bins": self.bins,
            "threshold": self.threshold,
            "frozen": frozen,
            "events": seen,
            "window_events": fill,
            "distributions": dists,
            "alert": self.alert(),
        }
