"""Unreliable datagram channel: seeded loss, duplication, and delay.

Deterministic given (seed, direction label): each direction of a link owns
its own RNG stream, so swapping one scenario knob never reshuffles the
other direction's fate rolls.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass


@dataclass
class ChannelConfig:
    loss: float = 0.0          # probability a datagram vanishes
    duplicate: float = 0.0     # probability a second copy is injected
    delay_min: int = 0         # delivery latency bounds, in clock ticks
    delay_max: int = 0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.loss < 1.0:
            raise ValueError("loss must be in [0, 1)")
        if not 0.0 <= self.duplicate <= 1.0:
            raise ValueError("duplicate must be in [0, 1]")
        if self.delay_min < 0 or self.delay_max < self.delay_min:
            raise ValueError("bad delay bounds")


@dataclass
class ChannelStats:
    sent: int = 0
    dropped: int = 0
    duplicated: int = 0
    delivered: int = 0


class Channel:
    """One direction of a link. send() rolls the fate of the datagram;
    poll(now) yields everything whose delivery time has come, in order."""

    def __init__(self, config: ChannelConfig, label: str = ""):
        self.config = config
        # an ideal link draws nothing, so it holds no generator
        ideal = not (config.loss or config.duplicate or config.delay_max)
        self.rng = None if ideal else random.Random(f"{config.seed}:{label}")
        self.stats = ChannelStats()
        self._heap: list[tuple[int, int, bytes]] = []
        self._seq = 0

    def _enqueue(self, now: int, data: bytes) -> None:
        cfg = self.config
        delay = self.rng.randint(cfg.delay_min, cfg.delay_max) if cfg.delay_max else 0
        heapq.heappush(self._heap, (now + delay, self._seq, data))
        self._seq += 1

    def send(self, now: int, data: bytes) -> None:
        self.stats.sent += 1
        if self.rng is not None and self.rng.random() < self.config.loss:
            self.stats.dropped += 1
            return
        self._enqueue(now, data)
        if self.config.duplicate and self.rng.random() < self.config.duplicate:
            self.stats.duplicated += 1
            self._enqueue(now, data)

    def poll(self, now: int) -> list[bytes]:
        out = []
        while self._heap and self._heap[0][0] <= now:
            _, _, data = heapq.heappop(self._heap)
            out.append(data)
        self.stats.delivered += len(out)
        return out

    def pending(self) -> int:
        return len(self._heap)

    def next_due(self) -> int | None:
        """Delivery time of the earliest datagram in flight, or None."""
        return self._heap[0][0] if self._heap else None


@dataclass
class Link:
    """Bidirectional pair of channels sharing a config and seed."""

    to_device: Channel
    to_verifier: Channel

    @classmethod
    def create(cls, config: ChannelConfig) -> "Link":
        return cls(Channel(config, "to_device"), Channel(config, "to_verifier"))
