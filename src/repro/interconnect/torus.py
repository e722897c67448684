"""2D torus topology model.

Provides hop-count computation and average-distance statistics for a
``width x height`` torus.  Nodes are numbered row-major; each node is a
processor + memory-controller tile as in the paper's 16-node system.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Tuple


class TorusTopology:
    """A 2D torus with wrap-around links in both dimensions.

    Immutable; compares and hashes by value.
    """

    __slots__ = ("width", "height", "hop_latency_ns")

    def __init__(self, width: int = 4, height: int = 4, hop_latency_ns: float = 25.0) -> None:
        if width <= 0 or height <= 0:
            raise ValueError("torus dimensions must be positive")
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "hop_latency_ns", hop_latency_ns)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable TorusTopology")

    def __reduce__(self):
        return TorusTopology, (self.width, self.height, self.hop_latency_ns)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.width, self.height, self.hop_latency_ns) == (
            other.width,
            other.height,
            other.hop_latency_ns,
        )

    def __hash__(self) -> int:
        return hash((self.width, self.height, self.hop_latency_ns))

    def __repr__(self) -> str:
        return (
            f"TorusTopology(width={self.width!r}, height={self.height!r}, "
            f"hop_latency_ns={self.hop_latency_ns!r})"
        )

    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    def coordinates(self, node: int) -> Tuple[int, int]:
        """Return the (x, y) coordinates of ``node``."""
        self._check_node(node)
        return node % self.width, node // self.width

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range for {self.num_nodes}-node torus")

    def hop_count(self, src: int, dst: int) -> int:
        """Minimal hop count between ``src`` and ``dst`` with wrap-around routing."""
        sx, sy = self.coordinates(src)
        dx, dy = self.coordinates(dst)
        hops_x = abs(sx - dx)
        hops_y = abs(sy - dy)
        return min(hops_x, self.width - hops_x) + min(hops_y, self.height - hops_y)

    def all_pairs(self) -> Iterator[Tuple[int, int]]:
        for src in range(self.num_nodes):
            for dst in range(self.num_nodes):
                yield src, dst

    def average_hop_count(self) -> float:
        """Average hop count over all ordered (src, dst) pairs with src != dst."""
        return _average_hop_count(self)

    def average_remote_latency_ns(self, round_trip: bool = True) -> float:
        """Average network latency for a remote access (request + response)."""
        one_way = self.average_hop_count() * self.hop_latency_ns
        return 2.0 * one_way if round_trip else one_way


@lru_cache(maxsize=None)
def _average_hop_count(torus: TorusTopology) -> float:
    # Walks every ordered pair once per topology (they hash by value): the
    # timing model reads the average, through
    # ``MachineConfig.remote_network_cycles``, several times per result.
    total = 0
    pairs = 0
    for src, dst in torus.all_pairs():
        if src == dst:
            continue
        total += torus.hop_count(src, dst)
        pairs += 1
    return total / pairs if pairs else 0.0
