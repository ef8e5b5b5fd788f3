"""Codec interface."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple


@dataclass(frozen=True)
class CompressionResult:
    """Outcome of compressing one buffer.

    ``payload`` is the compressed byte stream; ``original_size`` is kept so
    callers can compute ratios without retaining the input.
    """

    codec: str
    payload: bytes
    original_size: int

    @property
    def compressed_size(self) -> int:
        return len(self.payload)

    @property
    def ratio(self) -> float:
        """Original/compressed size; >1 means the codec saved space."""
        if self.compressed_size == 0:
            return float("inf")
        return self.original_size / self.compressed_size


class Plan(NamedTuple):
    """A codec's output for one input, sized before it is built:
    ``size == len(pack())``.  Algorithm 1 decides on sizes alone, so
    only the output that is stored is ever packed."""

    size: int
    pack: Callable[[], bytes]


class Compressor:
    """Abstract codec: subclasses implement ``compress`` and ``decompress``.
    The software codecs Algorithm 1 chooses between also implement
    ``plan(data) -> Plan``, and ``compress`` is ``plan(data).pack()``.

    Codecs are stateless; the same instance may be shared across threads of
    the simulation.
    """

    #: Key of ``memo.CODECS``; subclasses must override.
    name = "abstract"

    def compress(self, data: bytes) -> bytes:
        raise NotImplementedError

    def decompress(self, payload: bytes) -> bytes:
        raise NotImplementedError

    def compress_result(self, data: bytes) -> CompressionResult:
        return CompressionResult(self.name, self.compress(data), len(data))
