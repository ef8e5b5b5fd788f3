"""Codec interface and registry."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict


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


class Compressor:
    """Abstract codec: subclasses implement ``compress`` and ``decompress``.

    Codecs are stateless; the same instance may be shared across threads of
    the simulation.
    """

    #: Registry key; subclasses must override.
    name = "abstract"

    def compress(self, data: bytes) -> bytes:
        raise NotImplementedError

    def decompress(self, payload: bytes) -> bytes:
        raise NotImplementedError

    def compress_result(self, data: bytes) -> CompressionResult:
        return CompressionResult(self.name, self.compress(data), len(data))


_REGISTRY: Dict[str, Callable[[], Compressor]] = {}
_INSTANCES: Dict[str, Compressor] = {}


def register_codec(name: str, factory: Callable[[], Compressor]) -> None:
    """Register a codec factory under ``name`` (overwrites silently)."""
    _REGISTRY[name] = factory
    _INSTANCES.pop(name, None)


def get_codec(name: str) -> Compressor:
    """Return the shared instance of the codec registered as ``name``."""
    if name not in _INSTANCES:
        if name not in _REGISTRY:
            raise KeyError(
                f"unknown codec {name!r}; known: {sorted(_REGISTRY)}"
            )
        _INSTANCES[name] = _REGISTRY[name]()
    return _INSTANCES[name]
