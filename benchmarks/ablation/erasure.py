"""Reed-Solomon erasure coding (§6, "Alternative Space-Saving Approaches").

The paper lists erasure coding as an alternative to 3-way replication for
page data — while noting it "is not currently suitable for our system's
redo records" (small synchronous appends force parity read-modify-write).
This module implements both halves of that statement:

* a from-scratch systematic Reed-Solomon codec over GF(2^8) (Vandermonde
  construction, Gaussian-elimination decoding) that tolerates any ``m``
  erasures of ``k + m`` shards;
* an :class:`ECVolume` that stripes 16 KB pages across simulated devices
  with k-data + m-parity placement, serving reads through failures and
  quantifying why small appends (redo) are a poor fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.common.errors import ReproError

# ----------------------------------------------------------------------- #
# GF(2^8) arithmetic (AES polynomial 0x11d is conventional for RS codes)  #
# ----------------------------------------------------------------------- #

_PRIM = 0x11D
_EXP = [0] * 512
_LOG = [0] * 256


def _init_tables() -> None:
    x = 1
    for i in range(255):
        _EXP[i] = x
        _LOG[x] = i
        x <<= 1
        if x & 0x100:
            x ^= _PRIM
    for i in range(255, 512):
        _EXP[i] = _EXP[i - 255]


_init_tables()


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("GF(256) inverse of zero")
    return _EXP[255 - _LOG[a]]


def gf_pow(base: int, exponent: int) -> int:
    if exponent == 0:
        return 1
    if base == 0:
        return 0
    return _EXP[(_LOG[base] * exponent) % 255]


def _dot(row: Sequence[int], column: Sequence[int]) -> int:
    out = 0
    for a, b in zip(row, column):
        out ^= gf_mul(a, b)
    return out


def _mat_mul_vec(matrix: Sequence[Sequence[int]], shards: Sequence[bytes]) -> List[bytearray]:
    """Multiply an r x k GF matrix by k data shards -> r output shards."""
    shard_len = len(shards[0])
    out = [bytearray(shard_len) for _ in matrix]
    for row_index, row in enumerate(matrix):
        target = out[row_index]
        for coeff, shard in zip(row, shards):
            if coeff == 0:
                continue
            log_c = _LOG[coeff]
            for i, byte in enumerate(shard):
                if byte:
                    target[i] ^= _EXP[log_c + _LOG[byte]]
    return out


def _invert(matrix: List[List[int]]) -> List[List[int]]:
    """Invert a square GF(256) matrix by Gauss-Jordan elimination."""
    n = len(matrix)
    aug = [row[:] + [1 if i == j else 0 for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(
            (r for r in range(col, n) if aug[r][col] != 0), None
        )
        if pivot is None:
            raise ReproError("singular decode matrix (too many erasures?)")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = gf_inv(aug[col][col])
        aug[col] = [gf_mul(value, inv_p) for value in aug[col]]
        for row in range(n):
            if row != col and aug[row][col]:
                factor = aug[row][col]
                aug[row] = [
                    value ^ gf_mul(factor, aug[col][i])
                    for i, value in enumerate(aug[row])
                ]
    return [row[n:] for row in aug]


class ReedSolomon:
    """Systematic RS(k+m, k): shards 0..k-1 are the data itself."""

    def __init__(self, k: int, m: int) -> None:
        if k < 1 or m < 1 or k + m > 255:
            raise ValueError(f"invalid RS parameters k={k}, m={m}")
        self.k = k
        self.m = m
        # Systematic generator from a Vandermonde matrix: build V with
        # k+m distinct evaluation points and right-multiply by the inverse
        # of its top k x k block.  Any k rows of the result are invertible
        # (any k rows of V form a Vandermonde with distinct points), which
        # is the property decode relies on.
        vandermonde = [
            [gf_pow(x, j) for j in range(k)] for x in range(k + m)
        ]
        top_inverse = _invert([row[:] for row in vandermonde[:k]])
        generator = [
            [
                _dot(vandermonde[r], [top_inverse[t][c] for t in range(k)])
                for c in range(k)
            ]
            for r in range(k + m)
        ]
        self._parity_rows = generator[k:]

    # -- encode ------------------------------------------------------------

    def encode(self, data: bytes) -> List[bytes]:
        """Split ``data`` into k shards and append m parity shards."""
        shard_len = -(-len(data) // self.k)
        padded = data + b"\x00" * (shard_len * self.k - len(data))
        shards = [
            padded[i * shard_len : (i + 1) * shard_len] for i in range(self.k)
        ]
        parity = _mat_mul_vec(self._parity_rows, shards)
        return shards + [bytes(p) for p in parity]

    # -- decode ---------------------------------------------------------------

    def decode(
        self, shards: Sequence[Optional[bytes]], data_len: int
    ) -> bytes:
        """Reconstruct the original data from any k surviving shards.

        ``shards`` has k+m slots; missing shards are ``None``.
        """
        if len(shards) != self.k + self.m:
            raise ValueError(f"expected {self.k + self.m} shard slots")
        present = [i for i, s in enumerate(shards) if s is not None]
        if len(present) < self.k:
            raise ReproError(
                f"unrecoverable: only {len(present)} of {self.k} needed "
                "shards survive"
            )
        if all(shards[i] is not None for i in range(self.k)):
            return b"".join(shards[: self.k])[:data_len]

        # Build the k x k matrix mapping data shards -> the k chosen
        # surviving shards, invert it, and multiply.
        chosen = present[: self.k]
        rows = []
        for index in chosen:
            if index < self.k:
                rows.append(
                    [1 if j == index else 0 for j in range(self.k)]
                )
            else:
                rows.append(self._parity_rows[index - self.k][:])
        inverse = _invert(rows)
        survivors = [bytes(shards[i]) for i in chosen]
        data_shards = _mat_mul_vec(inverse, survivors)
        return b"".join(bytes(s) for s in data_shards)[:data_len]


# ----------------------------------------------------------------------- #
# EC volume over devices                                                   #
# ----------------------------------------------------------------------- #


@dataclass(frozen=True)
class _StripeLocation:
    lba: int
    shard_bytes: int
    data_len: int


class ECVolume:
    """Pages striped RS(k+m) across ``k + m`` devices.

    Storage overhead is (k+m)/k (1.5x for 4+2) versus 3x for replication;
    reads touch k devices, writes touch all k+m.  Small sub-stripe appends
    (redo!) would require read-modify-write of every parity shard — the
    reason §6 rules EC out for redo records.
    """

    def __init__(self, devices: Sequence, k: int = 4, m: int = 2) -> None:
        if len(devices) != k + m:
            raise ValueError(f"need {k + m} devices, got {len(devices)}")
        self.devices = list(devices)
        self.rs = ReedSolomon(k, m)
        self.k = k
        self.m = m
        self._locations: Dict[int, _StripeLocation] = {}
        self._cursor = 0
        self._failed: set = set()

    def fail_device(self, index: int) -> None:
        self._failed.add(index)

    def recover_device(self, index: int) -> None:
        self._failed.discard(index)

    def write_page(self, start_us: float, page_no: int, data: bytes) -> float:
        from repro.common.units import LBA_SIZE, align_up

        shards = self.rs.encode(data)
        shard_bytes = align_up(len(shards[0]), LBA_SIZE)
        lba = self._cursor
        self._cursor += shard_bytes // LBA_SIZE
        done = start_us
        for index, (device, shard) in enumerate(zip(self.devices, shards)):
            if index in self._failed:
                continue  # degraded write; rebuilt on recovery
            padded = shard + b"\x00" * (shard_bytes - len(shard))
            done = max(done, device.write(start_us, lba, padded).done_us)
        self._locations[page_no] = _StripeLocation(lba, shard_bytes, len(data))
        return done

    def read_page(self, start_us: float, page_no: int) -> "tuple[bytes, float]":
        location = self._locations.get(page_no)
        if location is None:
            raise ReproError(f"page {page_no} does not exist")
        shards: List[Optional[bytes]] = [None] * (self.k + self.m)
        done = start_us
        available = [
            i for i in range(self.k + self.m) if i not in self._failed
        ]
        if len(available) < self.k:
            raise ReproError("too many failed devices")
        # Prefer data shards (cheapest path), fall back to parity.
        for index in sorted(available, key=lambda i: (i >= self.k, i))[: self.k]:
            completion = self.devices[index].read(
                start_us, location.lba, location.shard_bytes
            )
            done = max(done, completion.done_us)
            shard_len = -(-location.data_len // self.k)
            shards[index] = completion.data[:shard_len]
        return self.rs.decode(shards, location.data_len), done

    @property
    def storage_overhead(self) -> float:
        return (self.k + self.m) / self.k
