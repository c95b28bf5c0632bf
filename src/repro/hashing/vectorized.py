"""NumPy-vectorized Bob hash and key packing for batch dispatch.

The Fig. 3 decision procedure hashes one 5-tuple key per (module,
packet).  At network-wide emulation scale (100k sessions, every session
checked at every node on its path) the pure-Python ``hashlittle`` in
:mod:`repro.hashing.bobhash` dominates the run.  This module computes
the same digests over *arrays* of keys with NumPy:

``bob_hash_batch(keys, initval)``
    Row-wise lookup3 ``hashlittle`` over an ``(N, L)`` uint8 key
    matrix, bit-for-bit identical to :func:`repro.hashing.bobhash.bob_hash`
    applied to each row.
``hash_unit_batch(keys, initval)``
    The digests mapped to ``[0, 1)`` floats exactly as
    :func:`repro.hashing.bobhash.hash_unit` does.
``pack_key_batch(aggregation, ...)``
    Vectorized equivalent of :func:`repro.hashing.keys.key_for`: packs
    5-tuple field arrays into the canonical key matrix for one
    aggregation (all keys of an aggregation share one length, which is
    what makes row-wise vectorization exact).
``key_hash_unit_batch(aggregation, ...)``
    ``HASH(pkt, i)`` over field arrays — the batch form of
    :func:`repro.hashing.keys.key_hash_unit`.

Vectorization preserves lookup3's wrapping 32-bit arithmetic by doing
all mixing on ``uint32`` arrays (NumPy unsigned arithmetic wraps mod
2**32, matching the scalar implementation's explicit masking).
"""

from __future__ import annotations

import numpy as np

from .keys import (
    _TAG_DESTINATION,
    _TAG_FLOW,
    _TAG_HOST_PAIR,
    _TAG_SESSION,
    _TAG_SOURCE,
    Aggregation,
)

_MASK = 0xFFFFFFFF
_U32 = np.uint32


def _rot(x: np.ndarray, k: int) -> np.ndarray:
    """Rotate each 32-bit lane of *x* left by *k* bits."""
    return (x << _U32(k)) | (x >> _U32(32 - k))


def _mix(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Vector lookup3 mix() — same schedule as the scalar version."""
    a = a - c
    a ^= _rot(c, 4)
    c = c + b
    b = b - a
    b ^= _rot(a, 6)
    a = a + c
    c = c - b
    c ^= _rot(b, 8)
    b = b + a
    a = a - c
    a ^= _rot(c, 16)
    c = c + b
    b = b - a
    b ^= _rot(a, 19)
    a = a + c
    c = c - b
    c ^= _rot(b, 4)
    b = b + a
    return a, b, c


def _final(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Vector lookup3 final() — returns the c lanes."""
    c = c ^ b
    c = c - _rot(b, 14)
    a ^= c
    a = a - _rot(c, 11)
    b ^= a
    b = b - _rot(a, 25)
    c ^= b
    c = c - _rot(b, 16)
    a ^= c
    a = a - _rot(c, 4)
    b ^= a
    b = b - _rot(a, 14)
    c ^= b
    c = c - _rot(b, 24)
    return c


def _word(keys: np.ndarray, offset: int, nbytes: int) -> np.ndarray:
    """Little-endian load of up to 4 bytes per row starting at *offset*."""
    word = keys[:, offset].astype(_U32)
    for i in range(1, nbytes):
        word |= keys[:, offset + i].astype(_U32) << _U32(8 * i)
    return word


def bob_hash_batch(keys: np.ndarray, initval: int = 0) -> np.ndarray:
    """Row-wise 32-bit lookup3 ``hashlittle`` digests of a key matrix.

    *keys* is an ``(N, L)`` uint8 array; every row is hashed as an
    ``L``-byte string.  Returns an ``(N,)`` uint32 array equal
    element-wise to ``[bob_hash(bytes(row), initval) for row in keys]``.
    """
    keys = np.ascontiguousarray(keys, dtype=np.uint8)
    if keys.ndim != 2:
        raise ValueError("bob_hash_batch() requires an (N, L) key matrix")
    n, length = keys.shape
    init = _U32((0xDEADBEEF + length + initval) & _MASK)
    a = np.full(n, init, dtype=_U32)
    b = a.copy()
    c = a.copy()

    offset = 0
    remaining = length
    while remaining > 12:
        a = a + _word(keys, offset, 4)
        b = b + _word(keys, offset + 4, 4)
        c = c + _word(keys, offset + 8, 4)
        a, b, c = _mix(a, b, c)
        offset += 12
        remaining -= 12

    if remaining == 0:
        # Matches lookup3's "case 0: return c" — final() is skipped.
        return c

    a = a + _word(keys, offset, min(4, remaining))
    if remaining > 4:
        b = b + _word(keys, offset + 4, min(4, remaining - 4))
    if remaining > 8:
        c = c + _word(keys, offset + 8, remaining - 8)
    return _final(a, b, c)


def hash_unit_batch(keys: np.ndarray, initval: int = 0) -> np.ndarray:
    """Row-wise digests mapped to ``[0, 1)`` floats.

    Division by 2**32 in float64 is exact for 32-bit integers, so the
    results match :func:`repro.hashing.bobhash.hash_unit` bit for bit.
    """
    return bob_hash_batch(keys, initval).astype(np.float64) / 4294967296.0


def _be_columns(values: np.ndarray, dtype: str) -> np.ndarray:
    """Big-endian byte columns of *values* (one row per element)."""
    packed = np.ascontiguousarray(values.astype(dtype))
    return packed.view(np.uint8).reshape(len(values), packed.dtype.itemsize)


def pack_key_batch(
    aggregation: Aggregation,
    src: np.ndarray,
    dst: np.ndarray,
    sport: np.ndarray,
    dport: np.ndarray,
    proto: np.ndarray,
) -> np.ndarray:
    """Pack 5-tuple field arrays into the aggregation's key matrix.

    Row ``i`` equals ``key_for(aggregation, src[i], dst[i], sport[i],
    dport[i], proto[i])`` byte for byte, including the session key's
    endpoint orientation and the host pair's unordered canonicalization.
    """
    src = np.asarray(src, dtype=np.uint64)
    dst = np.asarray(dst, dtype=np.uint64)
    n = len(src)

    if aggregation is Aggregation.SOURCE:
        matrix = np.empty((n, 9), dtype=np.uint8)
        matrix[:, 0] = _TAG_SOURCE
        matrix[:, 1:9] = _be_columns(src, ">u8")
        return matrix
    if aggregation is Aggregation.DESTINATION:
        matrix = np.empty((n, 9), dtype=np.uint8)
        matrix[:, 0] = _TAG_DESTINATION
        matrix[:, 1:9] = _be_columns(dst, ">u8")
        return matrix
    if aggregation is Aggregation.HOST_PAIR:
        matrix = np.empty((n, 17), dtype=np.uint8)
        matrix[:, 0] = _TAG_HOST_PAIR
        matrix[:, 1:9] = _be_columns(np.minimum(src, dst), ">u8")
        matrix[:, 9:17] = _be_columns(np.maximum(src, dst), ">u8")
        return matrix

    sport = np.asarray(sport, dtype=np.uint64)
    dport = np.asarray(dport, dtype=np.uint64)
    if aggregation is Aggregation.SESSION:
        # Orient so the numerically smaller (addr, port) endpoint comes
        # first — the scalar session_key's bidirectional canonical form.
        # The scalar compares *raw* port values and masks only when
        # packing, so the swap must happen before masking.
        swap = (src > dst) | ((src == dst) & (sport > dport))
        src, dst = np.where(swap, dst, src), np.where(swap, src, dst)
        sport, dport = np.where(swap, dport, sport), np.where(swap, sport, dport)
        tag = _TAG_SESSION
    elif aggregation is Aggregation.FLOW:
        tag = _TAG_FLOW
    else:
        raise ValueError(f"unknown aggregation {aggregation!r}")

    matrix = np.empty((n, 22), dtype=np.uint8)
    matrix[:, 0] = tag
    matrix[:, 1:9] = _be_columns(src, ">u8")
    matrix[:, 9:17] = _be_columns(dst, ">u8")
    matrix[:, 17:19] = _be_columns(sport & np.uint64(0xFFFF), ">u2")
    matrix[:, 19:21] = _be_columns(dport & np.uint64(0xFFFF), ">u2")
    matrix[:, 21] = (np.asarray(proto, dtype=np.uint64) & np.uint64(0xFF)).astype(
        np.uint8
    )
    return matrix


def key_hash_unit_batch(
    aggregation: Aggregation,
    src: np.ndarray,
    dst: np.ndarray,
    sport: np.ndarray,
    dport: np.ndarray,
    proto: np.ndarray,
    seed: int = 0,
) -> np.ndarray:
    """Batch ``HASH(pkt, i)``: field arrays to ``[0, 1)`` hash values."""
    return hash_unit_batch(pack_key_batch(aggregation, src, dst, sport, dport, proto), seed)
