"""Hash-based packet-selection substrate.

Provides the Bob (Jenkins lookup3) hash used for sampling decisions,
interval algebra over the unit hash space, and canonical hash-key
extraction per aggregation level.
"""

from .bobhash import bob_hash, bob_hash_pair, hash_unit
from .keys import (
    Aggregation,
    RECORD_HASH_FIELDS,
    destination_key,
    flow_key,
    host_pair_key,
    key_for,
    key_hash_unit,
    session_key,
    source_key,
)
from .vectorized import (
    bob_hash_batch,
    hash_unit_batch,
    key_hash_unit_batch,
    pack_key_batch,
)
from .ranges import (
    EPSILON,
    HashRange,
    are_disjoint,
    union_length,
)

__all__ = [
    "Aggregation",
    "EPSILON",
    "HashRange",
    "RECORD_HASH_FIELDS",
    "are_disjoint",
    "bob_hash",
    "bob_hash_batch",
    "bob_hash_pair",
    "hash_unit_batch",
    "key_hash_unit_batch",
    "pack_key_batch",
    "destination_key",
    "flow_key",
    "hash_unit",
    "host_pair_key",
    "key_for",
    "key_hash_unit",
    "session_key",
    "source_key",
    "union_length",
]
