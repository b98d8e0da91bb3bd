"""Value-database substrate (Redis substitute)."""

from .serialization import decode_array, encode_array, encoded_nbytes
from .store import ArrayStore, KVStats, KVStore

__all__ = [
    "ArrayStore",
    "decode_array",
    "encode_array",
    "encoded_nbytes",
    "KVStats",
    "KVStore",
]
