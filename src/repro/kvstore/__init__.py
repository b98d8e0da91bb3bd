"""Value-database substrate (Redis substitute)."""

from .serialization import decode_array, encode_array, encoded_nbytes
from .store import KVStats, KVStore

__all__ = [
    "decode_array",
    "encode_array",
    "encoded_nbytes",
    "KVStats",
    "KVStore",
]
