"""Persistence for historical graph indexes.

The paper's store is durable by virtue of Cassandra; the in-process
reproduction offers explicit save/load instead, so a built index (the
expensive part) can be reused across sessions and shipped with benchmark
results.

Format: a fixed binary header — magic bytes, the format version and a
BLAKE2b digest — followed by the pickled index.  The digest covers the
version and every payload byte, so a truncated or bit-flipped file
fails with a typed :class:`PersistenceError` instead of loading
silently wrong data.  Pickle is appropriate for the payload for the
same reason it was in the paper's prototype ("using Pickle ... for
serialization"): the library writes and reads its own files.  The
digest detects corruption, not tampering: do not load index files from
untrusted sources.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
from pathlib import Path
from typing import Union

from repro.errors import HGSError
from repro.index.interface import HistoricalGraphIndex

# 2: indexes carry the fetch-plan executor / delta-cache attributes
# (repro.exec); version-1 files lack them and would fail at query time
# 3: TGIConfig carries the `pipeline` toggle; version-2 files would fail
# on config access during pipelined execution
# 4: TGIConfig carries `delta_cache_bytes` / `checkpoint_entries` and the
# TGI a `checkpoints` attribute; version-3 files would fail on config
# access during checkpoint-aware planning (and silently predate the
# pipeline-default flip)
# 5: the TGI carries a `stats` GraphStatistics artifact (per-timespan
# partition/degree/cut summaries, event-rate histograms, apply-cost
# calibration) that planning, pricing and nearest-in-time checkpoint
# seeding read; version-4 files lack it and would plan with the
# degenerate whole-span bound while claiming stats-backed estimates
# 6: rows may carry the columnar eventlist codec (tags C/c) and
# TGIConfig the `apply_workers` lane count; version-5 files pickle-load
# but would decode columnar payloads written by a re-save incorrectly
# and fail on config access during parallel replay
# 7: TGIConfig carries the `coalesce` flag (cross-query fetch
# coalescing: single-flight key dedup + merged multiget rounds for
# batched execution); version-6 files would fail on config access when
# the session wires the executor's coalescing default
# 8: ClusterConfig carries the `checksums` flag and rows may be wrapped
# in the CRC32 envelope (tag K) it enables; version-7 files would fail
# on config access when the fault harness or CLI inspects the flag
# 9: the pickled envelope is replaced by a binary header carrying a
# BLAKE2b digest over the version and the pickled index; files in the
# pickled-envelope formats 1-8 fail typed, naming their format
_FORMAT_VERSION = 9

#: File header: magic bytes, big-endian u32 format version, digest.
_HEADER_MAGIC = b"HGS-INDEX\n"
_DIGEST_SIZE = 32
_VERSION = struct.Struct(">I")
_HEADER_SIZE = len(_HEADER_MAGIC) + _VERSION.size + _DIGEST_SIZE


class PersistenceError(HGSError):
    """Raised on malformed or incompatible index files."""


def _digest(version: bytes, payload: bytes) -> bytes:
    h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    h.update(version)
    h.update(payload)
    return h.digest()


def save_index(index: HistoricalGraphIndex, path: Union[str, Path]) -> None:
    """Serialize a built index (any of the six families) to ``path``."""
    payload = pickle.dumps(index, protocol=pickle.HIGHEST_PROTOCOL)
    version = _VERSION.pack(_FORMAT_VERSION)
    path = Path(path)
    with path.open("wb") as f:
        f.write(_HEADER_MAGIC)
        f.write(version)
        f.write(_digest(version, payload))
        f.write(payload)


def _legacy_format(path: Path, data: bytes) -> PersistenceError:
    """The error for a file without the binary header.  A pickled
    envelope (formats 1-8) is read only to name its format number."""
    envelope = None
    if data.startswith(b"\x80"):  # a pickle stream
        try:
            envelope = pickle.loads(data)
        except Exception:  # any garbage: reported as a foreign file
            envelope = None
    if isinstance(envelope, dict) and envelope.get("magic") == "hgs-index":
        return PersistenceError(
            f"unsupported index format {envelope.get('format')!r} "
            f"(this build reads version {_FORMAT_VERSION}); rebuild the "
            f"index"
        )
    return PersistenceError(f"{path} is not an HGS index file")


def load_index(path: Union[str, Path]) -> HistoricalGraphIndex:
    """Load an index previously written by :func:`save_index`.

    Every failure — unreadable, truncated, corrupted, foreign or
    old-format files, and any exception raised while unpickling — is
    raised as :class:`PersistenceError`."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise PersistenceError(f"cannot read index file {path}: {exc}") from exc
    if not data.startswith(_HEADER_MAGIC):
        raise _legacy_format(path, data)
    if len(data) < _HEADER_SIZE:
        raise PersistenceError(f"{path} is truncated (incomplete header)")
    version = data[len(_HEADER_MAGIC):_HEADER_SIZE - _DIGEST_SIZE]
    (fmt,) = _VERSION.unpack(version)
    if fmt != _FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported index format {fmt!r} "
            f"(this build reads version {_FORMAT_VERSION})"
        )
    digest = data[_HEADER_SIZE - _DIGEST_SIZE:_HEADER_SIZE]
    payload = memoryview(data)[_HEADER_SIZE:]
    if _digest(version, payload) != digest:
        raise PersistenceError(
            f"{path} is corrupt or truncated (digest mismatch)"
        )
    try:
        index = pickle.loads(payload)
    except Exception as exc:
        raise PersistenceError(
            f"cannot unpickle index file {path}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    if not isinstance(index, HistoricalGraphIndex):
        raise PersistenceError(f"{path} does not contain an index")
    return index
