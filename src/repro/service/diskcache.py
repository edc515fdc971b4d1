"""Shared on-disk LRU cache of filtered projections.

The in-memory :class:`~repro.service.cache.FilteredProjectionCache` models
the PFS scratch reservation inside one process, by byte size only.  Real
serving needs the same thing *across* processes and restarts, and needs
the filtered stacks themselves — this is the only cache that stores and
serves payloads: a pilot filtered in worker
process A must be a cache hit for worker process B, and for the service
that comes back after a ``kill -9``.  :class:`OnDiskFilteredCache` provides
that as plain files under a cache directory — no daemon, no new deps:

* one ``<tag>.meta.json`` per entry (key fields + byte size + whether a
  payload is present), where ``tag`` is :attr:`CacheKey.tag
  <repro.service.cache.CacheKey.tag>` — the entry name is defined once, on
  the key;
* one ``<tag>.npz`` holding the filtered stack (data + angles) when the
  entry carries a real payload;
* **mtime is the LRU clock**: every hit touches the meta file, and
  eviction removes the oldest-mtime entries until the recorded byte sizes
  fit the capacity — the same byte-budget LRU semantics as in memory,
  except the recency order is durable and shared;
* writes are atomic (temp file + ``os.replace``), and every read tolerates
  a concurrently evicted entry by degrading to a miss — cross-process
  races cost a refilter, never corruption.

Like the in-memory cache, an entry larger than the whole capacity is
rejected up front with ``ValueError`` — no amount of eviction can make it
fit, and accepting it would immediately evict the entire cache.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from ..core.types import ProjectionStack
from .cache import CacheKey, CacheStatistics

__all__ = ["OnDiskFilteredCache"]

_META_SUFFIX = ".meta.json"
_PAYLOAD_SUFFIX = ".npz"


class OnDiskFilteredCache:
    """File-backed filtered-projection cache shared across processes.

    Duck-types the :class:`~repro.service.cache.FilteredProjectionCache`
    surface the scheduler and service use (``contains`` / ``lookup`` /
    ``insert(key, nbytes=)`` / ``used_bytes`` / ``stats``), so either can be
    plugged into :class:`~repro.service.service.ReconstructionService`;
    ``insert(key, filtered=)`` and ``get_filtered`` — the payload side the
    pilot workers use — exist only here.
    ``stats`` are process-local (each process counts its own hits and
    misses); the *entries* are shared.
    """

    def __init__(self, cache_dir, capacity_bytes: int = 256 * 1024**3):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.capacity_bytes = int(capacity_bytes)
        self.stats = CacheStatistics()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def _meta_path(self, tag: str) -> Path:
        return self.cache_dir / (tag + _META_SUFFIX)

    def _payload_path(self, tag: str) -> Path:
        return self.cache_dir / (tag + _PAYLOAD_SUFFIX)

    def _read_meta(self, tag: str) -> Optional[dict]:
        try:
            return json.loads(self._meta_path(tag).read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError):
            # Concurrently evicted or mid-replace: a miss, never an error.
            return None

    def _entries(self) -> List[Tuple[float, str, dict]]:
        """Every committed entry as ``(mtime, tag, meta)``, oldest first."""
        rows: List[Tuple[float, str, dict]] = []
        for meta_path in self.cache_dir.glob("*" + _META_SUFFIX):
            tag = meta_path.name[: -len(_META_SUFFIX)]
            meta = self._read_meta(tag)
            if meta is None:
                continue
            try:
                mtime = meta_path.stat().st_mtime
            except FileNotFoundError:
                continue
            rows.append((mtime, tag, meta))
        rows.sort(key=lambda row: row[0])
        return rows

    def _atomic_write(self, path: Path, writer) -> None:
        tmp = path.with_name(path.name + f".tmp-{os.getpid()}-{threading.get_ident()}")
        try:
            writer(tmp)
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink()

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries())

    def __contains__(self, key: CacheKey) -> bool:
        return self.contains(key)

    def contains(self, key: CacheKey) -> bool:
        """Peek without touching LRU order or hit/miss statistics."""
        return self._read_meta(key.tag) is not None

    @property
    def used_bytes(self) -> int:
        return sum(int(meta.get("nbytes", 0)) for _, _, meta in self._entries())

    # ------------------------------------------------------------------ #
    def lookup(self, key: CacheKey) -> bool:
        """Counted lookup: refreshes the entry's LRU recency on a hit."""
        tag = key.tag
        meta = self._read_meta(tag)
        if meta is None:
            self.stats.misses += 1
            return False
        self._touch(tag)
        self.stats.hits += 1
        return True

    def _touch(self, tag: str) -> None:
        try:
            os.utime(self._meta_path(tag))
        except FileNotFoundError:
            pass

    def insert(
        self,
        key: CacheKey,
        *,
        nbytes: Optional[int] = None,
        filtered: Optional[ProjectionStack] = None,
    ) -> None:
        """Add (or refresh) an entry; payload written when a stack is given."""
        if filtered is not None:
            nbytes = filtered.nbytes
        if nbytes is None:
            raise ValueError("insert needs either nbytes or a filtered stack")
        nbytes = int(nbytes)
        if nbytes > self.capacity_bytes:
            raise ValueError(
                f"cannot cache a {nbytes}-byte filtered dataset: it exceeds "
                f"the cache capacity of {self.capacity_bytes} bytes (no "
                "amount of eviction can make it fit)"
            )
        tag = key.tag
        with self._lock:
            existing = self._read_meta(tag)
            if filtered is not None:
                # Write through an open handle: ``np.savez`` appends ``.npz``
                # to a bare *filename*, which would orphan the temp file.
                def _write_payload(tmp: Path) -> None:
                    with tmp.open("wb") as handle:
                        np.savez(handle, data=filtered.data, angles=filtered.angles)

                self._atomic_write(self._payload_path(tag), _write_payload)
            has_payload = bool(
                (filtered is not None)
                or (existing is not None and existing.get("payload"))
            )
            meta = {
                "dataset_id": key.dataset_id,
                "filter_key": key.filter_key,
                "nbytes": nbytes,
                "payload": has_payload,
            }
            self._atomic_write(
                self._meta_path(tag),
                lambda tmp: tmp.write_text(
                    json.dumps(meta, sort_keys=True), encoding="utf-8"
                ),
            )
            if existing is None:
                self.stats.insertions += 1
            self._evict_over_capacity(keep_tag=tag)

    def get_filtered(self, key: CacheKey, *, count: bool = True) -> Optional[ProjectionStack]:
        """Read the filtered stack back; size-only entries miss here."""
        tag = key.tag
        meta = self._read_meta(tag)
        usable = meta is not None and meta.get("payload")
        stack: Optional[ProjectionStack] = None
        if usable:
            try:
                with np.load(self._payload_path(tag)) as archive:
                    stack = ProjectionStack(
                        data=archive["data"],
                        angles=archive["angles"],
                        filtered=True,
                    )
                self._touch(tag)
            except (FileNotFoundError, KeyError, ValueError, OSError):
                stack = None  # evicted or torn between meta read and load
        if count:
            if stack is not None:
                self.stats.hits += 1
            else:
                self.stats.misses += 1
        return stack

    # ------------------------------------------------------------------ #
    def _evict_over_capacity(self, keep_tag: Optional[str] = None) -> None:
        entries = self._entries()
        used = sum(int(meta.get("nbytes", 0)) for _, _, meta in entries)
        for _, tag, meta in entries:
            if used <= self.capacity_bytes:
                break
            if tag == keep_tag:
                continue  # never evict the entry just inserted
            self._delete(tag)
            used -= int(meta.get("nbytes", 0))
            self.stats.evictions += 1

    def _delete(self, tag: str) -> None:
        for path in (self._meta_path(tag), self._payload_path(tag)):
            try:
                path.unlink()
            except FileNotFoundError:
                pass
