"""Content-keyed LRU cache of filtered projections: key, statistics, policy, stores.

Filtering (weighting + ramp filtering, Algorithm 1) is a pure function of
the raw projection data and the filter window.  When several tenants request
reconstructions of the *same* acquisition — different output volumes,
different SLOs — every job after the first can skip the filtering stage
entirely and read the already-filtered projections back from the PFS.  In
the Eq. 17 overlap this removes the ``T_flt`` term from ``T_compute``.

The cache is **content-keyed**: the key combines a fingerprint of the raw
projection data (or the trace-supplied ``dataset_id``, which stands in for a
content hash in the simulated service) with the filter window, the
detector/stack shape and the acquisition-scenario token, so a re-uploaded
identical dataset hits and a modified one misses — and a short-scan job is
never served the full-scan filtering of the same dataset.  Eviction is LRU
by byte capacity, sized against the PFS scratch space reserved for the
cache.

:class:`FilteredProjectionCache` is the one cache: its LRU byte-budget
policy is written once, over one of two entry stores.  The memory store
(default) is all the scheduling simulation needs.  The directory store
(``directory=``, the service's ``cache_dir``) shares entries across
processes and restarts: a pilot filtered in worker process A is a hit for
worker B and for the service that comes back after a ``kill -9``.  Either
store keeps the filtered stack an ``insert(key, filtered=)`` hands it;
a size-only entry (``insert(key, nbytes=)``) misses in ``get_filtered``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
import weakref
import zipfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..core.types import ProjectionStack

__all__ = [
    "CacheKey",
    "CacheStatistics",
    "FilteredProjectionCache",
    "OnDiskFilteredCache",
    "fingerprint_stack",
]


def fingerprint_stack(stack: ProjectionStack) -> str:
    """Content hash of a raw projection stack (shape + dtype + data + angles).

    The dtype is part of the hash: two stacks whose buffers hold identical
    bytes under different dtypes (an ``int32`` array and its ``float32``
    reinterpretation, say) are different acquisitions and must never alias
    one filtered-cache entry.  Hashing the dtype was added after the fact,
    so fingerprints computed by earlier releases do not match the ones this
    function produces — persisted cache entries keyed by old fingerprints
    are cold after an upgrade (a one-time miss, never a wrong hit).
    """
    digest = hashlib.sha256()
    digest.update(repr(stack.data.shape).encode("ascii"))
    digest.update(str(stack.data.dtype).encode("ascii"))
    digest.update(np.ascontiguousarray(stack.data).tobytes())
    digest.update(str(stack.angles.dtype).encode("ascii"))
    digest.update(np.ascontiguousarray(stack.angles).tobytes())
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class CacheKey:
    """Identity of one filtered projection dataset.

    ``scenario`` is the acquisition-scenario cache token.  Filtered
    projections are a function of the raw data *and* the acquisition
    protocol — a short scan filters a different angular subset with
    different redundancy weights than the full scan of the same dataset —
    so the token is part of the key: a short-scan job can never be served
    the full-scan job's filtered projections (and vice versa).

    The non-dataset fields are exactly the *filtering identity* of a
    :class:`~repro.api.ReconstructionPlan`: :attr:`filter_key` hashes them
    through the same :func:`~repro.api.filter_cache_identity` function the
    plan layer uses, so ``CacheKey.from_plan(plan, ds).filter_key ==
    plan.filter_key()`` by construction — the plan's canonical key drives
    the cache, and fields that cannot change the filtered projections
    (``workers``, ``backend``, ``target``, output extent, QoS) can never
    split or alias a cache entry.
    """

    dataset_id: str
    ramp_filter: str
    nu: int
    nv: int
    np_: int
    scenario: str = "full"
    # Acquisition-physics token (repro.api.acquisition_token).  "" means
    # "implied by dataset_id": trace jobs carry only a problem shape, so
    # their physics identity rides on the dataset content key, exactly as
    # in the seed cache.  Plan-derived keys always carry the real token.
    acquisition: str = ""

    def __post_init__(self) -> None:
        # Hashed once, since the scheduler's cache peeks hash the key on
        # every evaluation of a waiting job.  String hashes differ between
        # processes, so the stored value never travels in a pickle: one
        # rebuilds the key (__reduce__), which hashes it anew.
        object.__setattr__(self, "_hash", hash((
            self.dataset_id, self.ramp_filter, self.nu, self.nv, self.np_,
            self.scenario, self.acquisition,
        )))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (type(self), (
            self.dataset_id, self.ramp_filter, self.nu, self.nv, self.np_,
            self.scenario, self.acquisition,
        ))

    @classmethod
    def for_job(cls, job) -> "CacheKey":
        """Key of the filtered projections a job consumes.

        The scenario token comes straight from
        :func:`repro.scenarios.cache_token_for` — the canonical (and only)
        scenario cache-identity function: registered presets resolve to
        their :attr:`~repro.scenarios.AcquisitionScenario.cache_token`,
        unregistered names are used verbatim.  Jobs of one identity
        (dataset, filter, detector shape, scenario *name*, acquisition)
        share one key, built by the first of them.
        """
        problem = job.problem
        scenario = getattr(job, "scenario", "full_scan")
        acquisition = getattr(job, "acquisition", "")
        identity = (
            job.dataset_id, job.ramp_filter, problem.nu, problem.nv, problem.np_,
            scenario, acquisition,
        )
        key = _BY_IDENTITY.get(identity)
        if key is None:
            from ..scenarios import scenario as scenarios  # late: scenarios import core

            scenarios._on_register[__name__] = _BY_IDENTITY.clear
            key = cls(
                dataset_id=job.dataset_id,
                ramp_filter=job.ramp_filter,
                nu=problem.nu,
                nv=problem.nv,
                np_=problem.np_,
                scenario=scenarios.cache_token_for(scenario),
                acquisition=acquisition,
            )
            _BY_IDENTITY[identity] = key
        return key

    @classmethod
    def from_plan(cls, plan, dataset_id: str) -> "CacheKey":
        """Key of the filtered projections a plan's execution consumes."""
        identity = plan.filter_identity()
        return cls(
            dataset_id=dataset_id,
            ramp_filter=identity["ramp_filter"],
            nu=identity["nu"],
            nv=identity["nv"],
            np_=identity["np_"],
            scenario=identity["scenario"],
            acquisition=identity["acquisition"],
        )

    @property
    def filter_key(self) -> str:
        """The plan-layer filtering-identity hash of this key's fields."""
        from ..api.plan import filter_cache_identity  # late: api imports service

        return filter_cache_identity(
            ramp_filter=self.ramp_filter,
            nu=self.nu,
            nv=self.nv,
            np_=self.np_,
            scenario=self.scenario,
            acquisition=self.acquisition,
        )

    @property
    def tag(self) -> str:
        """Name of this key's cache entry: a hash of dataset and filtering identity."""
        return hashlib.sha256(
            f"{self.dataset_id}|{self.filter_key}".encode("utf-8")
        ).hexdigest()[:16]


#: Keys built by :meth:`CacheKey.for_job`, by the job's raw identity (scenario
#: name, not token): a job whose identity was seen before resolves no token and
#: builds no key, and a 3000-job trace that names a few dozen datasets holds a
#: few dozen keys, not one per job (+0.5 MiB of peak RSS).  Weak, so the memo
#: never outlives its jobs; emptied by every scenario registration, which may
#: give a name another token.
_BY_IDENTITY: "weakref.WeakValueDictionary[tuple, CacheKey]" = weakref.WeakValueDictionary()


@dataclass
class CacheStatistics:
    """Hit/miss accounting of one cache instance."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class FilteredProjectionCache:
    """LRU cache of filtered projection datasets, capacity-bounded in bytes.

    ``stats`` count this instance's own lookups; entries under a
    ``directory`` are shared by every instance on it.
    """

    def __init__(self, capacity_bytes: int = 256 * 1024**3, *, directory=None):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self.stats = CacheStatistics()
        self._store = _MemoryStore() if directory is None else _DirectoryStore(directory)
        self._lock = threading.Lock()  # one insert's check, write and eviction at a time

    # ------------------------------------------------------------------ #
    @property
    def used_bytes(self) -> int:
        return self._store.used_bytes()

    def __len__(self) -> int:
        return sum(1 for _ in self._store.oldest_first())

    def contains(self, key: CacheKey) -> bool:
        """Peek without touching LRU order or hit/miss statistics.

        The scheduler calls this while *planning* (it may evaluate the same
        job many times before placing it); only the definitive
        :meth:`lookup` at placement time is counted.
        """
        return self._store.get(key) is not None

    def lookup(self, key: CacheKey) -> bool:
        """Counted lookup: touches LRU order and records a hit or miss."""
        return self._counted(key, self._store.get(key)) is not None

    def get_filtered(self, key: CacheKey) -> Optional[ProjectionStack]:
        """Counted read of the filtered stack; a size-only entry misses here."""
        return self._counted(key, self._store.payload(key))

    def _counted(self, key: CacheKey, found):
        """Record a miss, or a hit that refreshes recency; pass ``found`` on."""
        if found is None:
            self.stats.misses += 1
        else:
            self._store.touch(key)
            self.stats.hits += 1
        return found

    def insert(
        self,
        key: CacheKey,
        *,
        nbytes: Optional[int] = None,
        filtered: Optional[ProjectionStack] = None,
    ) -> None:
        """Add (or refresh) an entry; it holds the stack when one is given."""
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
        with self._lock:
            if self._store.get(key) is None:
                self.stats.insertions += 1
            written = self._store.put(key, nbytes, filtered)
            used = self._store.used_bytes()
            if used <= self.capacity_bytes:
                return
            victims = []
            for name, size in self._store.oldest_first():
                if used <= self.capacity_bytes:
                    break
                if name != written:  # never evict the entry just written
                    victims.append(name)
                    used -= size
            for name in victims:
                self._store.delete(name)
            self.stats.evictions += len(victims)


class OnDiskFilteredCache(FilteredProjectionCache):
    """``FilteredProjectionCache(capacity_bytes, directory=cache_dir)`` by its older name."""

    def __init__(self, cache_dir, capacity_bytes: int = 256 * 1024**3):
        super().__init__(capacity_bytes, directory=cache_dir)


# Entry stores.  Both answer ``get`` (the entry, None when absent), ``touch``,
# ``put`` (returns the entry's name), ``payload``, ``oldest_first`` (an
# iterable of ``(name, nbytes)``), ``delete(name)`` and ``used_bytes``.
@dataclass
class _Entry:
    nbytes: int
    filtered: Optional[ProjectionStack] = None


class _MemoryStore:
    """Entries oldest first, keyed by the :class:`CacheKey` object — never by
    its ``tag``, a hash ~30x the cost of a dict probe on the scheduler's
    hottest call — with a running byte total, so inserts never re-sum."""

    def __init__(self) -> None:
        self._entries: "OrderedDict[CacheKey, _Entry]" = OrderedDict()
        self._used_bytes = 0
        # The scheduler's hot calls go straight to the dict's C methods.
        self.get = self._entries.get
        self.touch = self._entries.move_to_end

    def used_bytes(self) -> int:
        return self._used_bytes

    def put(self, key: CacheKey, nbytes: int, filtered: Optional[ProjectionStack]) -> CacheKey:
        entry = self._entries.get(key)
        if entry is None:
            self._entries[key] = entry = _Entry(0)
        else:
            self._entries.move_to_end(key)  # a refresh makes it the newest
        self._used_bytes += nbytes - entry.nbytes
        entry.nbytes = nbytes
        if filtered is not None:
            entry.filtered = filtered
        return key

    def payload(self, key: CacheKey) -> Optional[ProjectionStack]:
        entry = self._entries.get(key)
        return None if entry is None else entry.filtered

    def oldest_first(self) -> Iterator[Tuple[CacheKey, int]]:
        return ((key, entry.nbytes) for key, entry in self._entries.items())

    def delete(self, key: CacheKey) -> None:
        self._used_bytes -= self._entries.pop(key).nbytes


_META_SUFFIX = ".meta.json"
_PAYLOAD_SUFFIX = ".npz"
#: What ``np.load`` raised across a flip of every byte, and a cut at every
#: length, of a cached ``.npz``: each one is a damaged payload, i.e. a miss.
_DAMAGED_PAYLOAD = (EOFError, KeyError, NotImplementedError, OSError, ValueError,
                    zipfile.BadZipFile)


class _DirectoryStore:
    """``<tag>.meta.json`` (key fields, byte size, payload flag) plus, with a
    payload, ``<tag>.npz`` per entry, ``tag`` being :attr:`CacheKey.tag`.

    The meta file's mtime is the recency clock; writes go through a temp
    file and ``os.replace``.  An unreadable meta file is an absent entry and
    a damaged payload a miss: races and stray or corrupt files cost a
    refilter, never an error.
    """

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, tag: str, suffix: str) -> Path:
        return self.directory / (tag + suffix)

    def _meta(self, tag: str) -> Optional[dict]:
        """The meta record; None unless a UTF-8 JSON object with an int ``nbytes`` >= 0."""
        try:
            meta = json.loads(self._path(tag, _META_SUFFIX).read_text(encoding="utf-8"))
        except (OSError, ValueError):  # UnicodeDecodeError and JSONDecodeError are ValueErrors
            return None
        nbytes = meta.get("nbytes") if isinstance(meta, dict) else None
        valid = isinstance(nbytes, int) and not isinstance(nbytes, bool) and nbytes >= 0
        return meta if valid else None

    def _write(self, path: Path, write) -> None:
        # Through an open handle: ``np.savez`` appends ``.npz`` to a bare
        # *filename*, which would orphan the temp file.
        tmp = path.with_name(path.name + f".tmp-{os.getpid()}-{threading.get_ident()}")
        try:
            with tmp.open("wb") as handle:
                write(handle)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def used_bytes(self) -> int:
        return sum(nbytes for _, nbytes in self.oldest_first())

    def get(self, key: CacheKey) -> Optional[dict]:
        return self._meta(key.tag)

    def touch(self, key: CacheKey) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.utime(self._path(key.tag, _META_SUFFIX))

    def put(self, key: CacheKey, nbytes: int, filtered: Optional[ProjectionStack]) -> str:
        tag = key.tag
        existing = self._meta(tag)
        if filtered is not None:
            self._write(self._path(tag, _PAYLOAD_SUFFIX),
                        lambda out: np.savez(out, data=filtered.data, angles=filtered.angles))
        meta = {
            "dataset_id": key.dataset_id,
            "filter_key": key.filter_key,
            "nbytes": nbytes,
            "payload": filtered is not None or bool(existing and existing.get("payload")),
        }
        self._write(self._path(tag, _META_SUFFIX),
                    lambda out: out.write(json.dumps(meta, sort_keys=True).encode("utf-8")))
        return tag

    def payload(self, key: CacheKey) -> Optional[ProjectionStack]:
        tag = key.tag
        meta = self._meta(tag)
        if meta is None or not meta.get("payload"):
            return None
        try:
            with np.load(self._path(tag, _PAYLOAD_SUFFIX)) as archive:
                return ProjectionStack(archive["data"], archive["angles"], filtered=True)
        except _DAMAGED_PAYLOAD:
            return None  # evicted, torn or damaged between meta read and load

    def oldest_first(self) -> List[Tuple[str, int]]:
        rows = []
        for meta_path in self.directory.glob("*" + _META_SUFFIX):
            tag = meta_path.name[: -len(_META_SUFFIX)]
            meta = self._meta(tag)
            if meta is not None:
                with contextlib.suppress(OSError):  # evicted since the read
                    rows.append((meta_path.stat().st_mtime, tag, meta["nbytes"]))
        rows.sort(key=lambda row: row[0])
        return [(tag, nbytes) for _, tag, nbytes in rows]

    def delete(self, tag: str) -> None:
        for suffix in (_META_SUFFIX, _PAYLOAD_SUFFIX):
            self._path(tag, suffix).unlink(missing_ok=True)
