"""Content-keyed LRU cache of filtered projections: key, statistics, byte index.

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

:class:`FilteredProjectionCache` is the in-process index: it tracks which
datasets are resident and how many bytes they hold, which is all the
scheduling simulation needs.  Filtered stacks themselves are stored and
served only by :class:`~repro.service.diskcache.OnDiskFilteredCache`, the
shared-directory implementation of the same duck-typed surface; both name
an entry by :attr:`CacheKey.tag`, defined once here.
"""

from __future__ import annotations

import hashlib
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..core.types import ProjectionStack

__all__ = [
    "CacheKey",
    "CacheStatistics",
    "FilteredProjectionCache",
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

    @classmethod
    def for_job(cls, job) -> "CacheKey":
        """Key of the filtered projections a job consumes.

        The scenario token comes straight from
        :func:`repro.scenarios.cache_token_for` — the canonical (and only)
        scenario cache-identity function: registered presets resolve to
        their :attr:`~repro.scenarios.AcquisitionScenario.cache_token`,
        unregistered names are used verbatim.
        """
        from ..scenarios import cache_token_for  # late import: scenarios import core

        problem = job.problem
        key = cls(
            dataset_id=job.dataset_id,
            ramp_filter=job.ramp_filter,
            nu=problem.nu,
            nv=problem.nv,
            np_=problem.np_,
            scenario=cache_token_for(getattr(job, "scenario", "full_scan")),
            acquisition=getattr(job, "acquisition", ""),
        )
        return _INTERNED.setdefault(key, key)

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


#: Equal keys built by :meth:`CacheKey.for_job` are one object while any job
#: holds it: a 3000-job trace names a few dozen datasets, and a key per job was
#: +0.5 MiB of peak RSS.  Weak, so the pool never outlives its jobs.
_INTERNED: "weakref.WeakValueDictionary[CacheKey, CacheKey]" = weakref.WeakValueDictionary()


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


@dataclass
class _Entry:
    nbytes: int


class FilteredProjectionCache:
    """LRU index of filtered projection datasets, capacity-bounded in bytes."""

    def __init__(self, capacity_bytes: int = 256 * 1024**3):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self.stats = CacheStatistics()
        self._entries: "OrderedDict[CacheKey, _Entry]" = OrderedDict()
        # Running byte total, maintained on every insert/refresh/eviction:
        # eviction must not re-sum the whole table per evicted entry
        # (O(n^2) on a full cache), and used_bytes stays O(1).
        self._used_bytes = 0

    # ------------------------------------------------------------------ #
    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def contains(self, key: CacheKey) -> bool:
        """Peek without touching LRU order or hit/miss statistics.

        The scheduler calls this while *planning* (it may evaluate the same
        job many times before placing it); only the definitive
        :meth:`lookup` at placement time is counted.
        """
        return key in self._entries

    # ------------------------------------------------------------------ #
    def lookup(self, key: CacheKey) -> bool:
        """Counted lookup: touches LRU order and records a hit or miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return False
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return True

    def insert(self, key: CacheKey, *, nbytes: int) -> None:
        """Add (or refresh) a filtered dataset of ``nbytes`` bytes."""
        if nbytes > self.capacity_bytes:
            raise ValueError(
                f"cannot cache a {nbytes}-byte filtered dataset: it exceeds "
                f"the cache capacity of {self.capacity_bytes} bytes (no "
                "amount of eviction can make it fit)"
            )
        if key in self._entries:
            self._entries.move_to_end(key)
            entry = self._entries[key]
            self._used_bytes += nbytes - entry.nbytes
            entry.nbytes = nbytes
        else:
            self._entries[key] = _Entry(nbytes=nbytes)
            self._used_bytes += nbytes
            self.stats.insertions += 1
        self._evict_over_capacity()

    # ------------------------------------------------------------------ #
    def _evict_over_capacity(self) -> None:
        # Evict down to empty if that is what it takes: the old
        # ``len(self._entries) > 1`` guard left a single over-budget entry
        # resident forever (oversize inserts are now rejected up front, but
        # a refresh shrinking the budget headroom must still converge).
        while self._used_bytes > self.capacity_bytes and self._entries:
            _, entry = self._entries.popitem(last=False)
            self._used_bytes -= entry.nbytes
            self.stats.evictions += 1
