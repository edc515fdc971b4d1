"""A process's first ``filter_seconds`` times filtering, not a library load.

The ramp filters resolve SciPy's pocketfft extension on first use
(:func:`repro.core.filtering._pocketfft`).  Every clock that reports filter
time resolves it before it starts: the ``filter`` span of
``filter_stack``, the streaming driver, a distributed rank's ``filter``
stage and a pilot worker's ``filter_seconds``.  Here the load is made to
take 50 ms, so a clock that still contains it reads at least that.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from repro.core import default_geometry_for_problem, filtering
from repro.core.types import ProjectionStack
from repro.pipeline import IFDKConfig, IFDKFramework
from repro.service import ReconstructionJob, process_dispatch
from repro.service.cache import CacheKey

LOAD_SECONDS = 0.05


@pytest.fixture
def slow_first_load(monkeypatch):
    """The next resolution of the transforms sleeps ``LOAD_SECONDS`` first."""
    load = filtering._load_pypocketfft

    def slow_load():
        time.sleep(LOAD_SECONDS)
        return load()

    filtering._pocketfft.cache_clear()
    monkeypatch.setattr(filtering, "_load_pypocketfft", slow_load)
    yield
    filtering._pocketfft.cache_clear()


def test_a_pilots_first_filter_seconds_exclude_the_load(slow_first_load, monkeypatch):
    monkeypatch.setattr(process_dispatch, "_RUNTIME", None)
    process_dispatch._pilot_init(
        str(process_dispatch.DEFAULT_PILOT_PROBLEM), "vectorized", None
    )
    job = ReconstructionJob("512x512x1024->256x256x256")
    result = process_dispatch._pilot_execute(
        {"cache_key": dataclasses.asdict(CacheKey.for_job(job))}
    )
    assert result["filter_seconds"] < LOAD_SECONDS


def test_a_ranks_first_filter_stage_excludes_the_load(slow_first_load):
    geometry = default_geometry_for_problem(nu=24, nv=24, np_=8, nx=16, ny=16, nz=16)
    stack = ProjectionStack(
        data=np.zeros((8, 24, 24), dtype=np.float32),
        angles=geometry.angles,
    )
    result = IFDKFramework(IFDKConfig(geometry=geometry, rows=2, columns=1)).reconstruct(stack)
    for rank in result.rank_results:
        assert rank.stage_seconds["filter"] < LOAD_SECONDS
