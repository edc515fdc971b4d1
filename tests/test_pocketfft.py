"""The filters' transforms against ``scipy.fft``, byte for byte.

:func:`repro.core.filtering._pocketfft` calls SciPy's compiled
``pypocketfft`` directly, with ``scipy.fft``'s argument handling written out
for the calls the filters make.  Every call form is checked here at every
transform length the filters use, so a SciPy whose private layout or
argument handling moved fails here, not in a golden.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft

from repro.backends import get_backend
from repro.core import filtering
from repro.core.filtering import PYPOCKETFFT, _pocketfft, canonical_fft_length
from repro.obs import Tracer, use_tracer
from repro.streaming import StackChunkSource, StreamingReconstructor

#: Detector widths (``Nu``) of the tests, the goldens and perfbench, plus
#: odd ones.
WIDTHS = sorted({
    4, 6, 8, 10, 14, 16, 20, 24, 28, 32, 40, 48, 64, 96, 192, 320, 384, 512,
    1024, 2048,
    11, 19, 21, 37, 51, 77, 101, 255, 333,
})


def _lengths():
    """Every pad the filters transform at: canonical and shortest, per ``Nu``."""
    pads = set()
    for nu in WIDTHS:
        pads.add(canonical_fft_length(nu))
        pads.add(scipy.fft.next_fast_len(2 * nu - 1, real=True))
    return sorted(pads)


LENGTHS = _lengths()


def _same(ours: np.ndarray, theirs: np.ndarray) -> None:
    assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()


@pytest.fixture(scope="module")
def fft():
    return _pocketfft()


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0)


@pytest.mark.parametrize("nu", WIDTHS)
def test_next_fast_len(fft, nu):
    assert fft.next_fast_len(2 * nu - 1, real=True) == scipy.fft.next_fast_len(
        2 * nu - 1, real=True
    )


@pytest.mark.parametrize("pad", LENGTHS)
class TestCallForms:
    def test_rfft_float32(self, fft, rng, pad):
        rows = rng.standard_normal((3, pad)).astype(np.float32)
        _same(fft.rfft(rows), scipy.fft.rfft(rows, axis=-1))

    def test_irfft_complex64(self, fft, rng, pad):
        half = rng.standard_normal((3, pad // 2 + 1, 2)).astype(np.float32)
        spectrum = half.view(np.complex64)[..., 0]
        _same(fft.irfft(spectrum, n=pad), scipy.fft.irfft(spectrum, n=pad, axis=-1))

    def test_fft_and_ifft_float64(self, fft, rng, pad):
        # The ramp tables: a real kernel forward, a real response back.
        kernel = rng.standard_normal(pad)
        _same(fft.fft(kernel), scipy.fft.fft(kernel))
        _same(fft.ifft(kernel), scipy.fft.ifft(kernel))

    def test_ifft_complex128(self, fft, rng, pad):
        spectrum = rng.standard_normal((3, pad)) + 1j * rng.standard_normal((3, pad))
        _same(fft.ifft(spectrum), scipy.fft.ifft(spectrum, axis=-1))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_padded_fft(self, fft, rng, pad, dtype):
        # ``reference``'s path: Nu samples zero-padded to the pad; and the
        # truncating direction of the same argument.
        for width in {max(pad // 2, 1), pad, pad + 3}:
            rows = rng.standard_normal((3, width)).astype(dtype)
            _same(fft.fft(rows, n=pad), scipy.fft.fft(rows, n=pad, axis=-1))


def test_operands_are_made_native_and_aligned(fft, rng):
    swapped = rng.standard_normal((2, 96)).astype(">f4")
    _same(fft.rfft(swapped), scipy.fft.rfft(swapped))
    raw = np.zeros(2 * 96 * 4 + 1, dtype=np.uint8)[1:].view(np.float32).reshape(2, 96)
    raw[...] = swapped
    assert not raw.flags.aligned
    _same(fft.rfft(raw), scipy.fft.rfft(raw))
    integers = np.arange(64).reshape(2, 32)
    _same(fft.fft(integers), scipy.fft.fft(integers))


def test_scipy_fft_loaded_first_lends_its_extension():
    assert _pocketfft()._c2c is scipy.fft._pocketfft.basic.pfft.c2c


def test_scipy_fft_loaded_later_reuses_the_extension():
    script = f"""
import sys
from repro.core.filtering import _pocketfft
_pocketfft()
ours = sys.modules[{PYPOCKETFFT!r}]
import scipy.fft
print(scipy.fft._pocketfft.basic.pfft is ours, scipy.fft.rfft([1.0, 2.0]))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    child = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split(" ", 1)[0] == "True"


class _ResolvedAtOpen(Tracer):
    """Notes, as each span opens, whether the transforms were resolved."""

    def __init__(self):
        super().__init__()
        self.opened = []

    def span(self, name, payload_bytes=0, **kwargs):
        self.opened.append((name, _pocketfft.cache_info().currsize))
        return super().span(name, payload_bytes, **kwargs)


def _resolved_at_first_open(run) -> dict:
    """``{span name: resolver cache size when it first opened}`` of ``run()``
    in a process whose transforms are not yet resolved."""
    _pocketfft.cache_clear()
    with use_tracer(_ResolvedAtOpen()) as tracer:
        run()
    first = {}
    for name, resolved in tracer.opened:
        first.setdefault(name, resolved)
    return first


def test_filter_stack_resolves_the_transforms_before_its_span(
    small_geometry, small_projections
):
    backend = get_backend("vectorized")
    opened = _resolved_at_first_open(
        lambda: backend.filter_stack(small_projections, small_geometry)
    )
    assert opened["filter"] == 1


def test_the_streaming_driver_resolves_them_before_its_clock(
    small_geometry, small_projections
):
    # filter_seconds is timed around the chunk span, which opens just after
    # the clock starts.
    driver = StreamingReconstructor(small_geometry, backend="vectorized", chunk_size=5)
    opened = _resolved_at_first_open(
        lambda: driver.reconstruct(StackChunkSource(small_projections))
    )
    assert opened["filter.chunk"] == 1


def test_a_missing_layout_raises_a_named_import_error(monkeypatch, tmp_path):
    monkeypatch.delitem(sys.modules, PYPOCKETFFT)
    monkeypatch.setattr(
        filtering, "find_spec",
        lambda name: SimpleNamespace(submodule_search_locations=[str(tmp_path)]),
    )
    _pocketfft.cache_clear()
    try:
        with pytest.raises(ImportError) as raised:
            _pocketfft()
    finally:
        _pocketfft.cache_clear()
    assert raised.value.name == PYPOCKETFFT
    message = str(raised.value)
    assert PYPOCKETFFT in message
    assert str(tmp_path / "fft" / "_pocketfft") in message


def test_no_scipy_raises_a_named_import_error(monkeypatch):
    monkeypatch.delitem(sys.modules, PYPOCKETFFT)
    monkeypatch.setattr(filtering, "find_spec", lambda name: None)
    _pocketfft.cache_clear()
    try:
        with pytest.raises(ImportError, match="scipy, which is not installed"):
            _pocketfft()
    finally:
        _pocketfft.cache_clear()
