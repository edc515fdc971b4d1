"""The filtering stage of FDK (Algorithm 1 of the paper).

The filtering (a.k.a. convolution) stage multiplies each projection by a
2-D cosine-weighting table ``Fcos`` and convolves every detector row with a
1-D ramp filter ``Framp`` (Algorithm 1).  The paper executes this stage on
the CPU with multi-threading and SIMD (Section 3.1); here it is executed
with NumPy for the weighting and SciPy's compiled pocketfft for the row
transforms, whole row groups per call.

Implementation notes
--------------------

* The ramp filter is built in the *spatial* domain using the band-limited
  kernel of Kak & Slaney (h(0) = 1/(4τ²), h(n odd) = −1/(nπτ)², h(n even)=0)
  and then transformed with an FFT, which avoids the DC-offset artefact of
  sampling ``|ω|`` directly.  τ is the detector pitch scaled to the virtual
  detector that passes through the rotation axis.
* Windowed variants (Shepp-Logan, cosine, Hamming, Hann) multiply the ramp's
  frequency response by the corresponding window — "the shape of the ramp
  filter deeply affects the final image quality, yet it has no effect on the
  compute intensity of the filtering stage" (Section 2.2.2), which is why
  they share a single code path.
* The transforms are SciPy's own C++ (``scipy.fft._pocketfft.pypocketfft``),
  loaded by file without ``scipy`` or ``scipy.fft`` (see :func:`_pocketfft`):
  the goldens are pinned to its bits, and ``import scipy.fft`` costs a
  fresh process 0.2-0.3 s, ``scipy.special`` included, for four functions.
* Every backend's ``filter_stack`` additionally folds the constant FDK scale
  :func:`fdk_normalization` into the filtered projections so that the
  back-projection stage can remain a literal transcription of Algorithm 2 /
  Algorithm 4 (which only accumulate ``Wdis · interp2`` with
  ``Wdis = 1/z²``).  The ``reference`` backend's is the paper-literal one.
"""

from __future__ import annotations

import os
import sys
import threading
from functools import cache, lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_loader
from typing import Callable, Optional, Tuple

import numpy as np

from .geometry import CBCTGeometry
from .types import DEFAULT_DTYPE, ProjectionStack

__all__ = [
    "RAMP_FILTERS",
    "canonical_fft_length",
    "ramp_filter_frequency_response",
    "shortest_ramp_filter_response",
    "apply_ramp_filter_into",
    "filter_projections",
]


#: SciPy's compiled pocketfft module, under the name ``scipy.fft`` gives it.
PYPOCKETFFT = "scipy.fft._pocketfft.pypocketfft"
_load_lock = threading.Lock()


def _load_pypocketfft():
    """The :data:`PYPOCKETFFT` extension, loaded by file from SciPy's package
    directory and registered under its full name, so a later
    ``import scipy.fft`` reuses this module object.  Neither ``scipy`` nor
    ``scipy.fft`` is imported."""
    with _load_lock:
        module = sys.modules.get(PYPOCKETFFT)
        if module is not None:
            return module
        scipy = find_spec("scipy")
        roots = scipy.submodule_search_locations if scipy is not None else None
        folders = [os.path.join(root, "fft", "_pocketfft") for root in roots or ()]
        for folder in folders:
            for suffix in EXTENSION_SUFFIXES:
                path = os.path.join(folder, "pypocketfft" + suffix)
                if os.path.isfile(path):
                    loader = ExtensionFileLoader(PYPOCKETFFT, path)
                    module = module_from_spec(spec_from_loader(PYPOCKETFFT, loader))
                    loader.exec_module(module)
                    sys.modules[PYPOCKETFFT] = module
                    return module
    where = " or ".join(folders) if folders else "scipy, which is not installed"
    raise ImportError(
        f"the ramp filters run on SciPy's pocketfft extension {PYPOCKETFFT}, "
        f"expected as pypocketfft{{{','.join(EXTENSION_SUFFIXES)}}} in {where}",
        name=PYPOCKETFFT,
    )


def _operand(x, n: Optional[int] = None) -> np.ndarray:
    """``scipy.fft``'s argument handling for the calls made here: a
    native-order, aligned float or complex array, its last axis zero-padded
    or truncated to ``n``."""
    x = np.asarray(x)
    if x.dtype.kind not in "fc":
        x = x.astype(np.float64)
    elif not (x.dtype.isnative and x.flags.aligned):
        x = np.array(x, dtype=x.dtype.newbyteorder("="))
    if n is None or x.shape[-1] == n:
        return x
    if x.shape[-1] > n:
        return x[..., :n]
    fitted = np.zeros(x.shape[:-1] + (n,), dtype=x.dtype)
    fitted[..., : x.shape[-1]] = x
    return fitted


class _Transforms:
    """The ``scipy.fft`` calls this package makes, on ``pypocketfft``: the
    same C++ calls with the same arguments, so the same bits.  Last axis,
    norm ``"backward"`` (code 0 forward, 2 inverse), one thread."""

    def __init__(self, extension) -> None:
        self._c2c, self._r2c, self._c2r = extension.c2c, extension.r2c, extension.c2r
        #: ``next_fast_len(target, real=False)``.
        self.next_fast_len = extension.good_size

    def fft(self, x, n: Optional[int] = None) -> np.ndarray:
        return self._c2c(_operand(x, n), (-1,), True, 0, None, 1)

    def ifft(self, x) -> np.ndarray:
        return self._c2c(_operand(x), (-1,), False, 2, None, 1)

    def rfft(self, x) -> np.ndarray:
        return self._r2c(_operand(x), (-1,), True, 0, None, 1)

    def irfft(self, x, n: int) -> np.ndarray:
        return self._c2r(_operand(x, n // 2 + 1), (-1,), n, False, 2, None, 1)


@cache
def _pocketfft() -> _Transforms:
    """The row transforms: SciPy's pocketfft, the library the goldens are
    pinned to, without ``import scipy.fft`` (0.2-0.3 s and 85 modules,
    ``scipy.special`` among them; loading the extension takes ~1 ms).

    Resolved on first use, so a process that filters nothing loads nothing;
    :meth:`ComputeBackend.filter_stack
    <repro.backends.base.ComputeBackend.filter_stack>` resolves it before its
    ``filter`` span opens, and the streaming driver before its filter clock
    starts.  This depends on SciPy's private layout,
    ``scipy/fft/_pocketfft/pypocketfft*.so``: where that is missing, a named
    :class:`ImportError` says what was expected where — there is no second
    FFT path.
    """
    return _Transforms(_load_pypocketfft())


# --------------------------------------------------------------------------- #
# Cosine weighting (the ``Fcos`` table of Table 1)
# --------------------------------------------------------------------------- #
@lru_cache(maxsize=8)
def cosine_weight_table(geometry: CBCTGeometry) -> np.ndarray:
    """The 2-D cosine weighting table ``Fcos`` of size ``(Nv, Nu)``.

    Cached per geometry and returned read-only: every chunk and every
    projection of a run filters against the same table.

    Each detector pixel is weighted by ``D / sqrt(D² + a² + b²)`` where
    ``(a, b)`` are the physical offsets of the pixel from the *principal
    ray* — the cosine of the angle between the pixel's ray and the central
    ray (Feldkamp et al. 1984).  For a centred detector the principal ray
    pierces the panel centre; a lateral detector offset shifts the U
    offsets accordingly.
    """
    u = geometry.detector_u_mm()
    v = (np.arange(geometry.nv, dtype=np.float64) - (geometry.nv - 1) / 2.0) * geometry.dv
    uu, vv = np.meshgrid(u, v)
    d = geometry.sdd
    table = (d / np.sqrt(d * d + uu * uu + vv * vv)).astype(DEFAULT_DTYPE)
    table.setflags(write=False)
    return table


# --------------------------------------------------------------------------- #
# Ramp filter construction
# --------------------------------------------------------------------------- #
def _wrap_offsets(n: int) -> np.ndarray:
    """The integers ``0, 1, ..., -1`` in FFT (wrap-around) order: those
    ``numpy.fft.fftfreq(n)`` scales, so ``_wrap_offsets(n) * (1.0 / (n * d))``
    is its result bit for bit, without importing ``numpy.fft`` (~1.4 ms)."""
    return np.concatenate(
        (np.arange((n + 1) // 2, dtype=int), np.arange(-(n // 2), 0, dtype=int))
    )


def ramp_kernel_spatial(n_taps: int, tau: float) -> np.ndarray:
    """Band-limited ramp kernel ``h`` sampled at pitch ``tau`` (Kak & Slaney).

    Returns ``n_taps`` samples for offsets ``-n_taps//2 .. n_taps//2 - 1``
    arranged in FFT (wrap-around) order so it can be transformed directly.
    """
    if n_taps < 2:
        raise ValueError("n_taps must be >= 2")
    if tau <= 0:
        raise ValueError("tau must be positive")
    offsets = _wrap_offsets(n_taps)
    kernel = np.zeros(n_taps, dtype=np.float64)
    kernel[offsets == 0] = 1.0 / (4.0 * tau * tau)
    odd = (offsets % 2) != 0
    kernel[odd] = -1.0 / (np.pi * offsets[odd] * tau) ** 2
    return kernel


def _window(name: str, freqs: np.ndarray, nyquist: float) -> np.ndarray:
    """Apodization window evaluated at ``freqs`` (cycles/mm)."""
    ratio = np.clip(np.abs(freqs) / nyquist, 0.0, 1.0)
    if name == "ram-lak":
        return np.ones_like(ratio)
    if name == "shepp-logan":
        return np.sinc(ratio / 2.0)
    if name == "cosine":
        return np.cos(np.pi * ratio / 2.0)
    if name == "hamming":
        return 0.54 + 0.46 * np.cos(np.pi * ratio)
    if name == "hann":
        return 0.5 * (1.0 + np.cos(np.pi * ratio))
    raise ValueError(f"unknown ramp filter window {name!r}")


#: Names of the supported ramp-filter windows.
RAMP_FILTERS = ("ram-lak", "shepp-logan", "cosine", "hamming", "hann")


def canonical_fft_length(nu: int) -> int:
    """The ramp filter's canonical transform length: the next power of two
    ≥ ``2 * nu`` (linear, not circular, convolution).  The length the window
    is sampled at, and the ``reference`` backend's transform length."""
    return 1 << (max(2 * nu, 2) - 1).bit_length()


@lru_cache(maxsize=8)
def ramp_filter_frequency_response(
    nu: int, tau: float, window: str = "ram-lak"
) -> np.ndarray:
    """Frequency response of the (windowed) ramp filter (cached, read-only).

    Parameters
    ----------
    nu:
        Number of detector columns to be filtered.
    tau:
        Sample pitch (mm) of the detector row on the virtual detector.
    window:
        One of :data:`RAMP_FILTERS`.

    The table is :func:`canonical_fft_length` long.
    """
    if window not in RAMP_FILTERS:
        raise ValueError(f"unknown ramp filter window {window!r}; valid: {RAMP_FILTERS}")
    length = canonical_fft_length(nu)
    kernel = ramp_kernel_spatial(length, tau)
    response = np.real(_pocketfft().fft(kernel))
    freqs = _wrap_offsets(length) * (1.0 / (length * tau))
    nyquist = 1.0 / (2.0 * tau)
    response = response * _window(window, freqs, nyquist)
    response.setflags(write=False)
    return response


@lru_cache(maxsize=8)
def shortest_ramp_filter_response(
    nu: int, tau: float, window: str = "ram-lak"
) -> np.ndarray:
    """:func:`ramp_filter_frequency_response` at the shortest exact transform
    length ``L = next_fast_len(2 * nu - 1, real=True)`` (cached, read-only).

    A linear convolution of ``nu`` samples reads only the kernel's taps at
    offsets ``|d| <= nu - 1``, and any circular length ``L >= 2 * nu - 1``
    keeps those from wrapping onto each other.  So the canonical table is
    brought back to taps, the taps a row can reach are kept, and they are
    transformed at ``L``: the same kernel, windowed once on the canonical grid
    and never re-sampled, so rows convolved through either table differ by
    round-off only (~1e-15 relative in float64).  Where ``L`` is the
    canonical length (``nu`` a power of two) the canonical table itself is
    returned.
    """
    canonical = ramp_filter_frequency_response(nu, tau, window)
    fft = _pocketfft()
    length = fft.next_fast_len(2 * nu - 1, real=True)
    if length == canonical.shape[0]:
        return canonical
    taps = np.real(fft.ifft(canonical))
    reach = nu - 1
    short = np.zeros(length, dtype=np.float64)
    short[: reach + 1] = taps[: reach + 1]
    if reach:
        short[-reach:] = taps[-reach:]
    response = np.real(fft.fft(short))
    response.setflags(write=False)
    return response


def apply_ramp_filter(
    rows: np.ndarray,
    tau: float,
    window: str = "ram-lak",
    *,
    response: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Convolve rows (last axis) with the ramp filter via FFT.

    The result includes the ``τ`` factor of the discrete convolution
    (Riemann sum), so the output has units of the input divided by length.
    """
    rows = np.asarray(rows)
    nu = rows.shape[-1]
    if response is None:
        response = ramp_filter_frequency_response(nu, tau, window)
    pad_to = response.shape[0]
    fft = _pocketfft()
    spectrum = fft.fft(rows, n=pad_to)
    filtered = np.real(fft.ifft(spectrum * response))[..., :nu]
    return (filtered * tau).astype(rows.dtype if rows.dtype.kind == "f" else DEFAULT_DTYPE)


# --------------------------------------------------------------------------- #
# Algorithm 1
# --------------------------------------------------------------------------- #
#: Detector rows of one projection filtered per step.  Chosen from this sweep
#: on a 2-vCPU Xeon — whole-run ms of ``vectorized`` (one worker, compiled
#: kernel), medians of three *fresh* processes:
#: rows     512x64x256->16^3  384x384x96->48^3  1024x768x16->32^3
#: =======  ================  ================  =================
#: float64  156               366               244
#:      16  117               304               174
#:      64  107               275               167
#:     256  107               284               167
#:     512  106               352               163
#: (``float64``: 256 rows, before the transforms went single precision.  The
#: sweep ran at the canonical power-of-two pad; the tiled backends now pad to
#: the shortest exact length, 768 instead of 1024 for the 384-wide detector.)
#: One worker is flat from 64 to 256 rows, so 256 stays.  Traps met:
#: * Never judge a grouping by a warm loop: 1-2 MB temporaries sit just above
#:   glibc's dynamic trim threshold and are returned and page-faulted again
#:   every group in a fresh process (+38 %).  Own the buffers; set no knob.
#:   The transforms' own outputs are not owned (``scipy.fft`` takes no ``out=``;
#:   NumPy's FFT does and is 40 % slower): at 1 MB each (256 rows at a
#:   1024 pad; 0.75 MB at 768) they stay on the heap, at 1.25 MB (320 rows,
#:   1024 pad) the filter alone went 182 -> 250 ms on 384x384x96 — the
#:   512-row line's 352.
#: * Keep the buffers per thread and never dispatch a one-group stack: an
#:   iFDK rank filters one 96-row projection per call (set-up: +2.5 %).
GROUP_ROWS = 256

_scratch = threading.local()


def thread_scratch(name: str, key, shape: Tuple[int, ...], dtype) -> np.ndarray:
    """This thread's zeroed ``name`` buffer, made anew when asked for under
    another ``key``.  Keyed by exact layout, never re-viewed: a grow-only
    buffer at a new ``(rows, pad)`` shows old samples in the zero tails."""
    held = _scratch.__dict__.get(name)
    if held is None or held[0] != key:
        held = _scratch.__dict__[name] = (key, np.zeros(shape, dtype=dtype))
    return held[1]


def apply_ramp_filter_into(
    rows: np.ndarray, response: np.ndarray, tau: float, scale: float, out: np.ndarray
) -> None:
    """:func:`apply_ramp_filter`, then the float32 ``scale``, as a row-group
    kernel: the ``reference`` backend's, complex FFT and float64 product."""
    out[...] = apply_ramp_filter(rows[:, : out.shape[-1]], tau, response=response)
    out *= DEFAULT_DTYPE(scale)


def filter_projections(
    stack: ProjectionStack,
    geometry: CBCTGeometry,
    window: str = "ram-lak",
    *,
    extra_scale: float = 1.0,
    redundancy: Optional[np.ndarray] = None,
    convolve: Callable[..., None] = apply_ramp_filter_into,
    dispatch: Optional[Callable[..., None]] = None,
    ramp_response: Callable[..., np.ndarray] = ramp_filter_frequency_response,
) -> ProjectionStack:
    """Algorithm 1: cosine weighting followed by row-wise ramp filtering.

    This is the one place the cosine → redundancy → ramp → ``τ`` → scale
    sequence is written; every backend's ``filter_stack`` runs it with its
    own group kernel, group by group — at most :data:`GROUP_ROWS` rows of one
    projection.  The weighted float32 rows are written once, into the thread's
    zero-padded buffer, and the kernel writes the finished float32 rows
    straight into the one ``(Np, Nv, Nu)`` result: no whole-stack temporary
    exists, and a row's operations, dtypes and roundings do not depend on the
    grouping.

    ``extra_scale`` is an optional constant folded into the output (used by
    ``filter_stack`` to absorb the FDK normalization).
    ``redundancy`` is an optional ``(Np, Nu)`` float table — one weight per
    (projection, detector column), constant along V — multiplied in with
    the cosine weights, *before* the ramp filter: the hook acquisition
    scenarios use for Parker/short-scan and offset-detector ray-redundancy
    handling (a float64 product narrowed once, the same rows on every backend).
    ``convolve(rows, response, tau, scale, out)`` is the group kernel
    (:meth:`ComputeBackend.apply_filter <repro.backends.base.ComputeBackend.apply_filter>`):
    padded float32 rows in, the ``τ · scale``-scaled float32 rows out.
    ``dispatch(filter_groups, groups)`` decides which thread filters which
    ``(projection, first row, stop row)`` groups (default: the caller, all).
    ``ramp_response(nu, tau, window)`` is the frequency table the kernel
    multiplies by (:attr:`ComputeBackend.ramp_response
    <repro.backends.base.ComputeBackend.ramp_response>`; default the canonical
    :func:`ramp_filter_frequency_response`); its length ``L`` is the padded
    length, so each thread's row buffer is ``(rows, L)`` float32.
    """
    if stack.nu != geometry.nu or stack.nv != geometry.nv:
        raise ValueError(
            f"projection stack ({stack.nv}x{stack.nu}) does not match detector "
            f"({geometry.nv}x{geometry.nu})"
        )
    fcos = cosine_weight_table(geometry)
    # Virtual-detector pitch: detector pitch scaled back to the rotation axis.
    tau = geometry.du * geometry.sad / geometry.sdd
    response = ramp_response(geometry.nu, tau, window)
    if redundancy is not None:
        redundancy = np.asarray(redundancy, dtype=np.float64)
        if redundancy.shape != (stack.np_, stack.nu):
            raise ValueError(
                f"redundancy table shape {redundancy.shape} does not match "
                f"(Np, Nu) = ({stack.np_}, {stack.nu})"
            )
    data = stack.data  # float32: ProjectionStack holds nothing else
    out = np.empty(data.shape, dtype=DEFAULT_DTYPE)
    n_rows, nu, pad = min(GROUP_ROWS, stack.nv), stack.nu, response.shape[0]

    def filter_groups(groups) -> None:
        # Zero beyond Nu: the transforms' padding, kept by writing [:, :nu] only.
        padded = thread_scratch("padded", (n_rows, nu, pad), (n_rows, pad), DEFAULT_DTYPE)
        for p, first, stop in groups:
            rows = padded[: stop - first]
            weighted = rows[:, :nu]
            np.multiply(data[p, first:stop], fcos[first:stop], out=weighted)
            if redundancy is not None:
                # A float64 product narrowed once, through the ufunc's own buffer.
                np.multiply(
                    weighted, redundancy[p], out=weighted,
                    dtype=np.float64, casting="same_kind",
                )
            convolve(rows, response, tau, extra_scale, out[p, first:stop])

    groups = [
        (p, first, min(first + n_rows, stack.nv))
        for p in range(stack.np_)
        for first in range(0, stack.nv, n_rows)
    ]
    if dispatch is None:
        filter_groups(groups)
    else:
        dispatch(filter_groups, groups)
    return ProjectionStack(data=out, angles=stack.angles.copy(), filtered=True)


def fdk_normalization(geometry: CBCTGeometry) -> float:
    """The constant FDK scale ``d² · Δβ / 2``.

    The classical Feldkamp formula back-projects with weight ``d²/z²`` and
    integrates over the trajectory with measure ``dβ/2``.  Algorithm 2 /
    Algorithm 4 use ``Wdis = 1/z²``, so the remaining constant is folded into
    the filtered projections by every backend's ``filter_stack``.  ``Δβ`` is
    ``geometry.theta = angular_range / Np``, so sparse-view and short-scan
    geometries are normalized for their own angular sampling automatically
    (redundancy weights handle the rest of the short-scan bookkeeping).
    """
    return float(geometry.sad**2 * geometry.theta / 2.0)
