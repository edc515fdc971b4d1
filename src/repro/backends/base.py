"""The compute-backend protocol for the FDK hot paths.

The paper's central claim is that the *proposed* back-projection is
arithmetically identical to the standard one while being far cheaper.  This
module generalizes that discipline into an execution seam: the three hot
paths of the pipeline — ramp filtering, standard back-projection
(Algorithm 2) and proposed back-projection (Algorithm 4) — are expressed
against an abstract :class:`ComputeBackend`, and every concrete backend must
prove itself *numerically equivalent* to the ``reference`` backend before it
may be selected anywhere in the stack.

The protocol
------------

A backend implements two primitives:

``apply_filter(rows, response, tau, scale, out)``
    Convolve one group of cosine-weighted, zero-padded float32 detector rows
    with a precomputed ramp-filter frequency ``response`` and write the final
    float32 rows into ``out``; cosine weighting, redundancy and grouping are
    shared code (:func:`~repro.core.filtering.filter_projections`), so a
    backend owns the FFT convolution and its precision: ``reference`` a
    complex FFT and float64 product (the goldens' bits), the tiled backends
    the paper's single-precision real FFT (~1e-7 relative RMSE apart).
    Beside it, ``ramp_response(nu, tau, window)`` picks the table and with
    it the padded length: the canonical power of two by default, the
    shortest exact length on the tiled backends (the same kernel taps).

``accumulator(geometry, algorithm=..., z_range=...)``
    Return a :class:`VolumeAccumulator` bound to one geometry and Z slab.
    The accumulator receives filtered projections one at a time
    (:meth:`~VolumeAccumulator.add`) or a chunk at a time
    (:meth:`~VolumeAccumulator.add_stack`, which every accumulator has) and
    owns the voxel-update loop — this is where backends differ in batching,
    blocking and memory layout.  :meth:`~VolumeAccumulator.volume` hands
    over the buffer it filled, without a copy, and spends the accumulator.

Which code runs the voxel updates is the accumulator's ``executor``:
``reference`` is NumPy/SciPy throughout; the tiled names (``vectorized``,
``blocked``, ``parallel``) run Algorithm 4 on the compiled kernel of
:mod:`repro.backends.native` where the host can build it and on the NumPy
block kernels where it cannot, bit-identically, and Algorithm 2 always on
NumPy.  No name, plan field or option selects between them.

Everything else (`filter_stack`, `backproject`) is derived from those two
primitives by shared driver code in this class, so all backends execute the
*same* orchestration and differ only in the inner kernels.  The
filter→accumulate loop over chunks of an acquisition is written once, in
:class:`repro.streaming.StreamingReconstructor`.

The conformance contract
------------------------

A new backend is correct when ``tests/test_backend_conformance.py`` passes
with it registered:

* each hot path must agree with ``reference`` to a relative RMSE of at most
  ``1e-5`` on every geometry preset, input dtype and Z-slab decomposition of
  the matrix (in practice the tiled backend agrees to ~1e-7), on both kernel
  executors;
* a backend that only reorders traversal (the tiled backend at any byte
  budget and worker count) must agree with itself **bit-exactly**;
* the Theorem 1–3 invariants (mirror-row reflection, u/z/Wdis constant
  along Z) must survive the backend's algebraic rearrangements.

Register the backend with :func:`repro.backends.register_backend` and add
its name to the conformance matrix; nothing else in the stack needs to
change — `StreamingReconstructor`, the iFDK rank runtime, the service and
the CLI all select backends by name.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

import numpy as np

from ..core.filtering import (
    _pocketfft,
    fdk_normalization,
    filter_projections,
    ramp_filter_frequency_response,
)
from ..core.geometry import CBCTGeometry
from ..core.types import DEFAULT_DTYPE, ProjectionStack, Volume
from ..obs import get_tracer

__all__ = ["ComputeBackend", "VolumeAccumulator"]

#: Back-projection algorithm names every backend must support.
ALGORITHMS = ("standard", "proposed")


class VolumeAccumulator(abc.ABC):
    """A streaming back-projection accumulator bound to one Z slab.

    Filtered projections are folded in one at a time via :meth:`add` or a
    stack at a time via :meth:`add_stack`; :meth:`volume` hands over the
    accumulated sub-volume in the canonical i-major ``(Nz_local, Ny, Nx)``
    layout regardless of the backend's internal storage.  Accumulation must
    be deterministic: the result may depend only on the sequence of
    ``(projection, angle)`` pairs, never on wall-clock, thread scheduling or
    allocation addresses.

    The hand-over is the accumulator's last act: it returns the buffer it
    filled, without a copy, and keeps no reference to it, so a run holds its
    volume once.  The accumulator is then spent — :meth:`add`,
    :meth:`add_stack` and a second :meth:`volume` raise
    :class:`RuntimeError`.  A backend implements :meth:`_fold` (one
    validated float32 projection) and :meth:`_hand_over`; the checks live
    here.
    """

    #: Registry name of the backend that built this accumulator (a trace
    #: attribute of the ``backproject`` span).
    backend: str = ""
    #: What runs the voxel updates: ``"native"`` (compiled code that releases
    #: the GIL for a whole stack) or ``"numpy"`` (array calls that re-take it).
    #: A trace attribute too.
    executor: str = "numpy"
    #: Set by :meth:`volume`: the buffer is the caller's from then on.
    _spent: bool = False

    def __init__(
        self,
        geometry: CBCTGeometry,
        *,
        algorithm: str = "proposed",
        z_range: Optional[Tuple[int, int]] = None,
    ):
        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
            )
        self.geometry = geometry
        self.algorithm = algorithm
        self.z_range = z_range if z_range is not None else (0, geometry.nz)
        z_start, z_stop = self.z_range
        if not (0 <= z_start < z_stop <= geometry.nz):
            raise ValueError(f"invalid z_range {z_range} for Nz={geometry.nz}")
        # A voxel at or behind the source has a perspective divisor z <= 0:
        # 1/z and every detector coordinate derived from it stop being
        # finite, and the volume silently fills with NaN.  The kernels'
        # index-range argument (clip => in range) assumes finite coordinates.
        half_diagonal = 0.5 * float(
            np.hypot(geometry.nx * geometry.dx, geometry.ny * geometry.dy)
        )
        if geometry.sad <= half_diagonal:
            raise ValueError(
                f"sad={geometry.sad:g} mm puts the source inside the reconstructed "
                f"field of view: it must exceed the volume's XY half-diagonal "
                f"({half_diagonal:g} mm)"
            )

    @property
    def nz_local(self) -> int:
        return self.z_range[1] - self.z_range[0]

    def add(self, projection: np.ndarray, angle: float) -> None:
        """Fold one filtered ``(Nv, Nu)`` projection into the sub-volume."""
        self._check_unspent()
        projection = np.asarray(projection, dtype=DEFAULT_DTYPE)
        self._validate(projection.shape)
        self._fold(projection, angle)

    @abc.abstractmethod
    def _fold(self, projection: np.ndarray, angle: float) -> None:
        """:meth:`add` on a float32 projection of the detector's shape."""

    def add_stack(self, stack: ProjectionStack) -> None:
        """Fold a filtered stack into the sub-volume, in stack order.

        Bit-identical to one :meth:`add` per projection.  The ``backproject``
        span covers the whole tile/voxel accumulation loop; per-projection
        and per-worker child spans are recorded only when tracing is
        enabled, so the hot loop stays untouched otherwise.
        """
        self._check_unspent()
        self._validate(stack.data.shape[1:])
        with get_tracer().span(
            "backproject",
            payload_bytes=int(stack.data.nbytes),
            backend=self.backend,
            executor=self.executor,
            algorithm=self.algorithm,
            projections=stack.np_,
        ):
            self._add_stack(stack)

    def _add_stack(self, stack: ProjectionStack) -> None:
        tracer = get_tracer()
        if tracer.enabled:
            for index, (angle, projection) in enumerate(stack):
                with tracer.span("backproject.add", projection_index=index):
                    self.add(projection, angle)
        else:
            for angle, projection in stack:
                self.add(projection, angle)

    def volume(self) -> Volume:
        """Hand over the accumulated sub-volume, i-major ``(Nz_local, Ny, Nx)``.

        The result's ``data`` is the buffer the accumulator filled, not a
        copy (only a buffer in another layout, such as the ``reference``
        oracle's k-major one, is transposed into a new one and dropped);
        afterwards the accumulator is spent.
        """
        self._check_unspent()
        volume = self._hand_over()
        self._spent = True
        return volume

    @abc.abstractmethod
    def _hand_over(self) -> Volume:
        """The filled buffer as a :class:`Volume`, dropping every reference
        this accumulator holds to it."""

    def _check_unspent(self) -> None:
        if self._spent:
            raise RuntimeError(
                "the accumulator already handed over its volume; "
                "start a new accumulator"
            )

    def _validate(self, shape: Tuple[int, ...]) -> None:
        if shape != (self.geometry.nv, self.geometry.nu):
            raise ValueError(
                f"projection shape {shape} does not match detector "
                f"({self.geometry.nv}, {self.geometry.nu})"
            )


class ComputeBackend(abc.ABC):
    """One execution strategy for the FDK hot paths.

    Subclasses implement :meth:`apply_filter` and :meth:`accumulator`; the
    stack-level drivers below are shared so every backend runs the same
    orchestration (weighting, normalization, accumulation order) and
    differs only in its inner kernels.
    """

    #: Registry name (``--backend`` value); subclasses must set it.
    name: str = ""

    # ------------------------------------------------------------------ #
    # Primitives
    # ------------------------------------------------------------------ #
    #: Threads a run keeps busy, in each stage in turn.
    workers: int = 1
    #: :func:`~repro.core.filtering.filter_projections`' ``dispatch``: how
    #: a backend spreads row groups over its threads (``None``: it has none).
    dispatch_filter = None
    #: :func:`~repro.core.filtering.filter_projections`' ``ramp_response``:
    #: ``(nu, tau, window)`` to the frequency table :meth:`apply_filter`
    #: multiplies by, whose length is the pad.  The canonical power-of-two
    #: table here; the tiled backends take the shortest exact one.
    ramp_response = staticmethod(ramp_filter_frequency_response)

    @abc.abstractmethod
    def apply_filter(
        self, rows: np.ndarray, response: np.ndarray, tau: float, scale: float, out: np.ndarray
    ) -> None:
        """Convolve one row group with the ramp ``response`` into ``out``.

        ``rows`` is ``(n, pad)`` float32: the cosine-weighted samples in
        ``[:, :Nu]``, zeros beyond — read, never written (the zeros are the
        next group's padding too).  ``response`` is the ``pad``-long table of
        :attr:`ramp_response`; the
        result times ``tau`` (the Riemann-sum factor) and the constant
        ``scale`` goes into the ``(n, Nu)`` float32 ``out`` — the final
        filtered rows: nothing rescales or narrows them afterwards.
        """

    @abc.abstractmethod
    def accumulator(
        self,
        geometry: CBCTGeometry,
        *,
        algorithm: str = "proposed",
        z_range: Optional[Tuple[int, int]] = None,
    ) -> VolumeAccumulator:
        """A fresh zeroed :class:`VolumeAccumulator` for one Z slab."""

    # ------------------------------------------------------------------ #
    # Shared drivers
    # ------------------------------------------------------------------ #
    def filter_stack(
        self,
        stack: ProjectionStack,
        geometry: CBCTGeometry,
        window: str = "ram-lak",
        *,
        redundancy: Optional[np.ndarray] = None,
    ) -> ProjectionStack:
        """Algorithm 1 on a whole stack: cosine weight, ramp filter, scale.

        ``redundancy`` is an optional ``(Np, Nu)`` per-projection
        ray-redundancy table from an acquisition scenario (short-scan
        Parker weights, offset-detector weights).  It is applied in the
        shared :func:`~repro.core.filtering.filter_projections` sequence,
        so every backend consumes the identical weighted input — scenario
        handling can never diverge between backends, and row/tile blocking
        stays bit-exact.
        """
        # Loads the transforms on a process's first call, outside the span:
        # the span measures filtering, not a library load.
        _pocketfft()
        with get_tracer().span(
            "filter",
            payload_bytes=int(stack.data.nbytes),
            backend=self.name,
            projections=stack.np_,
            window=window,
        ):
            return filter_projections(
                stack, geometry, window,
                extra_scale=fdk_normalization(geometry),
                redundancy=redundancy,
                convolve=self.apply_filter,
                dispatch=self.dispatch_filter,
                ramp_response=self.ramp_response,
            )

    def backproject(
        self,
        stack: ProjectionStack,
        geometry: CBCTGeometry,
        *,
        algorithm: str = "proposed",
        z_range: Optional[Tuple[int, int]] = None,
    ) -> Volume:
        """Back-project a filtered stack through a fresh accumulator."""
        acc = self.accumulator(geometry, algorithm=algorithm, z_range=z_range)
        acc.add_stack(stack)
        return acc.volume()

    def close(self) -> None:
        """Release execution resources (worker threads); idempotent no-op here.

        Backends that own threads (the tiled backend) override this; closing
        must always be safe — a closed backend restarts its resources lazily
        on the next call, so shared registry instances tolerate it too.
        """

    def __enter__(self) -> "ComputeBackend":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<{type(self).__name__} name={self.name!r}>"
