"""Core data types for the iFDK reproduction.

The paper (Table 1) defines the cone-beam CT (CBCT) acquisition in terms of a
flat-panel detector (FPD) of ``Nu x Nv`` pixels, ``Np`` projections acquired
over a full rotation, and an output volume of ``Nx x Ny x Nz`` voxels.  This
module provides small, explicit containers for those objects so that every
stage of the pipeline (filtering, back-projection, distribution) can validate
shapes and units instead of passing bare arrays around.

All arrays are single-precision ``float32`` by default, matching the paper's
"single precision for all projections, volumes, and runs" statement
(Section 5.1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

__all__ = [
    "DEFAULT_DTYPE",
    "ReconstructionProblem",
    "ProjectionStack",
    "Volume",
    "problem_from_string",
]

#: Single precision everywhere, as in the paper (Section 5.1).
DEFAULT_DTYPE = np.float32


def _positive(name: str, value: int) -> int:
    value = int(value)
    if value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value}")
    return value


@dataclass(frozen=True)
class ReconstructionProblem:
    """The image-reconstruction problem ``Nu x Nv x Np -> Nx x Ny x Nz``.

    Section 2.3(I) of the paper defines the problem by the size of the input
    projection stack and the size of the output volume.  The class also
    carries the derived quantities used throughout the evaluation:

    * :attr:`alpha` — the input/output size ratio ``α`` used in Table 4.
    * :attr:`updates` — the total number of voxel updates
      ``Nx * Ny * Nz * Np`` used by the GUPS metric (Section 2.3(II)).

    Parameters
    ----------
    nu, nv:
        Width and height of one 2-D projection, in pixels.
    np_:
        Number of projections (``Np`` in the paper; trailing underscore to
        avoid shadowing the :mod:`numpy` alias).
    nx, ny, nz:
        Output volume extent in voxels.
    """

    nu: int
    nv: int
    np_: int
    nx: int
    ny: int
    nz: int

    def __post_init__(self) -> None:
        for name in ("nu", "nv", "np_", "nx", "ny", "nz"):
            object.__setattr__(self, name, _positive(name, getattr(self, name)))
        # Hashed once: the service hashes a job's problem at each lookup of
        # its allocation table.  The fields are ints, so the value is the
        # same in every process and may travel in a pickle.
        object.__setattr__(self, "_hash", hash(
            (self.nu, self.nv, self.np_, self.nx, self.ny, self.nz)
        ))

    def __hash__(self) -> int:
        return self._hash

    # ------------------------------------------------------------------ #
    # Derived sizes
    # ------------------------------------------------------------------ #
    @property
    def input_pixels(self) -> int:
        """Total number of input pixels ``Nu * Nv * Np``."""
        return self.nu * self.nv * self.np_

    @property
    def output_voxels(self) -> int:
        """Total number of output voxels ``Nx * Ny * Nz``."""
        return self.nx * self.ny * self.nz

    @property
    def alpha(self) -> float:
        """Input/output size ratio ``α`` (Table 4)."""
        return self.input_pixels / self.output_voxels

    @property
    def updates(self) -> int:
        """Number of voxel updates performed by back-projection."""
        return self.output_voxels * self.np_

    def input_bytes(self, itemsize: int = 4) -> int:
        """Size of the input projection stack in bytes (FP32 by default)."""
        return self.input_pixels * itemsize

    def output_bytes(self, itemsize: int = 4) -> int:
        """Size of the output volume in bytes (FP32 by default)."""
        return self.output_voxels * itemsize

    def gups(self, seconds: float) -> float:
        """Giga-updates per second for a run of ``seconds`` (Section 2.3)."""
        if seconds <= 0:
            raise ValueError("execution time must be positive")
        return self.updates / (seconds * 2.0**30)

    # ------------------------------------------------------------------ #
    # Presentation helpers
    # ------------------------------------------------------------------ #
    def __str__(self) -> str:  # pragma: no cover - trivial
        return (
            f"{self.nu}x{self.nv}x{self.np_}->"
            f"{self.nx}x{self.ny}x{self.nz}"
        )

    def scaled(self, factor: float) -> "ReconstructionProblem":
        """Return the problem scaled isotropically by ``factor``.

        Used by the benchmark harness to run paper-sized problems at
        laptop-scale while preserving the aspect ratios that drive the
        cost model (``α`` is invariant under isotropic scaling when input
        and output scale together).
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")

        def s(v: int) -> int:
            return max(1, int(round(v * factor)))

        return ReconstructionProblem(
            nu=s(self.nu), nv=s(self.nv), np_=s(self.np_),
            nx=s(self.nx), ny=s(self.ny), nz=s(self.nz),
        )


@functools.lru_cache(maxsize=256)
def problem_from_string(spec: str) -> ReconstructionProblem:
    """Parse ``"NuxNvxNp->NxxNyxNz"`` into a :class:`ReconstructionProblem`.

    The format mirrors how the paper writes problems, e.g.
    ``"2048x2048x4096->4096x4096x4096"``.  ``k`` suffixes are accepted
    (``"2k"`` means 2048).

    Memoised (bounded): a trace names a handful of specs thousands of
    times, the problem is frozen, so equal specs share one object — which
    makes the dictionaries keyed by problem hit on identity.  A spec that
    fails to parse raises every time; nothing is cached for it.
    """

    def parse_dim(token: str) -> int:
        token = token.strip().lower()
        if token.endswith("k"):
            return int(float(token[:-1]) * 1024)
        return int(token)

    try:
        left, right = spec.split("->")
        nu, nv, np_ = (parse_dim(t) for t in left.split("x"))
        nx, ny, nz = (parse_dim(t) for t in right.split("x"))
    except Exception as exc:  # noqa: BLE001 - re-raise with context
        raise ValueError(f"cannot parse problem spec {spec!r}") from exc
    return ReconstructionProblem(nu, nv, np_, nx, ny, nz)


@dataclass
class ProjectionStack:
    """A stack of 2-D projections plus acquisition metadata.

    ``data`` is stored as ``(Np, Nv, Nu)`` — projection index first, then
    detector row (``v``), then detector column (``u``) — which matches the
    row-major storage used by RTK and by the paper's CUDA kernels.
    """

    data: np.ndarray
    angles: np.ndarray
    filtered: bool = False

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(self.data, dtype=DEFAULT_DTYPE)
        self.angles = np.asarray(self.angles, dtype=np.float64)
        if self.data.ndim != 3:
            raise ValueError(
                f"projection data must be 3-D (Np, Nv, Nu); got {self.data.shape}"
            )
        if self.angles.ndim != 1 or self.angles.shape[0] != self.data.shape[0]:
            raise ValueError(
                "angles must be a 1-D array with one entry per projection"
            )

    # ------------------------------------------------------------------ #
    @property
    def np_(self) -> int:
        """Number of projections."""
        return self.data.shape[0]

    @property
    def nv(self) -> int:
        """Detector height in pixels."""
        return self.data.shape[1]

    @property
    def nu(self) -> int:
        """Detector width in pixels."""
        return self.data.shape[2]

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def __len__(self) -> int:
        return self.np_

    def __iter__(self) -> Iterator[Tuple[float, np.ndarray]]:
        for angle, image in zip(self.angles, self.data):
            yield float(angle), image

    def subset(self, indices) -> "ProjectionStack":
        """Return a new stack restricted to ``indices`` (copying data)."""
        indices = np.asarray(indices, dtype=np.intp)
        return ProjectionStack(
            data=self.data[indices].copy(),
            angles=self.angles[indices].copy(),
            filtered=self.filtered,
        )

    def copy(self) -> "ProjectionStack":
        return ProjectionStack(
            data=self.data.copy(), angles=self.angles.copy(), filtered=self.filtered
        )


@dataclass
class Volume:
    """A reconstructed 3-D volume.

    ``data`` uses the *i-major* layout of Algorithm 2, i.e. indexed
    ``[k, j, i]`` with ``i`` (the X axis) contiguous.  The proposed
    Algorithm 4 internally produces a *k-major* layout (``[i, j, k]`` with
    ``k`` contiguous, the paper's ``I~``) and reshapes back at the end;
    :meth:`from_kmajor` performs that reshape.
    """

    data: np.ndarray
    voxel_pitch: Tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(self.data, dtype=DEFAULT_DTYPE)
        if self.data.ndim != 3:
            raise ValueError(f"volume data must be 3-D (Nz, Ny, Nx); got {self.data.shape}")
        pitch = tuple(float(p) for p in self.voxel_pitch)
        if len(pitch) != 3 or any(p <= 0 for p in pitch):
            raise ValueError("voxel_pitch must be three positive floats")
        self.voxel_pitch = pitch

    @property
    def nz(self) -> int:
        return self.data.shape[0]

    @property
    def ny(self) -> int:
        return self.data.shape[1]

    @property
    def nx(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> Tuple[int, int, int]:
        return self.data.shape

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    @classmethod
    def zeros(
        cls,
        nx: int,
        ny: int,
        nz: int,
        voxel_pitch: Tuple[float, float, float] = (1.0, 1.0, 1.0),
    ) -> "Volume":
        """Allocate an all-zero volume of the given extent."""
        return cls(
            data=np.zeros((nz, ny, nx), dtype=DEFAULT_DTYPE),
            voxel_pitch=voxel_pitch,
        )

    @classmethod
    def from_kmajor(
        cls,
        kmajor: np.ndarray,
        voxel_pitch: Tuple[float, float, float] = (1.0, 1.0, 1.0),
    ) -> "Volume":
        """Build a volume from the k-major layout of Algorithm 4.

        The k-major buffer is indexed ``[i, j, k]``; the final reshape of
        Algorithm 4 line 22 transposes it back to ``[k, j, i]``.
        """
        if kmajor.ndim != 3:
            raise ValueError("k-major buffer must be 3-D (Nx, Ny, Nz)")
        data = np.ascontiguousarray(kmajor.transpose(2, 1, 0), dtype=DEFAULT_DTYPE)
        return cls(data=data, voxel_pitch=voxel_pitch)

    def to_kmajor(self) -> np.ndarray:
        """Return a contiguous copy in the k-major layout ``[i, j, k]``."""
        return np.ascontiguousarray(self.data.transpose(2, 1, 0))

    def copy(self) -> "Volume":
        return Volume(data=self.data.copy(), voxel_pitch=self.voxel_pitch)

    def slab(self, z_start: int, z_stop: int) -> "Volume":
        """Return the sub-volume of slices ``[z_start, z_stop)`` (a copy)."""
        if not (0 <= z_start < z_stop <= self.nz):
            raise ValueError(
                f"invalid slab [{z_start}, {z_stop}) for volume with Nz={self.nz}"
            )
        return Volume(
            data=self.data[z_start:z_stop].copy(), voxel_pitch=self.voxel_pitch
        )
