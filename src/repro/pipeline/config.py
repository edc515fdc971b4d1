"""iFDK framework configuration (the parameters of Table 2).

The central configuration object couples the acquisition geometry with the
2-D rank grid (``R`` rows × ``C`` columns), the per-node GPU count and the
kernel/filter choices.  :func:`choose_grid` implements the ``R`` selection
policy of Section 4.1.5: minimize ``R`` (and therefore maximize ``C``)
subject to the sub-volume fitting into device memory next to a
32-projection staging batch, with ``R`` kept a power of two.  That memory
rule is :func:`fits_device_memory`, the one place it is written; the
configuration's own :meth:`IFDKConfig.validate_device_memory` applies it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.geometry import CBCTGeometry
from ..core.types import ReconstructionProblem
from ..gpusim.device import DeviceSpec, TESLA_V100
from ..gpusim.kernels import DEFAULT_PROJECTION_BATCH, get_kernel

__all__ = ["IFDKConfig", "choose_grid"]


def subvolume_bytes(problem: ReconstructionProblem, rows: int) -> int:
    """Size in bytes of one row's float32 sub-volume (``N_sub_vol`` in Section 4.1.5)."""
    if rows <= 0:
        raise ValueError("rows must be positive")
    return problem.output_bytes() // rows


def fits_device_memory(
    problem: ReconstructionProblem,
    rows: int,
    *,
    device: DeviceSpec = TESLA_V100,
    projection_batch: int = DEFAULT_PROJECTION_BATCH,
) -> bool:
    """Section 4.1.5's rule: one rank's sub-volume next to its staging batch
    fits in device memory,

    ``sizeof(float)·(Nx·Ny·Nz / R + Nu·Nv·N_batch) <= N_gpu_mem_size``.
    """
    batch_bytes = problem.nu * problem.nv * projection_batch * 4
    return subvolume_bytes(problem, rows) + batch_bytes <= device.global_memory_bytes


def choose_grid(
    problem: ReconstructionProblem,
    n_gpus: int,
    *,
    device: DeviceSpec = TESLA_V100,
    projection_batch: int = DEFAULT_PROJECTION_BATCH,
) -> Tuple[int, int]:
    """Select ``(R, C)`` for ``n_gpus`` ranks following Section 4.1.5.

    ``R`` is the smallest power of two that divides ``n_gpus`` and passes
    :func:`fits_device_memory`; ``C = n_gpus / R``.  Raises when even
    ``R = n_gpus`` cannot satisfy the memory constraint.
    """
    if n_gpus <= 0:
        raise ValueError("n_gpus must be positive")
    r = 1
    while r <= n_gpus:
        if n_gpus % r == 0 and fits_device_memory(
            problem, r, device=device, projection_batch=projection_batch
        ):
            return r, n_gpus // r
        r *= 2
    raise ValueError(
        f"no feasible R <= {n_gpus}: the output volume "
        f"({problem.output_bytes() / 2**30:.1f} GiB) and a {projection_batch}-projection "
        f"staging batch do not fit even when split across all {n_gpus} GPUs of "
        f"{device.name}"
    )


@dataclass(frozen=True)
class IFDKConfig:
    """Complete configuration of one distributed reconstruction.

    Parameters
    ----------
    geometry:
        Acquisition geometry; also defines the output volume.
    rows, columns:
        ``R`` and ``C`` of the 2-D rank grid (Table 2).
    gpus_per_node:
        ``N_gpu_per_node`` (ABCI has 4); one MPI rank is launched per GPU.
    kernel:
        Name of the back-projection kernel variant (Table 3); ``L1-Tran`` is
        the paper's proposed kernel and the default.
    ramp_filter:
        Ramp-filter window used by the filtering stage.
    backend:
        Name of the :mod:`repro.backends` compute backend every rank uses
        for its filtering and back-projection numerics.
    workers:
        Optional worker-thread count for the ``parallel`` backend.  All
        ranks share one resolved backend instance — and therefore one
        worker pool — so ``R·C`` ranks never multiply the thread count.
    projection_batch:
        Projections staged per device batch (``N_batch`` = 32 in Listing 1).
    device:
        GPU model each rank is assumed to own (memory-capacity checks).
    """

    geometry: CBCTGeometry
    rows: int
    columns: int
    gpus_per_node: int = 4
    kernel: str = "L1-Tran"
    ramp_filter: str = "ram-lak"
    backend: str = "reference"
    workers: Optional[int] = None
    projection_batch: int = DEFAULT_PROJECTION_BATCH
    device: DeviceSpec = TESLA_V100

    def __post_init__(self) -> None:
        from ..backends import resolve_backend  # late import: backends import core

        get_kernel(self.kernel)  # a ValueError naming the valid kernels, before any run
        # Resolve once (raises ValueError on unknown names / bad workers);
        # the frozen dataclass stashes the instance outside its fields.
        object.__setattr__(
            self,
            "_compute_backend",
            resolve_backend(self.backend, workers=self.workers),
        )
        if self.rows <= 0 or self.columns <= 0:
            raise ValueError("rows and columns must be positive")
        if self.gpus_per_node <= 0:
            raise ValueError("gpus_per_node must be positive")
        if self.projection_batch <= 0:
            raise ValueError("projection_batch must be positive")
        geometry = self.geometry
        if geometry.np_ % (self.rows * self.columns) != 0:
            raise ValueError(
                f"Np = {geometry.np_} must be divisible by R*C = "
                f"{self.rows * self.columns} so every rank loads the same number "
                "of projections (Equation 5)"
            )
        if geometry.nz % self.rows != 0:
            raise ValueError(
                f"Nz = {geometry.nz} must be divisible by R = {self.rows} so the "
                "volume decomposes into equal Z slabs"
            )

    # ------------------------------------------------------------------ #
    @classmethod
    def from_plan(cls, plan, **overrides) -> "IFDKConfig":
        """Build the distributed configuration described by a plan.

        The plan must target ``ifdk`` semantics: ``rows`` and ``columns``
        set, an ideal (full-scan) scenario.  ``overrides`` pass through to
        the constructor for knobs the declarative plan does not carry
        (``gpus_per_node``, ``kernel``, ``projection_batch``, ``device``).
        """
        if plan.rows is None or plan.columns is None:
            raise ValueError(
                "an ifdk configuration needs the plan's rows and columns"
            )
        if not plan.resolved_scenario().is_ideal:
            raise ValueError(
                f"scenario {plan.scenario!r} runs single-node; the "
                "distributed pipeline only serves the ideal full scan"
            )
        return cls(
            geometry=plan.geometry,
            rows=plan.rows,
            columns=plan.columns,
            ramp_filter=plan.ramp_filter,
            backend=plan.backend,
            workers=plan.workers,
            **overrides,
        )

    # ------------------------------------------------------------------ #
    def compute_backend(self):
        """The resolved :class:`~repro.backends.base.ComputeBackend`.

        Every rank filters and back-projects on this single instance; with ``workers`` set it is a dedicated
        :class:`~repro.backends.TiledBackend` whose pool is shared by
        all ranks.
        """
        return self._compute_backend

    def close_backend(self) -> None:
        """Join the dedicated worker pool of an explicit ``workers`` count.

        A no-op for shared registry backends (``workers=None``).  Safe to
        call between reconstructions: a closed pool restarts lazily, so the
        framework closes it after every run without losing reusability.
        """
        if self.workers is not None:
            self._compute_backend.close()

    @property
    def n_ranks(self) -> int:
        """Total MPI ranks, ``N_ranks = R · C`` (Equation 4)."""
        return self.rows * self.columns

    @property
    def n_gpus(self) -> int:
        """Total GPUs, one per rank (Equation 6)."""
        return self.n_ranks

    @property
    def n_nodes(self) -> int:
        """Number of compute nodes, ``N_ranks / N_gpu_per_node`` (rounded up)."""
        return -(-self.n_ranks // self.gpus_per_node)

    @property
    def projections_per_rank(self) -> int:
        """``N_proj_per_rank = Np / (C · R)`` (Equation 5)."""
        return self.geometry.np_ // self.n_ranks

    @property
    def projections_per_column(self) -> int:
        """Projections handled by each column group, ``Np / C``."""
        return self.geometry.np_ // self.columns

    @property
    def slab_thickness(self) -> int:
        """Z slices per row's sub-volume."""
        return self.geometry.nz // self.rows

    @property
    def problem(self) -> ReconstructionProblem:
        """The reconstruction problem this configuration solves."""
        return self.geometry.problem()

    def validate_device_memory(self) -> None:
        """Enforce the Section 4.1.5 per-GPU memory constraint."""
        if not fits_device_memory(
            self.problem,
            self.rows,
            device=self.device,
            projection_batch=self.projection_batch,
        ):
            raise ValueError(
                f"a sub-volume of {self.slab_thickness} slices "
                f"({subvolume_bytes(self.problem, self.rows) / 2**30:.2f} GiB) plus a "
                f"{self.projection_batch}-projection batch does not fit in the "
                f"{self.device.global_memory_bytes / 2**30:.0f} GiB of {self.device.name}; "
                "increase R"
            )
