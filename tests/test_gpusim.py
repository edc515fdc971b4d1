"""Tests for the simulated GPU substrate (device, kernels, cost model)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import get_backend
from repro.core.interpolation import interp2
from repro.core.types import problem_from_string
from repro.gpusim import (
    BP_L1,
    KERNEL_VARIANTS,
    L1_TRAN,
    TESLA_V100,
    BackprojectionCostModel,
    DeviceSpec,
    get_kernel,
    predict_table4,
)
from repro.gpusim.kernels import BP_TEX, RTK_32, TEX_TRAN
from repro.bench import TABLE4_PROBLEMS


class TestDeviceSpec:
    def test_v100_constants(self):
        assert TESLA_V100.global_memory_bytes == 16 * 2**30
        assert TESLA_V100.warp_size == 32
        assert TESLA_V100.effective_dram_bandwidth < TESLA_V100.dram_bandwidth

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceSpec(
                name="bad", global_memory_bytes=0, dram_bandwidth=1, fp32_flops=1,
                l2_cache_bytes=1, sm_count=1,
            )


class TestKernelVariants:
    def test_table3_characteristics(self):
        # The characteristics matrix of Table 3, row by row.
        assert RTK_32.characteristics() == {
            "Texture cache": True, "L1 cache": False,
            "Transpose projection": False, "Transpose volume": False,
        }
        assert L1_TRAN.characteristics()["L1 cache"] is True
        assert L1_TRAN.characteristics()["Transpose projection"] is True
        assert BP_L1.characteristics()["Texture cache"] is False
        assert BP_L1.characteristics()["L1 cache"] is False
        assert TEX_TRAN.characteristics()["Transpose projection"] is True
        assert BP_TEX.characteristics()["Transpose projection"] is False

    def test_only_rtk_runs_algorithm2(self):
        assert RTK_32.algorithm == "standard"
        assert all(k.algorithm == "proposed" for k in KERNEL_VARIANTS if k is not RTK_32)

    def test_get_kernel_case_insensitive(self):
        assert get_kernel("l1-tran") is L1_TRAN
        with pytest.raises(ValueError):
            get_kernel("unknown-kernel")

    def test_rtk_output_size_limit(self):
        # RTK double-buffers the volume, so a 9 GiB output needs 18 GiB of
        # device memory and cannot run on a 16 GiB V100; the proposed
        # kernels write in place.
        assert RTK_32.device_output_bytes(9 * 2**30) > TESLA_V100.global_memory_bytes
        assert L1_TRAN.device_output_bytes(9 * 2**30) < TESLA_V100.global_memory_bytes
        assert RTK_32.supports_output_bytes(8 * 2**30)

    def test_kernel_execution_matches_reference(self, small_geometry, small_filtered):
        # What one kernel thread computes for its voxel, written out with the
        # scalar Algorithm 3 fetch: the sum over projections of Wdis = (1/z)^2
        # times the detector value at (u, v).  Checked against the whole
        # volume that ``reference`` folds for the kernel's algorithm, at a
        # corner, an interior voxel and both voxels of a Z-mirror pair.
        def voxel_value(i, j, k):
            total = 0.0
            for projection, angle in zip(small_filtered.data, small_filtered.angles):
                u, v, z = small_geometry.projection_matrix(float(angle)).project(i, j, k)
                total += interp2(projection, float(u), float(v)) / float(z) ** 2
            return total

        reference = get_backend("reference")
        k_pair = small_geometry.nz // 2 - 1
        voxels = [
            (0, 0, 0),
            (9, 21, 5),
            (small_geometry.nx - 1, 14, k_pair),
            (small_geometry.nx - 1, 14, small_geometry.nz - 1 - k_pair),
        ]
        for kernel in (RTK_32, L1_TRAN):
            volume = reference.backproject(
                small_filtered, small_geometry, algorithm=kernel.algorithm
            ).data
            for i, j, k in voxels:
                assert voxel_value(i, j, k) == pytest.approx(
                    float(volume[k, j, i]), rel=1e-5, abs=1e-6
                )

    def test_all_kernels_agree_numerically(self, small_geometry, small_filtered):
        # A kernel's voxel values are its algorithm's on the reference backend.
        reference = get_backend("reference")
        volumes = {
            algorithm: reference.backproject(
                small_filtered, small_geometry, algorithm=algorithm
            ).data
            for algorithm in {k.algorithm for k in KERNEL_VARIANTS}
        }
        for kernel in KERNEL_VARIANTS:
            np.testing.assert_allclose(
                volumes[kernel.algorithm], volumes[RTK_32.algorithm], atol=2e-4
            )


class TestCostModel:
    @pytest.fixture(scope="class")
    def table4(self):
        rows = predict_table4(TABLE4_PROBLEMS)
        return {r["problem"]: r for r in rows}

    def test_proposed_kernel_wins_at_small_alpha(self, table4):
        # The headline claim: L1-Tran beats RTK-32 for typical problems (alpha <= 1),
        # by a factor of at least ~1.4 (the paper reports up to 1.6-1.8x).
        row = table4["512x512x1024->1024x1024x1024"]
        assert row["L1-Tran"] > 1.4 * row["RTK-32"]

    def test_rtk_wins_for_tiny_outputs_with_huge_projections(self, table4):
        # The crossover of Table 4: 2k^2 projections into a 128^3 volume.
        row = table4["2048x2048x1024->128x128x128"]
        assert row["RTK-32"] > row["L1-Tran"]
        assert row["RTK-32"] > row["Bp-L1"]

    def test_gups_decreases_with_alpha_for_every_kernel(self, table4):
        # Within one input size, larger outputs (smaller alpha) give higher GUPS.
        for kernel in ("RTK-32", "L1-Tran", "Bp-L1", "Bp-Tex", "Tex-Tran"):
            series = [
                table4[f"1024x1024x1024->{s}"][kernel]
                for s in ("128x128x128", "256x256x256", "512x512x512", "1024x1024x1024")
            ]
            values = [v for v in series if v == v]
            assert values == sorted(values), f"{kernel} not monotone: {series}"

    def test_bp_l1_sensitive_to_projection_size(self, table4):
        # Bp-L1's plain global loads collapse once the projection exceeds L2.
        small_proj = table4["512x512x1024->1024x1024x1024"]["Bp-L1"]
        large_proj = table4["2048x2048x1024->1024x1024x1024"]["Bp-L1"]
        assert small_proj > 1.5 * large_proj

    def test_l1_tran_beats_bp_l1_everywhere(self, table4):
        for row in table4.values():
            if row["Bp-L1"] == row["Bp-L1"]:  # not NaN
                assert row["L1-Tran"] > row["Bp-L1"]

    def test_rtk_na_for_outputs_beyond_8gb(self, table4):
        row = table4["512x512x1024->1024x1024x2048"]
        assert row["RTK-32"] != row["RTK-32"]  # NaN marks the paper's N/A

    def test_timing_breakdown_components_positive(self):
        model = BackprojectionCostModel()
        timing = model.timing(L1_TRAN, problem_from_string("512x512x1024->512x512x512"))
        assert timing.prep_seconds > 0
        assert timing.update_seconds > 0
        assert timing.total_seconds > timing.update_seconds
        assert timing.gups > 0

    def test_throughput_scales_with_device(self):
        p = problem_from_string("512x512x1024->512x512x512")
        from repro.gpusim import DeviceSpec

        A100_40GB = DeviceSpec(
            name="A100 40GB",
            global_memory_bytes=40 * 1024**3,
            dram_bandwidth=1555e9,
            fp32_flops=19.5e12,
            l2_cache_bytes=40 * 1024 * 1024,
            sm_count=108,
        )
        v100 = BackprojectionCostModel(TESLA_V100).gups(L1_TRAN, p)
        a100 = BackprojectionCostModel(A100_40GB).gups(L1_TRAN, p)
        assert a100 > v100
