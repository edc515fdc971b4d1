"""Unit tests for the standard and proposed back-projection algorithms.

Whole stacks go through the ``reference`` backend, the one whole-stack entry
point to :mod:`repro.core.backprojection`'s accumulators.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import get_backend
from repro.core.backprojection import (
    accumulate_proposed,
    operation_counts,
    projection_compute_reduction,
)
from repro.core.types import ProjectionStack, ReconstructionProblem


def backproject(stack, geometry, **kwargs):
    return get_backend("reference").backproject(stack, geometry, **kwargs)


class TestAlgorithmEquivalence:
    def test_proposed_equals_standard(self, small_geometry, small_filtered):
        std = backproject(small_filtered, small_geometry, algorithm="standard")
        new = backproject(small_filtered, small_geometry, algorithm="proposed")
        np.testing.assert_allclose(std.data, new.data, atol=2e-4 * np.abs(std.data).max() + 1e-6)

    def test_symmetry_off_equals_symmetry_on(self, small_geometry, small_filtered):
        # The ablation switch lives on the accumulator only: fold by hand.
        off = np.zeros(small_geometry.volume_shape[::-1], dtype=np.float32)
        matrices = small_geometry.projection_matrices(small_filtered.angles)
        for pm, projection in zip(matrices, small_filtered.data):
            accumulate_proposed(
                off, np.ascontiguousarray(projection.T), pm, use_symmetry=False
            )
        on = backproject(small_filtered, small_geometry)
        np.testing.assert_allclose(on.data, off.transpose(2, 1, 0), atol=1e-5)

    def test_slab_union_equals_full_volume(self, small_geometry, small_filtered):
        full = backproject(small_filtered, small_geometry)
        nz = small_geometry.nz
        parts = [
            backproject(small_filtered, small_geometry, z_range=(z, z + nz // 4)).data
            for z in range(0, nz, nz // 4)
        ]
        np.testing.assert_allclose(np.concatenate(parts, axis=0), full.data, atol=1e-6)

    def test_standard_slab_union_equals_full_volume(self, small_geometry, small_filtered):
        full = backproject(small_filtered, small_geometry, algorithm="standard")
        nz = small_geometry.nz
        parts = [
            backproject(
                small_filtered, small_geometry, algorithm="standard", z_range=(z, z + nz // 2)
            ).data
            for z in range(0, nz, nz // 2)
        ]
        np.testing.assert_allclose(np.concatenate(parts, axis=0), full.data, atol=1e-6)

    def test_asymmetric_slab_still_matches_standard(self, small_geometry, small_filtered):
        # A slab that does not contain its mirror slices exercises the
        # fallback (direct) path of the proposed algorithm.
        z_range = (3, 11)
        std = backproject(small_filtered, small_geometry, algorithm="standard", z_range=z_range)
        new = backproject(small_filtered, small_geometry, algorithm="proposed", z_range=z_range)
        np.testing.assert_allclose(std.data, new.data, atol=1e-4)

    def test_odd_nz_center_slice_handled(self, shepp_logan_phantom):
        from repro.core import default_geometry_for_problem, forward_project_analytic

        geo = default_geometry_for_problem(nu=32, nv=32, np_=8, nx=16, ny=16, nz=15)
        stack = forward_project_analytic(shepp_logan_phantom, geo)
        filt = get_backend("reference").filter_stack(stack, geo)
        std = backproject(filt, geo, algorithm="standard")
        new = backproject(filt, geo, algorithm="proposed")
        np.testing.assert_allclose(std.data, new.data, atol=1e-4)

    def test_volume_is_finite_and_nontrivial(self, small_geometry, small_filtered):
        vol = backproject(small_filtered, small_geometry)
        assert np.all(np.isfinite(vol.data))
        assert np.abs(vol.data).max() > 0.05


class TestAccumulatorSeam:
    """The accumulator the rank runtime drives directly."""

    @staticmethod
    def accumulator(geometry, **kwargs):
        return get_backend("reference").accumulator(geometry, **kwargs)

    def test_incremental_accumulation_matches_batch(self, small_geometry, small_filtered):
        reference = backproject(small_filtered, small_geometry)
        acc = self.accumulator(small_geometry, algorithm="proposed")
        # Feed projections in two chunks, as a rank does a step at a time.
        half = small_filtered.np_ // 2
        for part in (slice(None, half), slice(half, None)):
            acc.add_stack(ProjectionStack(
                data=small_filtered.data[part], angles=small_filtered.angles[part],
                filtered=True,
            ))
        np.testing.assert_array_equal(acc.volume().data, reference.data)

    def test_standard_algorithm_accumulator(self, small_geometry, small_filtered):
        reference = backproject(small_filtered, small_geometry, algorithm="standard")
        acc = self.accumulator(small_geometry, algorithm="standard")
        for angle, projection in small_filtered:
            acc.add(projection, float(angle))
        np.testing.assert_array_equal(acc.volume().data, reference.data)

    def test_z_range_accumulator(self, small_geometry, small_filtered):
        # Slices below the mid-plane are evaluated directly in both runs.
        z_range = (8, 16)
        full = backproject(small_filtered, small_geometry)
        acc = self.accumulator(small_geometry, z_range=z_range)
        acc.add_stack(small_filtered)
        np.testing.assert_array_equal(acc.volume().data, full.data[8:16])

    def test_add_stack_equals_one_add_per_projection(self, small_geometry, small_filtered):
        stacked = self.accumulator(small_geometry)
        stacked.add_stack(small_filtered)
        single = self.accumulator(small_geometry)
        for angle, projection in small_filtered:
            single.add(projection, float(angle))
        np.testing.assert_array_equal(stacked.volume().data, single.volume().data)

    def test_rejects_unknown_algorithm(self, small_geometry):
        with pytest.raises(ValueError):
            self.accumulator(small_geometry, algorithm="magic")

    def test_rejects_bad_z_range(self, small_geometry):
        with pytest.raises(ValueError):
            self.accumulator(small_geometry, z_range=(10, 5))

    def test_rejects_mismatched_projection_shape(self, small_geometry, small_filtered):
        acc = self.accumulator(small_geometry)
        with pytest.raises(ValueError, match="does not match detector"):
            acc.add(small_filtered.data[0][:-1], 0.0)
        with pytest.raises(ValueError, match="does not match detector"):
            acc.add_stack(ProjectionStack(
                data=small_filtered.data[:2, :-1], angles=small_filtered.angles[:2],
                filtered=True,
            ))


class TestOperationCounts:
    def test_standard_counts(self):
        p = ReconstructionProblem(nu=16, nv=16, np_=10, nx=8, ny=8, nz=8)
        counts = operation_counts(p, "standard")
        assert counts.inner_products == 3 * 8 * 8 * 8 * 10

    def test_proposed_counts_much_smaller(self):
        p = ReconstructionProblem(nu=16, nv=16, np_=10, nx=8, ny=8, nz=8)
        std = operation_counts(p, "standard")
        new = operation_counts(p, "proposed")
        assert new.inner_products < std.inner_products
        assert new.weighted_total < std.weighted_total

    def test_reduction_approaches_one_sixth(self):
        # Section 3.2.2: the projection computation cost tends to 1/6.
        p = ReconstructionProblem(nu=64, nv=64, np_=100, nx=512, ny=512, nz=512)
        ratio = projection_compute_reduction(p)
        assert ratio == pytest.approx(1.0 / 6.0, rel=0.02)

    def test_reduction_worse_for_shallow_volumes(self):
        shallow = ReconstructionProblem(nu=64, nv=64, np_=10, nx=128, ny=128, nz=2)
        deep = ReconstructionProblem(nu=64, nv=64, np_=10, nx=128, ny=128, nz=512)
        assert projection_compute_reduction(shallow) > projection_compute_reduction(deep)

    def test_unknown_algorithm_rejected(self):
        p = ReconstructionProblem(nu=4, nv=4, np_=2, nx=4, ny=4, nz=4)
        with pytest.raises(ValueError):
            operation_counts(p, "other")
