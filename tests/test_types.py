"""Unit tests for repro.core.types."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.types import (
    DEFAULT_DTYPE,
    ProjectionStack,
    ReconstructionProblem,
    Volume,
    problem_from_string,
)


class TestReconstructionProblem:
    def test_basic_sizes(self):
        p = ReconstructionProblem(nu=2048, nv=2048, np_=4096, nx=4096, ny=4096, nz=4096)
        assert p.input_pixels == 2048 * 2048 * 4096
        assert p.output_voxels == 4096**3
        assert p.updates == 4096**3 * 4096

    def test_alpha_matches_paper_definition(self):
        # Table 4: 512^2 x 1k -> 128^3 has alpha = 128.
        p = problem_from_string("512x512x1024->128x128x128")
        assert p.alpha == pytest.approx(128.0)

    def test_alpha_below_one_for_large_outputs(self):
        p = problem_from_string("512x512x1024->1024x1024x2048")
        assert p.alpha == pytest.approx(1.0 / 8.0)

    def test_gups_definition(self):
        p = ReconstructionProblem(nu=4, nv=4, np_=2, nx=8, ny=8, nz=8)
        # GUPS = Nx*Ny*Nz*Np / (T * 2^30)
        assert p.gups(2.0) == pytest.approx(8 * 8 * 8 * 2 / (2.0 * 2**30))

    def test_gups_rejects_nonpositive_time(self):
        p = ReconstructionProblem(nu=4, nv=4, np_=2, nx=8, ny=8, nz=8)
        with pytest.raises(ValueError):
            p.gups(0.0)

    def test_bytes(self):
        p = ReconstructionProblem(nu=10, nv=20, np_=3, nx=4, ny=5, nz=6)
        assert p.input_bytes() == 10 * 20 * 3 * 4
        assert p.output_bytes() == 4 * 5 * 6 * 4
        assert p.output_bytes(itemsize=8) == 4 * 5 * 6 * 8

    @pytest.mark.parametrize("field", ["nu", "nv", "np_", "nx", "ny", "nz"])
    def test_rejects_nonpositive_dimensions(self, field):
        kwargs = dict(nu=4, nv=4, np_=4, nx=4, ny=4, nz=4)
        kwargs[field] = 0
        with pytest.raises(ValueError):
            ReconstructionProblem(**kwargs)

    def test_scaled_preserves_alpha_approximately(self):
        p = problem_from_string("2048x2048x4096->4096x4096x4096")
        q = p.scaled(1 / 32)
        assert q.nx == 128 and q.nu == 64
        assert q.alpha == pytest.approx(p.alpha, rel=0.2)

    def test_scaled_rejects_nonpositive_factor(self):
        p = problem_from_string("512x512x1024->128x128x128")
        with pytest.raises(ValueError):
            p.scaled(0)

    def test_str_roundtrip(self):
        p = problem_from_string("512x512x1024->128x128x128")
        assert problem_from_string(str(p)) == p


class TestProblemFromString:
    def test_k_suffix(self):
        p = problem_from_string("2kx2kx4096->4kx4kx4k")
        assert (p.nu, p.nv, p.np_) == (2048, 2048, 4096)
        assert (p.nx, p.ny, p.nz) == (4096, 4096, 4096)

    def test_invalid_spec_raises(self):
        with pytest.raises(ValueError):
            problem_from_string("512x512x1024")

    def test_invalid_dimension_raises(self):
        with pytest.raises(ValueError):
            problem_from_string("axbxc->1x2x3")

    def test_each_distinct_spec_is_parsed_once_within_a_bound(self):
        import inspect

        spec = "96x80x64->48x40x32"
        first = problem_from_string(spec)
        hits = problem_from_string.cache_info().hits
        assert problem_from_string(spec) is first  # frozen, so safe to share
        assert problem_from_string.cache_info().hits == hits + 1
        assert problem_from_string.cache_parameters()["maxsize"] is not None
        # Still the function its callers and the docs know.
        assert list(inspect.signature(problem_from_string).parameters) == ["spec"]
        assert problem_from_string.__doc__.startswith("Parse")

    def test_a_failed_parse_is_not_remembered(self):
        size = problem_from_string.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match="cannot parse"):
                problem_from_string("96x80->48x40x32")
        assert problem_from_string.cache_info().currsize == size


class TestProjectionStack:
    def test_shape_properties(self, rng):
        data = rng.random((5, 7, 9), dtype=np.float32)
        stack = ProjectionStack(data=data, angles=np.linspace(0, 1, 5))
        assert stack.np_ == 5 and stack.nv == 7 and stack.nu == 9
        assert len(stack) == 5
        assert stack.data.dtype == DEFAULT_DTYPE

    def test_angle_length_mismatch_raises(self, rng):
        data = rng.random((5, 7, 9), dtype=np.float32)
        with pytest.raises(ValueError):
            ProjectionStack(data=data, angles=np.zeros(4))

    def test_requires_3d(self, rng):
        with pytest.raises(ValueError):
            ProjectionStack(data=rng.random((5, 7)), angles=np.zeros(5))

    def test_iteration_yields_angle_image_pairs(self, rng):
        data = rng.random((3, 4, 4), dtype=np.float32)
        angles = np.array([0.0, 0.5, 1.0])
        stack = ProjectionStack(data=data, angles=angles)
        pairs = list(stack)
        assert len(pairs) == 3
        assert pairs[1][0] == pytest.approx(0.5)
        np.testing.assert_array_equal(pairs[2][1], data[2])

    def test_subset_copies(self, rng):
        data = rng.random((4, 3, 3), dtype=np.float32)
        stack = ProjectionStack(data=data, angles=np.arange(4.0))
        sub = stack.subset([2, 0])
        assert sub.np_ == 2
        assert sub.angles.tolist() == [2.0, 0.0]
        sub.data[0, 0, 0] = 99.0
        assert stack.data[2, 0, 0] != 99.0

    def test_copy_is_deep(self, rng):
        stack = ProjectionStack(data=rng.random((2, 3, 3)), angles=np.zeros(2))
        dup = stack.copy()
        dup.data[0, 0, 0] = 42.0
        assert stack.data[0, 0, 0] != 42.0


class TestVolume:
    def test_zeros_and_shape(self):
        v = Volume.zeros(nx=3, ny=4, nz=5)
        assert v.shape == (5, 4, 3)
        assert v.nx == 3 and v.ny == 4 and v.nz == 5
        assert v.nbytes == 3 * 4 * 5 * 4

    def test_requires_3d(self):
        with pytest.raises(ValueError):
            Volume(data=np.zeros((3, 3)))

    def test_rejects_bad_pitch(self):
        with pytest.raises(ValueError):
            Volume(data=np.zeros((2, 2, 2)), voxel_pitch=(1.0, 0.0, 1.0))

    def test_kmajor_roundtrip(self, rng):
        data = rng.random((4, 5, 6)).astype(np.float32)
        v = Volume(data=data)
        kmajor = v.to_kmajor()
        assert kmajor.shape == (6, 5, 4)
        back = Volume.from_kmajor(kmajor)
        np.testing.assert_array_equal(back.data, v.data)

    def test_from_kmajor_requires_3d(self):
        with pytest.raises(ValueError):
            Volume.from_kmajor(np.zeros((2, 2)))

    def test_slab(self, rng):
        v = Volume(data=rng.random((8, 4, 4)).astype(np.float32))
        slab = v.slab(2, 5)
        assert slab.nz == 3
        np.testing.assert_array_equal(slab.data, v.data[2:5])

    def test_slab_bounds_checked(self):
        v = Volume.zeros(4, 4, 4)
        with pytest.raises(ValueError):
            v.slab(3, 2)
        with pytest.raises(ValueError):
            v.slab(0, 9)
