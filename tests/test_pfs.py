"""Tests for the simulated parallel file system."""

from __future__ import annotations

import ast
import re
import threading
import time

import numpy as np
import pytest

from repro.core.types import ProjectionStack
from repro.pfs import (
    PFSConfig,
    SimulatedPFS,
    dataset_angles,
    read_projection_subset,
    read_volume,
    write_projection_dataset,
    write_volume_slices,
)
from repro.pfs import storage
from repro.pfs.projection_io import projection_object_name


#: The two ways to load one object: a fresh array, or into the caller's.
READERS = {
    "read_array": lambda pfs, name: pfs.read_array(name),
    "read_into": lambda pfs, name: pfs.read_into(name, np.empty((4, 4), dtype=np.float32)),
}


class TestPFSConfig:
    def test_defaults_match_paper(self):
        config = PFSConfig()
        assert config.write_bandwidth == pytest.approx(28.5e9)

    def test_stripe_efficiency(self):
        config = PFSConfig(stripe_size=1 << 20, stripe_count=16)
        assert config.stripe_efficiency(32 << 20) == 1.0
        assert config.stripe_efficiency(1 << 20) == pytest.approx(1 / 16)

    def test_small_files_slower_per_byte(self):
        config = PFSConfig()
        per_byte_small = config.write_seconds(1 << 20) / (1 << 20)
        per_byte_large = config.write_seconds(256 << 20) / (256 << 20)
        assert per_byte_small > per_byte_large

    def test_validation(self):
        with pytest.raises(ValueError):
            PFSConfig(write_bandwidth=0)
        with pytest.raises(ValueError):
            PFSConfig(stripe_count=0)


class TestSimulatedPFS:
    def test_roundtrip_in_memory(self, rng):
        pfs = SimulatedPFS()
        data = rng.random((5, 6)).astype(np.float32)
        pfs.write_array("x", data)
        out = pfs.read_array("x")
        np.testing.assert_array_equal(out, data)
        assert out.dtype == np.float32

    def test_roundtrip_on_disk(self, rng, tmp_path):
        pfs = SimulatedPFS(root_dir=tmp_path)
        data = rng.random((3, 4, 5)).astype(np.float64)
        pfs.write_array("volumes/test/z1", data)
        np.testing.assert_array_equal(pfs.read_array("volumes/test/z1"), data)
        assert len(list(tmp_path.iterdir())) == 1

    def test_threads_reading_at_once_parse_headers_in_turn(self, monkeypatch):
        """CPython 3.11 counts the AST constructor's recursion in interpreter
        state, so two header parses interleaved (iFDK ranks reading their
        projections) could fail with ``SystemError`` ("AST constructor
        recursion depth mismatch").  A parse that yields the GIL midway
        must not let another reader's parse start.  Every read here is of a
        header the memo has not seen, so every read parses."""
        storage._read_header.cache_clear()
        inside, most, parses = [0], [0], [0]
        literal_eval = ast.literal_eval

        def yielding_literal_eval(text):
            inside[0] += 1
            parses[0] += 1
            most[0] = max(most[0], inside[0])
            time.sleep(0.001)
            try:
                return literal_eval(text)
            finally:
                inside[0] -= 1

        monkeypatch.setattr(ast, "literal_eval", yielding_literal_eval)
        pfs = SimulatedPFS()
        for n in range(40):
            pfs.write_array(f"x{n}", np.zeros((n + 1, 3), dtype=np.float32))
        readers = [
            threading.Thread(target=lambda t=t: [pfs.read_view(f"x{n}") for n in range(t, 40, 2)])
            for t in range(2)
        ]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(30)
        assert not any(reader.is_alive() for reader in readers)
        assert most[0] == 1 and parses[0] == 40

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_a_header_is_parsed_once_and_a_bad_one_never_kept(
        self, tmp_path, monkeypatch, on_disk
    ):
        """Objects that share a header share one parse, keyed on the header's
        exact bytes; the payload size is still checked per object, and a
        header that fails to parse is parsed again (and fails again) on every
        read."""
        storage._read_header.cache_clear()
        parsed = []
        literal_eval = ast.literal_eval
        monkeypatch.setattr(
            ast, "literal_eval", lambda text: parsed.append(text) or literal_eval(text)
        )
        pfs = SimulatedPFS(root_dir=tmp_path if on_disk else None)
        for n in range(3):
            pfs.write_array(f"p{n}", np.full((4, 4), n, dtype=np.float32))
        pfs.write_array("q", np.zeros((4, 4), dtype=np.float64))
        for n in range(3):
            assert pfs.read_array(f"p{n}")[0, 0] == n
            pfs.read_into(f"p{n}", np.empty((4, 4), dtype=np.float32))
        pfs.read_array("q")
        assert len(parsed) == 2  # '<f4' and '<f8': one parse each
        header = storage._encode_header(np.zeros((4, 4), dtype=np.float32))
        text = b"{'descr': '<f4', 'shape': (4, -4)}"
        bad = len(text).to_bytes(4, "little") + text
        for name, blob in [("short", header + bytes(60)), ("bad", bad + bytes(64))]:
            for _ in range(2):
                with pytest.raises(ValueError, match=f"corrupt PFS object '{name}'"):
                    storage._decode_blob(blob, name)
        assert len(parsed) == 4  # the cut payload hit the memo; the bad header never did
        assert storage._read_header.cache_info().currsize == 2

    @pytest.mark.parametrize("on_disk", [False, True])
    @pytest.mark.parametrize("read", READERS)
    def test_missing_object_raises(self, tmp_path, on_disk, read):
        with pytest.raises(KeyError):
            READERS[read](SimulatedPFS(root_dir=tmp_path if on_disk else None), "nope")

    @pytest.mark.parametrize("read", READERS)
    def test_hostile_header_is_refused_not_evaluated(self, tmp_path, read):
        # An on-disk object is outside input; the header used to go
        # through eval().
        pfs = SimulatedPFS(root_dir=tmp_path)
        marker = tmp_path.parent / "pwned"
        header = f"__import__('pathlib').Path({str(marker)!r}).touch()".encode("ascii")
        (tmp_path / "evil").write_bytes(len(header).to_bytes(4, "little") + header)
        with pytest.raises(ValueError, match="corrupt PFS object 'evil'"):
            READERS[read](pfs, "evil")
        assert not marker.exists()

    @pytest.mark.parametrize("read", READERS)
    @pytest.mark.parametrize("keep", [0, 3, 20, -8])
    def test_truncated_object_is_a_named_error(self, rng, tmp_path, keep, read):
        pfs = SimulatedPFS(root_dir=tmp_path)
        pfs.write_array("projections/000007", rng.random((4, 4)).astype(np.float32))
        path = tmp_path / "projections__000007"
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError, match="corrupt PFS object 'projections/000007'"):
            READERS[read](pfs, "projections/000007")

    @pytest.mark.parametrize("read", READERS)
    @pytest.mark.parametrize("header", [
        b"{'descr': '<f4', 'shape': (2, -1)}",
        b"{'descr': '|O', 'shape': (1,)}",
        b"{'descr': '<f4'}",
        b"['<f4', (2,)]",
        b"\xff\xfe",
    ])
    def test_malformed_header_is_a_named_error(self, tmp_path, header, read):
        pfs = SimulatedPFS(root_dir=tmp_path)
        blob = len(header).to_bytes(4, "little") + header + bytes(8)
        (tmp_path / "x").write_bytes(blob)
        with pytest.raises(ValueError, match="corrupt PFS object 'x'"):
            READERS[read](pfs, "x")

    @pytest.mark.parametrize("on_disk", [False, True])
    @pytest.mark.parametrize("stored", ["float32", "float64"])
    def test_read_into_fills_out_and_counts_one_read(self, rng, tmp_path, on_disk, stored):
        """Straight into ``out`` when the dtype matches, decoded and cast when
        it does not (a float64 dataset still loads); either way one file read
        of the object's full size, as :meth:`read_array` counts it."""
        pfs = SimulatedPFS(root_dir=tmp_path if on_disk else None)
        data = rng.standard_normal((3, 5)).astype(stored)
        pfs.write_array("a", data)
        out = np.full((3, 5), np.nan, dtype=np.float32)
        pfs.read_into("a", out)
        np.testing.assert_array_equal(out, data.astype(np.float32))
        assert pfs.stats.files_read == 1
        assert pfs.stats.bytes_read == pfs.stats.bytes_written
        wide = np.empty((3, 5), dtype=np.float64)
        pfs.read_into("a", wide[:, ::-1])  # not contiguous: decoded and copied
        np.testing.assert_array_equal(wide[:, ::-1], data.astype(np.float64))

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_read_into_refuses_another_shape(self, rng, tmp_path, on_disk):
        pfs = SimulatedPFS(root_dir=tmp_path if on_disk else None)
        pfs.write_array("a", rng.random((1, 5)).astype(np.float32))
        out = np.zeros((4, 5), dtype=np.float32)
        with pytest.raises(
            ValueError, match=r"corrupt PFS object 'a': shape \(1, 5\) where \(4, 5\)"
        ):
            pfs.read_into("a", out)
        assert not out.any()

    def test_good_object_round_trips_bit_identically_and_counts_one_read(self, rng, tmp_path):
        pfs = SimulatedPFS(root_dir=tmp_path)
        data = rng.standard_normal((3, 5, 7)).astype(np.float32)
        pfs.write_array("a", data)
        out = pfs.read_array("a")
        assert out.dtype == data.dtype and out.tobytes() == data.tobytes()
        assert pfs.stats.files_read == 1
        assert pfs.stats.bytes_read == (tmp_path / "a").stat().st_size

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_read_array_is_a_fresh_writable_copy_and_read_view_is_not(
        self, rng, tmp_path, on_disk
    ):
        pfs = SimulatedPFS(root_dir=tmp_path if on_disk else None)
        data = rng.standard_normal((4, 6)).astype(np.float32)
        pfs.write_array("a", data)
        out = pfs.read_array("a")
        assert out.flags.writeable and out.flags.owndata
        out[...] = 0.0  # the caller's array: the stored object does not move
        view = pfs.read_view("a")
        assert not view.flags.writeable and view.tobytes() == data.tobytes()
        assert pfs.stats.files_read == 2

    def test_statistics_accumulate(self, rng):
        pfs = SimulatedPFS()
        pfs.write_array("a", rng.random(100).astype(np.float32))
        pfs.read_array("a")
        assert pfs.stats.files_written == 1
        assert pfs.stats.files_read == 1
        assert pfs.stats.bytes_written > 400
        assert pfs.stats.modelled_write_seconds > 0

    def test_exists_list_delete(self, rng):
        pfs = SimulatedPFS()
        pfs.write_array("a", rng.random(4))
        pfs.write_array("b", rng.random(4))
        assert pfs.exists("a")
        assert pfs.list_objects() == ["a", "b"]
        pfs.delete("a")
        assert not pfs.exists("a")


class TestProjectionIO:
    def test_write_and_read_subset(self, small_projections):
        pfs = SimulatedPFS()
        write_projection_dataset(pfs, small_projections)
        subset = read_projection_subset(pfs, [3, 0, 5])
        np.testing.assert_array_equal(subset.data[0], small_projections.data[3])
        np.testing.assert_array_equal(subset.data[1], small_projections.data[0])
        assert subset.angles[2] == pytest.approx(small_projections.angles[5])
        # Read into one preallocated chunk: the caller's own.
        assert subset.data.flags.writeable and subset.data.dtype == np.float32
        assert pfs.stats.files_read == 4  # the angles object and three projections

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_a_misshaped_projection_is_named_not_broadcast(self, rng, tmp_path, on_disk):
        """One ``(1, 5)`` object among ``(4, 5)`` ones must not be broadcast
        over the rows of its slice: a named error with both shapes."""
        pfs = SimulatedPFS(root_dir=tmp_path if on_disk else None)
        stack = ProjectionStack(
            data=rng.random((6, 4, 5)).astype(np.float32), angles=np.arange(6.0)
        )
        write_projection_dataset(pfs, stack)
        pfs.write_array(projection_object_name(3), rng.random((1, 5)).astype(np.float32))
        with pytest.raises(ValueError, match=re.escape(
            "corrupt PFS object 'projections/000003': shape (1, 5) where (4, 5) is expected"
        )):
            read_projection_subset(pfs, range(6))

    def test_angles_stored(self, small_projections):
        pfs = SimulatedPFS()
        write_projection_dataset(pfs, small_projections)
        np.testing.assert_allclose(dataset_angles(pfs), small_projections.angles)

    def test_object_names(self):
        assert projection_object_name(7) == "projections/000007"
        with pytest.raises(ValueError):
            projection_object_name(-1)

    def test_out_of_range_index(self, small_projections):
        pfs = SimulatedPFS()
        write_projection_dataset(pfs, small_projections)
        with pytest.raises(IndexError):
            read_projection_subset(pfs, [small_projections.np_])

    def test_empty_subset_rejected(self, small_projections):
        pfs = SimulatedPFS()
        write_projection_dataset(pfs, small_projections)
        with pytest.raises(ValueError):
            read_projection_subset(pfs, [])


class TestVolumeIO:
    def test_slab_roundtrip(self, rng):
        pfs = SimulatedPFS()
        data = rng.random((8, 6, 4)).astype(np.float32)
        write_volume_slices(pfs, "vol", data[:4], z_offset=0)
        write_volume_slices(pfs, "vol", data[4:], z_offset=4)
        out = read_volume(pfs, "vol")
        np.testing.assert_array_equal(out.data, data)

    def test_slices_per_file_groups_objects(self, rng):
        pfs = SimulatedPFS()
        data = rng.random((8, 4, 4)).astype(np.float32)
        write_volume_slices(pfs, "vol", data, slices_per_file=4)
        assert len([n for n in pfs.list_objects() if n.startswith("volumes/vol")]) == 2

    def test_missing_volume_raises(self):
        with pytest.raises(KeyError):
            read_volume(SimulatedPFS(), "ghost")

    def test_invalid_args(self, rng):
        pfs = SimulatedPFS()
        with pytest.raises(ValueError):
            write_volume_slices(pfs, "v", rng.random((4, 4)))
        with pytest.raises(ValueError):
            write_volume_slices(pfs, "v", rng.random((4, 4, 4)), slices_per_file=0)


# --------------------------------------------------------------------------- #
# Property tests: round-trips across dtypes and memory layouts
# --------------------------------------------------------------------------- #
try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from hypothesis.extra import numpy as hnp

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is available in CI
    HAVE_HYPOTHESIS = False

ROUNDTRIP_DTYPES = ("float32", "float64", "float16", "int32", "uint16", "int8")


def _assert_lossless_roundtrip(array: np.ndarray) -> None:
    """write_array/read_array must preserve dtype, shape and every byte."""
    pfs = SimulatedPFS()
    pfs.write_array("obj", array)
    out = pfs.read_array("obj")
    assert out.dtype == array.dtype
    assert out.shape == array.shape
    np.testing.assert_array_equal(out, array)
    assert out.flags["C_CONTIGUOUS"]  # reads hand back clean dense arrays


def _strided_views(array: np.ndarray):
    """Non-contiguous views of ``array``: transposed, reversed, sliced."""
    views = [array.T]
    if array.ndim >= 1 and array.shape[0] > 1:
        views.append(array[::-1])
        views.append(array[::2])
    if array.ndim >= 2 and array.shape[1] > 1:
        views.append(array[:, ::-1])
    return views


if HAVE_HYPOTHESIS:

    @settings(max_examples=40, deadline=None)
    @given(
        dtype=st.sampled_from(ROUNDTRIP_DTYPES),
        shape=st.lists(st.integers(1, 7), min_size=1, max_size=3).map(tuple),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pfs_array_roundtrip_property(dtype, shape, seed):
        rng = np.random.default_rng(seed)
        array = (rng.random(shape) * 100 - 50).astype(dtype)
        _assert_lossless_roundtrip(array)
        for view in _strided_views(array):
            _assert_lossless_roundtrip(view)

else:  # pragma: no cover - exercised only without hypothesis

    @pytest.mark.parametrize("dtype", ROUNDTRIP_DTYPES)
    @pytest.mark.parametrize("seed", range(6))
    def test_pfs_array_roundtrip_property(dtype, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(1, 8, size=rng.integers(1, 4)))
        array = (rng.random(shape) * 100 - 50).astype(dtype)
        _assert_lossless_roundtrip(array)
        for view in _strided_views(array):
            _assert_lossless_roundtrip(view)


class TestRoundtripLayouts:
    """Projection/volume I/O round-trips on awkward inputs."""

    def test_projection_dataset_roundtrip_noncontiguous(self, rng):
        """A Fortran-ordered float64 acquisition survives the PFS unchanged."""
        data64 = np.asfortranarray(rng.random((5, 6, 8)))  # float64, F-order
        stack = ProjectionStack(data=data64, angles=np.linspace(0, 1, 5))
        pfs = SimulatedPFS()
        write_projection_dataset(pfs, stack)
        out = read_projection_subset(pfs, range(5))
        assert out.data.dtype == np.float32  # the stack normalizes to FP32
        np.testing.assert_array_equal(out.data, stack.data)
        np.testing.assert_array_equal(out.angles, stack.angles)

    def test_projection_subset_order_and_duplicates(self, rng):
        stack = ProjectionStack(
            data=rng.random((6, 4, 4)).astype(np.float32),
            angles=np.arange(6, dtype=np.float64),
        )
        pfs = SimulatedPFS()
        write_projection_dataset(pfs, stack)
        out = read_projection_subset(pfs, [4, 1, 1])
        np.testing.assert_array_equal(out.angles, [4.0, 1.0, 1.0])
        np.testing.assert_array_equal(out.data[1], out.data[2])
        np.testing.assert_array_equal(out.data[0], stack.data[4])

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("slices_per_file", [1, 3, 8])
    def test_volume_roundtrip_dtypes_and_striping(self, rng, dtype, slices_per_file):
        data = rng.random((8, 5, 7)).astype(dtype)[:, ::-1]  # non-contiguous
        pfs = SimulatedPFS()
        write_volume_slices(pfs, "vol", data, slices_per_file=slices_per_file)
        out = read_volume(pfs, "vol")
        # Volume normalizes to FP32; the bytes must survive the trip exactly.
        np.testing.assert_array_equal(out.data, data.astype(np.float32))
