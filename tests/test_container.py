import hashlib
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import digested
from sigverify import container
from sigverify.container import (CONTAINER_VERSION, MAGIC, ContainerError,
                                 read_container, write_container)


def sample_payload(rng):
    meta = {"kind": "test", "alpha": "0.5", "name": "unit"}
    arrays = {
        "vec": rng.normal(size=11),
        "mat": rng.normal(size=(3, 5)),
        "cube": rng.normal(size=(2, 3, 4)),
    }
    return meta, arrays


class TestRoundTrip:
    def test_metadata_and_arrays_come_back_exact(self, tmp_path, rng):
        meta, arrays = sample_payload(rng)
        f = tmp_path / "m.bin"
        write_container(f, meta, arrays)
        meta2, arrays2 = read_container(f)
        assert meta2 == meta
        assert set(arrays2) == set(arrays)
        for name in arrays:
            assert arrays2[name].shape == arrays[name].shape
            assert np.array_equal(arrays2[name], arrays[name])

    def test_empty_metadata_and_no_arrays(self, tmp_path):
        f = tmp_path / "m.bin"
        write_container(f, {}, {})
        meta, arrays = read_container(f)
        assert meta == {} and arrays == {}

    def test_values_with_equals_signs_survive(self, tmp_path):
        f = tmp_path / "m.bin"
        write_container(f, {"expr": "a=b=c"}, {})
        meta, _ = read_container(f)
        assert meta["expr"] == "a=b=c"

    def test_non_ascii_names_survive(self, tmp_path):
        f = tmp_path / "m.bin"
        write_container(f, {"user": "Renée"}, {"σ": np.ones(2)})
        meta, arrays = read_container(f)
        assert meta["user"] == "Renée"
        assert np.array_equal(arrays["σ"], np.ones(2))


# names of 0 to 16 UTF-8 bytes put an array's values at every offset mod 8
NAMES = st.text(max_size=16).filter(lambda name: len(name.encode("utf-8")) <= 16)
SPECIAL_BITS = [0x7FF8000000000000, 0xFFF0000000000001, 0x7FF0DEADBEEF0001,  # NaN payloads
                0x8000000000000000, 0, 0x7FF0000000000000, 0xFFF0000000000000]  # -0, +0, +-inf
BITS = st.sampled_from(SPECIAL_BITS) | st.integers(0, 2**64 - 1)
VALUES = array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4).flatmap(
    lambda shape: arrays(np.uint64, shape, elements=BITS)).map(lambda a: a.view(np.float64))


class TestViews:
    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(NAMES, VALUES, max_size=5), st.text(max_size=9).filter(
        lambda value: "\n" not in value))
    def test_arrays_come_back_bit_for_bit_as_aligned_writeable_views(self, arrays, value):
        with tempfile.TemporaryDirectory() as tmp:
            f = Path(tmp) / "m.bin"
            write_container(f, {"k": value}, arrays)
            meta, back = read_container(f)
        assert meta == {"k": value} and set(back) == set(arrays)
        for name, arr in arrays.items():
            got = back[name]
            assert got.shape == arr.shape and got.dtype == np.float64
            assert np.array_equal(got.view(np.uint64), arr.view(np.uint64))
            assert got.flags.aligned and got.flags.c_contiguous and got.flags.writeable
            assert got.ctypes.data % 8 == 0
        for fill, arr in enumerate(back.values()):  # views of one buffer, disjoint
            arr[...] = fill
        for fill, arr in enumerate(back.values()):
            assert (arr == fill).all()


class TestMemory:
    # about 20 MB of values in two arrays
    ARRAYS = {"a": np.arange(1_300_000.0).reshape(1000, 1300) / 3, "b": -np.arange(1_200_001.0)}

    @staticmethod
    def _traced_peak(call, *args):
        tracemalloc.start()
        try:
            result = call(*args)
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    def test_a_read_holds_the_file_once(self, tmp_path):
        f = tmp_path / "big.bin"
        write_container(f, {"kind": "test"}, self.ARRAYS)
        size = f.stat().st_size
        peak, (_, arrays) = self._traced_peak(read_container, f)
        assert peak <= 1.1 * size, f"a read peaked at {peak / size:.2f}x the file"
        assert all(np.array_equal(arrays[k], v) for k, v in self.ARRAYS.items())

    def test_a_write_copies_no_array(self, tmp_path):
        f = tmp_path / "big.bin"
        peak, _ = self._traced_peak(write_container, f, {"kind": "test"}, self.ARRAYS)
        values = sum(arr.nbytes for arr in self.ARRAYS.values())
        assert peak <= 0.1 * values, f"a write allocated {peak / values:.2f}x its arrays"


class TestDeterminism:
    def test_same_payload_same_bytes(self, tmp_path, rng):
        meta, arrays = sample_payload(rng)
        f1, f2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_container(f1, meta, arrays)
        write_container(f2, dict(reversed(meta.items())),
                        dict(reversed(arrays.items())))
        assert f1.read_bytes() == f2.read_bytes()

    def test_a_fixed_container_keeps_its_bytes(self, tmp_path):
        # the SHA-256 of every byte of one container, as written since format 1
        f = tmp_path / "m.bin"
        write_container(f, {"kind": "test", "alpha": 0.5, "flag": True, "user": "Renée",
                            "count": 7},
                        {"ae.W1": np.arange(12.0).reshape(3, 4) / 7,
                         "b": np.array([-0.0, np.inf, -np.inf, 1e-310]),
                         "empty": np.zeros((0, 3)),
                         "σ": np.asfortranarray(np.arange(6.0).reshape(2, 3))})
        assert hashlib.sha256(f.read_bytes()).hexdigest() == (
            "d3b2c9821fc5caae9d5f43232e20ef98137185811f08d22cd83214df4e30aa88")

    def test_keys_are_stored_sorted(self, tmp_path):
        f = tmp_path / "m.bin"
        write_container(f, {"zeta": "1", "alpha": "2"}, {})
        raw = f.read_bytes()
        assert raw.index(b"alpha=2") < raw.index(b"zeta=1")


class TestCorruptionDetection:
    def test_flipped_payload_byte_is_caught(self, tmp_path, rng):
        meta, arrays = sample_payload(rng)
        f = tmp_path / "m.bin"
        write_container(f, meta, arrays)
        raw = bytearray(f.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        g = tmp_path / "flipped.bin"
        g.write_bytes(bytes(raw))
        with pytest.raises(ContainerError, match="checksum"):
            read_container(g)

    def test_truncated_file_is_caught(self, tmp_path, rng):
        meta, arrays = sample_payload(rng)
        f = tmp_path / "m.bin"
        write_container(f, meta, arrays)
        g = tmp_path / "truncated.bin"
        g.write_bytes(f.read_bytes()[:-40])
        with pytest.raises(ContainerError):
            read_container(g)

    # a 2-byte file, and a digest-valid one whose metadata length, 100, runs
    # past the 4 payload bytes left
    @pytest.mark.parametrize("raw", [
        b"SI", digested(MAGIC + struct.pack("<III", CONTAINER_VERSION, 100, 0))],
        ids=["short", "metadata-past-payload"])
    def test_tiny_file_is_caught(self, tmp_path, raw):
        f = tmp_path / "m.bin"
        f.write_bytes(raw)
        with pytest.raises(ContainerError, match=re.escape(f"{f}: truncated container")):
            read_container(f)

    def test_wrong_magic_is_caught(self, tmp_path, rng):
        f = tmp_path / "m.bin"
        f.write_bytes(digested(b"NOPE" + b"\x00" * 12))
        with pytest.raises(ContainerError, match="magic"):
            read_container(f)

    def test_unsupported_version_is_caught(self, tmp_path, rng):
        body = MAGIC + struct.pack("<I", CONTAINER_VERSION + 9)
        body += struct.pack("<I", 0) + struct.pack("<I", 0)
        f = tmp_path / "m.bin"
        f.write_bytes(digested(body))
        with pytest.raises(ContainerError, match="version"):
            read_container(f)

    def test_trailing_garbage_is_caught(self, tmp_path):
        body = MAGIC + struct.pack("<I", CONTAINER_VERSION)
        body += struct.pack("<I", 0) + struct.pack("<I", 0) + b"junk"
        f = tmp_path / "m.bin"
        f.write_bytes(digested(body))
        with pytest.raises(ContainerError, match="trailing"):
            read_container(f)

    @staticmethod
    def _one_array_container(path, shape):
        # a digest-valid container whose single array declares ``shape``
        body = MAGIC + struct.pack("<I", CONTAINER_VERSION)
        body += struct.pack("<I", 0) + struct.pack("<I", 1)
        body += struct.pack("<H", 1) + b"a" + struct.pack("<B", len(shape))
        body += struct.pack(f"<{len(shape)}Q", *shape)
        path.write_bytes(digested(body))

    def test_wrapping_element_count_is_caught(self, tmp_path):
        # 2**62 * 4 wraps a 64-bit element count to 0
        f = tmp_path / "m.bin"
        self._one_array_container(f, (2**62, 4))
        with pytest.raises(ContainerError, match="needs"):
            read_container(f)

    def test_zero_size_array_with_a_huge_dimension_is_caught(self, tmp_path):
        f = tmp_path / "m.bin"
        self._one_array_container(f, (0, 2**64 - 1))
        with pytest.raises(ContainerError, match="unusable shape"):
            read_container(f)

    def test_error_message_names_the_file(self, tmp_path):
        f = tmp_path / "broken.bin"
        f.write_bytes(b"x" * 64)
        with pytest.raises(ContainerError, match="broken.bin"):
            read_container(f)

    def test_file_size_limit(self, tmp_path, rng, monkeypatch):
        f = tmp_path / "big.bin"
        write_container(f, *sample_payload(rng))
        size = f.stat().st_size
        monkeypatch.setattr(container, "MAX_CONTAINER_BYTES", size)
        read_container(f)
        monkeypatch.setattr(container, "MAX_CONTAINER_BYTES", size - 1)
        with pytest.raises(ContainerError,
                           match=f"big.bin: file is {size} bytes, over the limit of {size - 1}"):
            read_container(f)


class TestByteLayout:
    def test_header_fields_sit_at_documented_offsets(self, tmp_path):
        f = tmp_path / "m.bin"
        write_container(f, {"k": "v"}, {"a": np.array([1.0, 2.0])})
        raw = f.read_bytes()
        assert raw[:4] == b"SIGC"
        assert struct.unpack_from("<I", raw, 4)[0] == CONTAINER_VERSION
        meta_len = struct.unpack_from("<I", raw, 8)[0]
        assert raw[12:12 + meta_len] == b"k=v\n"
        at = 12 + meta_len
        assert struct.unpack_from("<I", raw, at)[0] == 1  # one array
        at += 4
        name_len = struct.unpack_from("<H", raw, at)[0]
        at += 2
        assert raw[at:at + name_len] == b"a"
        at += name_len
        assert raw[at] == 1  # ndim
        at += 1
        assert struct.unpack_from("<Q", raw, at)[0] == 2  # shape
        at += 8
        assert np.frombuffer(raw[at:at + 16], dtype="<f8").tolist() == [1.0, 2.0]
        assert len(raw) == at + 16 + 32  # data then sha-256

    def test_row_major_element_order(self, tmp_path):
        f = tmp_path / "m.bin"
        mat = np.arange(6.0).reshape(2, 3)
        write_container(f, {}, {"m": np.asfortranarray(mat)})
        raw = f.read_bytes()
        flat = np.frombuffer(raw[-32 - 48:-32], dtype="<f8")
        assert flat.tolist() == [0, 1, 2, 3, 4, 5]


def _crafted(path, meta: bytes, names=()):
    """A digest-valid container of raw metadata bytes and one empty array per name."""
    body = MAGIC + struct.pack("<I", CONTAINER_VERSION)
    body += struct.pack("<I", len(meta)) + meta + struct.pack("<I", len(names))
    for name in names:
        body += struct.pack("<H", len(name)) + name + struct.pack("<BQ", 1, 0)
    path.write_bytes(digested(body))


class TestMalformedText:
    @staticmethod
    def _refused(path, message):
        with pytest.raises(ContainerError, match=re.escape(f"{path}: {message}")):
            read_container(path)

    def test_crafted_helper_makes_a_readable_container(self, tmp_path):
        f = tmp_path / "m.bin"
        _crafted(f, b"k=v\n", [b"a"])
        meta, arrays = read_container(f)
        assert meta == {"k": "v"} and arrays["a"].shape == (0,)

    def test_metadata_that_is_not_utf8_is_refused(self, tmp_path):
        f = tmp_path / "m.bin"
        _crafted(f, b"user_id=\xff\n")
        self._refused(f, "metadata is not UTF-8 text")

    def test_array_name_that_is_not_utf8_is_refused(self, tmp_path):
        f = tmp_path / "m.bin"
        _crafted(f, b"", [b"\xfe"])
        self._refused(f, "an array name is not UTF-8 text")

    def test_repeated_metadata_key_is_refused(self, tmp_path):
        f = tmp_path / "m.bin"
        _crafted(f, b"threshold=1.0\nthreshold=inf\n")
        self._refused(f, "metadata key 'threshold' is stored twice")

    def test_repeated_array_name_is_refused(self, tmp_path):
        f = tmp_path / "m.bin"
        _crafted(f, b"", [b"mean", b"mean"])
        self._refused(f, "array 'mean' is stored twice")

    def test_metadata_line_without_equals_is_refused(self, tmp_path):
        f = tmp_path / "m.bin"
        _crafted(f, b"kind=usermodel\nreg\n")
        self._refused(f, "metadata line 'reg' has no '='")

    @pytest.mark.parametrize("key, value", [("user_id", "a\nb"), ("a\nb", "v"),
                                            ("a=b", "v")])
    def test_unreadable_metadata_is_refused_on_write(self, tmp_path, key, value):
        f = tmp_path / "m.bin"
        with pytest.raises(ValueError, match="cannot store metadata"):
            write_container(f, {key: value}, {})
        assert not f.exists()

    def test_other_line_breaks_in_values_survive(self, tmp_path):
        f = tmp_path / "m.bin"
        meta = {"user_id": "a\rb\x0bc\x1cd\x85e\u2028f"}
        write_container(f, meta, {})
        assert read_container(f)[0] == meta
