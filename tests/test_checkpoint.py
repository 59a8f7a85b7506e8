import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from quatgan import checkpoint as C
from quatgan.errors import CheckpointError


class TestTensorFormat:
    def test_round_trip(self, tmp_path, rng):
        tensors = {
            "a.weight": rng.standard_normal((3, 4)).astype(np.float32),
            "b.bias": rng.standard_normal(5).astype(np.float32),
            "scalar": np.array([2.5], dtype=np.float32),
        }
        path = tmp_path / "t.qgn"
        C.save_tensors(path, tensors)
        back = C.load_tensors(path)
        assert set(back) == set(tensors)
        for k in tensors:
            assert np.array_equal(back[k], tensors[k])
            assert back[k].shape == tensors[k].shape

    def test_save_load_save_byte_identical(self, tmp_path, rng):
        tensors = {f"t{i}": rng.standard_normal((2, 2)).astype(np.float32) for i in range(4)}
        p1, p2 = tmp_path / "a.qgn", tmp_path / "b.qgn"
        C.save_tensors(p1, tensors)
        C.save_tensors(p2, C.load_tensors(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_keeps_old_file(self, tmp_path, rng):
        """A save that fails part way leaves the file it would replace
        byte-identical and no temporary file behind."""
        path = tmp_path / "t.qgn"
        C.save_tensors(path, {"a": rng.standard_normal(3).astype(np.float32)})
        old = path.read_bytes()
        # "a" is written before "b", which cannot be cast to f32
        bad = {"a": rng.standard_normal((4, 4)).astype(np.float32), "b": np.array(["x"])}
        with pytest.raises(ValueError):
            C.save_tensors(path, bad)
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]

    @settings(max_examples=150, deadline=None)
    @given(tensors=st.dictionaries(
        st.text(st.characters(exclude_categories=("Cs",)), max_size=12),
        arrays(np.float32, array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3)),
        max_size=6,
    ))
    def test_save_load_save_property(self, tensors):
        """Any f32 tensors of rank 0-4, zero-size sides included, keep their
        names, shapes and payload bytes, and a re-save is byte-identical."""
        with tempfile.TemporaryDirectory() as tmp:
            p1, p2 = Path(tmp, "a.qgn"), Path(tmp, "b.qgn")
            C.save_tensors(p1, tensors)
            back = C.load_tensors(p1)
            assert list(back) == sorted(tensors)
            for name, arr in tensors.items():
                assert back[name].shape == arr.shape
                assert back[name].tobytes() == arr.astype("<f4").tobytes()
            C.save_tensors(p2, back)
            assert p1.read_bytes() == p2.read_bytes()

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad.qgn"
        path.write_bytes(b"NOPE" + b"\x00" * 8)
        with pytest.raises(CheckpointError, match="bad checkpoint magic") as exc:
            C.load_tensors(path)
        assert exc.value.offset == 0

    def test_older_format_refused_by_name(self, tmp_path):
        path = tmp_path / "old.qgn"
        path.write_bytes(b"QGN1" + b"\x00" * 8)
        with pytest.raises(CheckpointError,
                           match="format QGN1 is not supported: this build reads QGN2") as exc:
            C.load_tensors(path)
        assert exc.value.offset == 0

    def test_truncation_reports_offset(self, tmp_path, rng):
        tensors = {"w": rng.standard_normal((4, 4)).astype(np.float32)}
        path = tmp_path / "t.qgn"
        C.save_tensors(path, tensors)
        blob = path.read_bytes()
        cut = len(blob) - 9
        path.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError) as exc:
            C.load_tensors(path)
        assert exc.value.offset is not None
        assert exc.value.offset <= cut

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        tensors = {"w": rng.standard_normal(3).astype(np.float32)}
        path = tmp_path / "t.qgn"
        C.save_tensors(path, tensors)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CheckpointError):
            C.load_tensors(path)


class TestStatePacking:
    def test_text_round_trip(self):
        cfg = '{"model": "qsngan_toy16", "seed": 3}'
        assert C.unpack_text(C.pack_text(cfg)) == cfg

    def test_count_survives_f32_file(self, tmp_path):
        counts = [0, 2**24 + 1, 2**64 - 1]
        path = tmp_path / "c.qgn"
        C.save_tensors(path, {f"c{i}": C.pack_count(n) for i, n in enumerate(counts)})
        back = C.load_tensors(path)
        assert [C.unpack_count(back[f"c{i}"], "c") for i in range(3)] == counts
        for n in (-1, 2**64):
            with pytest.raises(CheckpointError):
                C.pack_count(n)

    def test_rng_state_round_trip_continues_stream(self):
        gen = np.random.default_rng(1234)
        gen.standard_normal(17)  # advance
        packed = C.pack_rng_state(gen)
        clone = C.unpack_rng_state(packed)
        a = gen.standard_normal(8)
        b = clone.standard_normal(8)
        assert np.array_equal(a, b)

    def test_rng_state_survives_f32_file(self, tmp_path):
        gen = np.random.default_rng(77)
        gen.integers(0, 10, size=3)
        path = tmp_path / "r.qgn"
        C.save_tensors(path, {"rng": C.pack_rng_state(gen)})
        clone = C.unpack_rng_state(C.load_tensors(path)["rng"])
        assert np.array_equal(gen.standard_normal(4), clone.standard_normal(4))
