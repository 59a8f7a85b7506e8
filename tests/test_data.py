import json

import numpy as np
import pytest

from quatgan import cli
from quatgan import data as D
from quatgan.errors import DomainError, ShapeMismatchError
from quatgan.qtensor import QTensor


class TestEncapsulation:
    def test_black_image_is_zero_tensor(self):
        img = np.full((1, 3, 4, 4), -0.0)
        q = D.encapsulate_batch(img)
        assert np.all(q.data == 0.0)

    def test_pure_red_pixel(self):
        img = np.zeros((1, 3, 2, 2))
        img[0, 0, 0, 0] = 0.7
        q = D.encapsulate_batch(img)
        assert q.data[0].sum() == 0.0             # scalar part always zero
        assert q.data[1, 0, 0, 0, 0] == 0.7       # red on the i axis
        assert q.data[2:].sum() == 0.0

    def test_round_trip_bitwise(self, rng):
        """A single image, signed zero and both range ends included, comes
        back with the same bytes."""
        img = rng.uniform(-1, 1, size=(1, 3, 8, 8))
        img[0, 0, 0, :3] = (-0.0, -1.0, 1.0)
        out = D.decapsulate_batch(D.encapsulate_batch(img))
        assert out.dtype == img.dtype and out.shape == img.shape
        assert out.tobytes() == img.tobytes()

    def test_wrong_channel_count(self):
        with pytest.raises(ShapeMismatchError):
            D.encapsulate_batch(np.zeros((1, 4, 2, 2)))

    def test_decapsulate_clamps(self):
        q = QTensor(np.full((4, 1, 1, 2, 2), 3.0))
        out = D.decapsulate_batch(q)
        assert np.all(out == 1.0)

    def test_batch_round_trip(self, rng):
        imgs = rng.uniform(-1, 1, size=(5, 3, 4, 4))
        enc = D.encapsulate_batch(imgs)
        assert enc.shape == (5, 1, 4, 4)
        assert np.array_equal(D.decapsulate_batch(enc), imgs)


class TestSynthDataset:
    def test_seed_determinism(self):
        a = D.synth_dataset(12, 16, seed=5)
        b = D.synth_dataset(12, 16, seed=5)
        assert np.array_equal(a, b)
        c = D.synth_dataset(12, 16, seed=6)
        assert not np.array_equal(a, c)

    def test_count_and_range(self):
        imgs = D.synth_dataset(7, 8, seed=0)
        assert imgs.shape == (7, 3, 8, 8)
        assert np.all(imgs >= -1.0) and np.all(imgs <= 1.0)

    def test_channel_correlation(self):
        def channel_correlation(images):
            """Mean pairwise Pearson correlation between channels, over images."""
            total, count = 0.0, 0
            for img in images:
                c = np.corrcoef(img.reshape(3, -1))
                for a, b in ((0, 1), (0, 2), (1, 2)):
                    if np.isfinite(c[a, b]):
                        total += c[a, b]
                        count += 1
            return total / max(count, 1)

        imgs = D.synth_dataset(64, 16, seed=1)
        assert channel_correlation(imgs) > 0.3

    def test_size_validation(self):
        with pytest.raises(DomainError):
            D.synth_dataset(4, 17, seed=0)


class TestPPM:
    def test_header_law(self, tmp_path, rng):
        img = rng.uniform(-1, 1, size=(3, 5, 7))
        path = tmp_path / "x.ppm"
        D.write_ppm(path, img)
        raw = path.read_bytes()
        assert raw.startswith(b"P6\n7 5\n255\n")
        assert len(raw) == len(b"P6\n7 5\n255\n") + 3 * 5 * 7

    def test_round_trip_quantization(self, tmp_path, rng):
        img = rng.uniform(-1, 1, size=(3, 8, 8))
        path = tmp_path / "x.ppm"
        D.write_ppm(path, img)
        back = D.from_uint8(D.read_ppm(path))
        assert np.abs(back - img).max() <= 1.0 / 255.0 + 1e-12

    def test_u8_round_trip_bitwise(self, tmp_path, rng):
        u8 = rng.integers(0, 256, size=(4, 6, 3)).astype(np.uint8)
        path = tmp_path / "x.ppm"
        D.write_ppm(path, u8)
        assert np.array_equal(D.read_ppm(path), u8)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + b"\x00" * 10)
        with pytest.raises(DomainError):
            D.read_ppm(path)

    @pytest.mark.parametrize("header", [b"P6\nab 4\n255\n", b"P6\n4"])
    def test_malformed_header_field(self, tmp_path, header):
        path = tmp_path / "bad.ppm"
        path.write_bytes(header + b"\x00" * 48)
        with pytest.raises(DomainError):
            D.read_ppm(path)


class TestPackedAndLoader:
    def test_packed_round_trip(self, tmp_path, rng):
        imgs = rng.uniform(-1, 1, size=(6, 3, 8, 8))
        path = tmp_path / "data.qimg"
        D.save_packed(path, imgs)
        back = D.load_packed(path)
        assert back.shape == imgs.shape
        assert np.abs(back - imgs).max() <= 1.0 / 255.0 + 1e-12

    def test_loader_dispatches_file_and_dir(self, tmp_path, rng):
        imgs = rng.uniform(-1, 1, size=(3, 3, 8, 8))
        packed = tmp_path / "d.qimg"
        D.save_packed(packed, imgs)
        assert D.load_dataset(packed).shape == (3, 3, 8, 8)
        ppm_dir = tmp_path / "imgs"
        ppm_dir.mkdir()
        for i, im in enumerate(imgs):
            D.write_ppm(ppm_dir / f"im_{i}.ppm", im)
        loaded = D.load_dataset(ppm_dir)
        assert loaded.shape == (3, 3, 8, 8)
        assert np.abs(loaded - imgs).max() <= 1.0 / 255.0 + 1e-12

    def test_loader_rejects_empty_dir(self, tmp_path):
        with pytest.raises(DomainError):
            D.load_dataset(tmp_path)

    def test_packed_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DomainError):
            D.load_packed(path)

    def test_packed_short_header(self, tmp_path):
        path = tmp_path / "short.qimg"
        path.write_bytes(D.PACKED_MAGIC + b"\x01\x00")
        with pytest.raises(DomainError, match="header"):
            D.load_packed(path)

    def test_packed_without_images(self, tmp_path):
        path = tmp_path / "empty.qimg"
        D.save_packed(path, np.zeros((0, 8, 8, 3), dtype=np.uint8))
        with pytest.raises(DomainError, match="no images"):
            D.load_packed(path)

    def test_cli_train_on_truncated_dataset_exits_1(self, tmp_path, capsys):
        path = tmp_path / "short.qimg"
        path.write_bytes(D.PACKED_MAGIC + b"\x01\x00")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"model": "qsngan_toy8", "dataset": str(path),
                                   "out_dir": str(tmp_path / "run")}))
        assert cli.main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
