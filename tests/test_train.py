import json
import os
import re

import numpy as np
import pytest

from quatgan import checkpoint as C
from quatgan import cli
from quatgan import data as D
from quatgan import models as MD
from quatgan import train as T
from quatgan.errors import CheckpointError, ConfigError, NumericError
from quatgan.qtensor import QTensor


def toy_config(tmp_path, **overrides):
    base = dict(
        model="qsngan_toy8",
        synth={"n": 32, "size": 8, "seed": 3},
        batch_size=4,
        iterations=6,
        critic_iters=1,
        seed=11,
        sn_mode="full",
        loss="hinge",
        checkpoint_every=3,
        eval_every=3,
        eval_samples=16,
        sample_count=4,
        out_dir=str(tmp_path / "run"),
    )
    base.update(overrides)
    return T.TrainConfig(**base)


# Config values that TrainConfig refuses before a run starts.
CONFIG_FAULTS = {
    "string_batch_size": {"batch_size": "4"},
    **{f"float_{name}": {name: 4.5} for name in (
        "batch_size", "iterations", "critic_iters", "seed", "checkpoint_every",
        "eval_every", "eval_samples", "sample_count")},
    "bool_iterations": {"iterations": True},
    "eval_samples_zero": {"eval_samples": 0},
    "eval_samples_one": {"eval_samples": 1},
    "negative_checkpoint_every": {"checkpoint_every": -1},
    "negative_eval_every": {"eval_every": -2},
    "negative_seed": {"seed": -1},
    "negative_synth_seed": {"synth": {"n": 8, "size": 8, "seed": -1}},
    "synth_lacks_n": {"synth": {"size": 8}},
    "synth_string_n": {"synth": {"n": "8", "size": 8}},
    "synth_float_seed": {"synth": {"n": 8, "size": 8, "seed": 0.5}},
    "synth_unknown_key": {"synth": {"n": 8, "size": 8, "depth": 3}},
    "synth_not_object": {"synth": [8, 8]},
    "string_lr": {"lr": "0.1"},
    "nan_lr": {"lr": float("nan")},
    "zero_lr": {"lr": 0},
    "beta1_one": {"beta1": 1.0},
    "bool_beta1": {"beta1": True},
    "negative_beta2": {"beta2": -0.1},
    "infinite_beta2": {"beta2": float("inf")},
    "wgan_gp_loss": {"loss": "wgan_gp"},
    "lambda_gp_field": {"lambda_gp": 10.0},
    "int_out_dir": {"out_dir": 5},
    "empty_out_dir": {"out_dir": ""},
    "list_dataset": {"dataset": ["a"], "synth": None},
}


class TestConfig:
    def test_round_trip_json_has_all_fields(self, tmp_path):
        cfg = toy_config(tmp_path)
        text = cfg.to_json()
        parsed = json.loads(text)
        assert set(parsed) == set(T.TrainConfig.__dataclass_fields__)
        assert T.TrainConfig.from_json(text).to_json() == text

    def test_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            toy_config(tmp_path, critic_iters=0)
        with pytest.raises(ConfigError):
            toy_config(tmp_path, batch_size=1)
        with pytest.raises(ConfigError):
            toy_config(tmp_path, loss="qce")  # qce pairs with qdcgan
        with pytest.raises(ConfigError):
            toy_config(tmp_path, synth=None)  # neither dataset nor synth
        with pytest.raises(ConfigError):
            T.TrainConfig.from_json('{"model": "qsngan_toy8", "bogus": 1}')

    def test_sample_count_below_one_refused(self, tmp_path):
        with pytest.raises(ConfigError):
            toy_config(tmp_path, sample_count=0)

    def test_emit_samples_refuses_count_below_one(self, tmp_path):
        spec = MD.preset_spec("qsngan_toy8")
        g, _ = MD.build_gan(spec, dtype=np.float32)
        with pytest.raises(ConfigError):
            T.emit_samples(g, spec, 0, str(tmp_path / "s"), np.random.default_rng(0))

    @pytest.mark.parametrize("case", ["malformed_json", "non_integer_seed", "negative_env_seed",
                                      *CONFIG_FAULTS])
    def test_cli_config_error_exits_1(self, tmp_path, capsys, monkeypatch, case):
        raw = json.loads(toy_config(tmp_path).to_json())
        raw.update(CONFIG_FAULTS.get(case, {}))
        text = json.dumps(raw)
        if case == "malformed_json":
            text = text[:-2]
        elif case == "non_integer_seed":
            monkeypatch.setenv("QGAN_SEED", "abc")
        elif case == "negative_env_seed":
            monkeypatch.setenv("QGAN_SEED", "-5")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(text)
        assert cli.main(["train", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("command", ["eval", "sample"])
    def test_cli_count_below_one_exits_1(self, tmp_path, capsys, toy_checkpoint, command):
        data = tmp_path / "images.qimg"
        D.save_packed(data, D.synth_dataset(4, 8))
        out = tmp_path / "s"
        argv = ([command, "--checkpoint", toy_checkpoint, "--n", "-3"]
                + (["--data", str(data)] if command == "eval" else ["--out", str(out)]))
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "sample"])
    def test_cli_negative_seed_exits_1(self, tmp_path, capsys, toy_checkpoint, command):
        data = tmp_path / "images.qimg"
        D.save_packed(data, D.synth_dataset(4, 8))
        out = tmp_path / "s"
        argv = ([command, "--checkpoint", toy_checkpoint, "--seed", "-1"]
                + (["--data", str(data)] if command == "eval" else ["--out", str(out)]))
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("config error: seed must be nonnegative")
        assert not out.exists()

    def test_cli_samples_load_as_an_eval_dataset(self, tmp_path, capsys):
        cfg = toy_config(tmp_path, model="qdcgan_toy8", loss="qce", sn_mode="none",
                         iterations=1, checkpoint_every=0, eval_every=0)
        checkpoint = T.train(cfg)["checkpoints"][-1]
        out = tmp_path / "samples"
        assert cli.main(["sample", "--checkpoint", checkpoint, "--out", str(out),
                         "--n", "5"]) == 0
        assert sorted(os.listdir(out)) == [f"sample_{i:03d}.ppm" for i in range(5)]
        assert (tmp_path / "samples_grid.ppm").exists()
        assert cli.main(["eval", "--checkpoint", checkpoint, "--data", str(out)]) == 0
        assert "frechet distance (pixels features, 5 samples)" in capsys.readouterr().out

    def test_cli_eval_names_the_packed_format_for_an_image_file(self, tmp_path, capsys,
                                                                toy_checkpoint):
        """A sample grid passed to ``eval --data`` is refused with a message
        that says a file is read as a packed dataset and images go in a
        directory."""
        out = tmp_path / "s"
        assert cli.main(["sample", "--checkpoint", toy_checkpoint, "--out", str(out),
                         "--n", "4"]) == 0
        capsys.readouterr()
        grid = str(tmp_path / "s_grid.ppm")
        assert cli.main(["eval", "--checkpoint", toy_checkpoint, "--data", grid]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {grid}: bad magic")
        assert "read as a packed dataset" in err and "as a directory" in err

    def test_dataset_size_mismatch(self, tmp_path):
        cfg = toy_config(tmp_path, synth={"n": 8, "size": 16, "seed": 0})
        with pytest.raises(ConfigError):
            T.train(cfg)

    def test_cli_eval_refuses_other_image_size(self, tmp_path, capsys):
        cfg = toy_config(tmp_path, model="qdcgan_toy8", loss="qce", sn_mode="none",
                         iterations=1, checkpoint_every=0, eval_every=0)
        checkpoint = T.train(cfg)["checkpoints"][-1]
        data = tmp_path / "images16.qimg"
        D.save_packed(data, D.synth_dataset(4, 16))
        assert cli.main(["eval", "--checkpoint", checkpoint, "--data", str(data)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: dataset images are 16x16 but model 'qdcgan_toy8'")

    def test_cli_train_prints_the_largest_sigma(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(toy_config(tmp_path, iterations=2, checkpoint_every=0,
                                       eval_every=1).to_json())
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        with open(tmp_path / "run" / "report.json") as fh:
            trace = json.load(fh)["sigma_trace"]
        assert [it for it, _ in trace] == [0, 1, 2]
        worst = max(max(sigmas.values()) for _, sigmas in trace)
        line = "max sigma over discriminator layers and eval points: "
        assert f"{line}{worst:.4f}" in capsys.readouterr().out.splitlines()


class TestTrainingLoop:
    def test_zero_iterations_reports_initial_state(self, tmp_path):
        cfg = toy_config(tmp_path, iterations=0)
        report = T.train(cfg)
        assert report["d_losses"] == [] and report["g_losses"] == []
        assert report["fd_trace"][0][0] == 0
        assert report["fd_init"] == report["fd_best"] == report["fd_final"]
        assert os.path.exists(report["checkpoints"][-1])

    def test_runs_and_reports(self, tmp_path):
        report = T.train(toy_config(tmp_path))
        assert len(report["g_losses"]) == 6
        assert all(np.isfinite(v) for v in report["g_losses"])
        assert [it for it, _ in report["fd_trace"]] == [0, 3, 6]
        assert len(report["checkpoints"]) == 3  # iters 3, 6 + final
        assert os.path.exists(os.path.join(cfgdir(report), "report.json"))
        for p in report["samples"]:
            assert os.path.exists(p)

    def test_fixed_seed_bitwise_reruns(self, tmp_path):
        cfg = toy_config(tmp_path, out_dir=str(tmp_path / "a"))
        r1 = T.train(cfg)
        f1 = open(os.path.join(tmp_path, "a", "checkpoint_final.qgn"), "rb").read()
        s1 = open(r1["samples"][-1], "rb").read()
        r2 = T.train(toy_config(tmp_path, out_dir=str(tmp_path / "a")))  # identical config
        f2 = open(os.path.join(tmp_path, "a", "checkpoint_final.qgn"), "rb").read()
        s2 = open(r2["samples"][-1], "rb").read()
        assert r1["d_losses"] == r2["d_losses"]
        assert r1["g_losses"] == r2["g_losses"]
        assert r1["fd_trace"] == r2["fd_trace"]
        assert f1 == f2
        assert s1 == s2

    def test_different_seed_differs(self, tmp_path):
        r1 = T.train(toy_config(tmp_path, out_dir=str(tmp_path / "a")))
        r2 = T.train(toy_config(tmp_path, seed=12, out_dir=str(tmp_path / "b")))
        assert r1["g_losses"] != r2["g_losses"]

    # qdcgan_toy16 has QBN gains, real-kind parameters, in G and in D
    @pytest.mark.parametrize("model,loss,sn,size", [("qsngan_toy8", "hinge", "full", 8),
                                                    ("qdcgan_toy16", "qce", "none", 16)])
    def test_resume_matches_uninterrupted(self, tmp_path, model, loss, sn, size):
        run = dict(model=model, loss=loss, sn_mode=sn, synth={"n": 32, "size": size, "seed": 3},
                   checkpoint_every=8, eval_every=8)
        full = T.train(toy_config(tmp_path, iterations=16, out_dir=str(tmp_path / "full"), **run))

        part_cfg = toy_config(tmp_path, iterations=16, out_dir=str(tmp_path / "part"), **run)
        # run the first half by training with the same config but stopping at 8
        half_cfg = toy_config(tmp_path, iterations=8, out_dir=str(tmp_path / "part"), **run)
        T.train(half_cfg)
        mid = os.path.join(tmp_path, "part", "checkpoint_000008.qgn")
        resumed = T.train(part_cfg, resume_from=mid)
        assert resumed["g_losses"] == full["g_losses"][8:]
        assert resumed["d_losses"] == full["d_losses"][8:]
        # tensor payloads must match bitwise; meta.config differs in out_dir only
        from quatgan import checkpoint as C

        a = C.load_tensors(os.path.join(tmp_path, "full", "checkpoint_final.qgn"))
        b = C.load_tensors(os.path.join(tmp_path, "part", "checkpoint_final.qgn"))
        assert set(a) == set(b)
        for name in a:
            if name == "meta.config":
                continue
            assert np.array_equal(a[name], b[name]), name

    def test_resume_rejects_different_trajectory_fields(self, tmp_path):
        T.train(toy_config(tmp_path))
        mid = os.path.join(tmp_path, "run", "checkpoint_000003.qgn")
        with pytest.raises(ConfigError, match=r"differs in: seed$"):
            T.train(toy_config(tmp_path, seed=12), resume_from=mid)
        with pytest.raises(ConfigError, match=r"differs in: lr, seed$"):
            T.train(toy_config(tmp_path, seed=12, lr=1e-3), resume_from=mid)

    def test_resume_rejects_different_eval_cadence_under_sn(self, tmp_path):
        T.train(toy_config(tmp_path, sn_mode="full"))
        mid = os.path.join(tmp_path, "run", "checkpoint_000003.qgn")
        with pytest.raises(ConfigError, match=r"differs in: eval_every$"):
            T.train(toy_config(tmp_path, sn_mode="full", eval_every=2), resume_from=mid)

    def test_resume_rejects_iterations_below_checkpoint(self, tmp_path):
        T.train(toy_config(tmp_path))
        last = os.path.join(tmp_path, "run", "checkpoint_000006.qgn")
        with pytest.raises(ConfigError, match="below the checkpoint's iteration 6"):
            T.train(toy_config(tmp_path, iterations=4, out_dir=str(tmp_path / "r")),
                    resume_from=last)

    def test_resume_accepts_new_out_dir_and_checkpoint_cadence(self, tmp_path):
        full = T.train(toy_config(tmp_path, iterations=8, checkpoint_every=4, eval_every=4,
                                  out_dir=str(tmp_path / "full")))
        T.train(toy_config(tmp_path, iterations=4, checkpoint_every=4, eval_every=4,
                           out_dir=str(tmp_path / "half")))
        resumed = T.train(toy_config(tmp_path, iterations=8, checkpoint_every=2, eval_every=4,
                                     out_dir=str(tmp_path / "rest")),
                          resume_from=os.path.join(tmp_path, "half", "checkpoint_000004.qgn"))
        assert resumed["g_losses"] == full["g_losses"][4:]
        assert resumed["d_losses"] == full["d_losses"][4:]
        assert [os.path.basename(p) for p in resumed["checkpoints"]] == [
            "checkpoint_000006.qgn", "checkpoint_000008.qgn", "checkpoint_final.qgn"]
        assert_same_final_state(tmp_path / "full", tmp_path / "rest")

    @pytest.mark.parametrize("half", [0, 4])
    def test_resume_from_final_checkpoint_off_eval_cadence(self, tmp_path, half):
        full = T.train(toy_config(tmp_path, iterations=8, checkpoint_every=0, eval_every=0,
                                  out_dir=str(tmp_path / "full")))
        T.train(toy_config(tmp_path, iterations=half, checkpoint_every=4, eval_every=0,
                           out_dir=str(tmp_path / "half")))
        final = os.path.join(tmp_path, "half", "checkpoint_final.qgn")
        if half:
            # the final save comes before the closing off-cadence eval, so it
            # holds the same state as the in-loop save of that iteration
            in_loop = os.path.join(tmp_path, "half", f"checkpoint_{half:06d}.qgn")
            assert open(final, "rb").read() == open(in_loop, "rb").read()
        resumed = T.train(toy_config(tmp_path, iterations=8, checkpoint_every=0, eval_every=0,
                                     out_dir=str(tmp_path / "rest")), resume_from=final)
        assert resumed["g_losses"] == full["g_losses"][half:]
        assert resumed["d_losses"] == full["d_losses"][half:]
        assert_same_final_state(tmp_path / "full", tmp_path / "rest")

    def test_resume_report_has_no_initial_distance(self, tmp_path, capsys):
        half = toy_config(tmp_path, iterations=4, checkpoint_every=4, eval_every=4)
        T.train(half)
        mid = os.path.join(half.out_dir, "checkpoint_000004.qgn")
        resumed = T.train(toy_config(tmp_path, iterations=8, checkpoint_every=4,
                                     eval_every=4), resume_from=mid)
        assert resumed["start_iteration"] == 4
        assert [it for it, _ in resumed["fd_trace"]] == [8]
        assert resumed["fd_init"] is None
        assert resumed["fd_final"] == resumed["fd_trace"][-1][1]

        cfg_path = tmp_path / "resume.json"
        cfg_path.write_text(toy_config(tmp_path, iterations=8, checkpoint_every=4, eval_every=4,
                                       out_dir=str(tmp_path / "cli")).to_json())
        capsys.readouterr()
        assert cli.main(["train", "--config", str(cfg_path), "--resume", mid]) == 0
        assert "fd init n/a" in capsys.readouterr().out

    def test_critic_iteration_audit(self, tmp_path):
        cfg = toy_config(tmp_path, critic_iters=5, iterations=4, checkpoint_every=0,
                         eval_every=0)
        report = T.train(cfg)
        assert all(len(v) == 5 for v in report["d_losses"])
        _, _, _, g_adam, d_adam, _, it = T.load_checkpoint(
            os.path.join(cfg.out_dir, "checkpoint_final.qgn"))
        assert it == 4
        assert g_adam.step == 4
        assert d_adam.step == 20  # exactly 5 discriminator updates per generator update

    def test_nan_aborts_with_diagnostic(self, tmp_path):
        cfg = toy_config(tmp_path, lr=1e18, iterations=50, checkpoint_every=0, eval_every=0)
        with pytest.warns(RuntimeWarning), pytest.raises(NumericError) as exc:
            T.train(cfg)
        diag = exc.value.diagnostic
        assert "iteration" in diag and "d_param_norms" in diag


def cfgdir(report):
    return report["config"]["out_dir"]


def assert_same_final_state(dir_a, dir_b):
    """Final checkpoints of two runs hold equal tensors, apart from the config."""
    a = C.load_tensors(os.path.join(dir_a, "checkpoint_final.qgn"))
    b = C.load_tensors(os.path.join(dir_b, "checkpoint_final.qgn"))
    assert set(a) == set(b)
    for name in a:
        if name != "meta.config":
            assert np.array_equal(a[name], b[name]), name


class TestCheckpointIntegration:
    def test_checkpoint_round_trip_bitwise(self, tmp_path):
        cfg = toy_config(tmp_path)
        report = T.train(cfg)
        path = report["checkpoints"][-1]
        config, g, d, g_adam, d_adam, rngs, it = T.load_checkpoint(path)
        path2 = str(tmp_path / "resaved.qgn")
        T.save_checkpoint(path2, config, g, d, g_adam, d_adam, rngs, it)
        assert open(path, "rb").read() == open(path2, "rb").read()

    def test_loaded_generator_reproduces_samples(self, tmp_path):
        cfg = toy_config(tmp_path)
        report = T.train(cfg)
        config, g, *_ = T.load_checkpoint(report["checkpoints"][-1])
        spec = MD.preset_spec(config.model)
        spec.sn = config.sn_mode
        rng1 = np.random.default_rng(0)
        rng2 = np.random.default_rng(0)
        imgs1 = T.generate_images(g, spec, 4, rng1)
        config2, g2, *_ = T.load_checkpoint(report["checkpoints"][-1])
        imgs2 = T.generate_images(g2, spec, 4, rng2)
        assert np.array_equal(imgs1, imgs2)

    def test_qdcgan_family_trains(self, tmp_path):
        cfg = T.TrainConfig(
            model="qdcgan_toy8",
            synth={"n": 16, "size": 8, "seed": 5},
            batch_size=4,
            iterations=3,
            loss="qce",
            sn_mode="none",
            seed=2,
            eval_samples=8,
            sample_count=2,
            out_dir=str(tmp_path / "dc"),
        )
        report = T.train(cfg)
        assert len(report["g_losses"]) == 3
        assert all(np.isfinite(v) for v in report["g_losses"])


@pytest.fixture(scope="module")
def toy_checkpoint(tmp_path_factory):
    """A 4-iteration qsngan_toy8 checkpoint with Adam moments and SN vectors."""
    tmp = tmp_path_factory.mktemp("ckpt")
    cfg = toy_config(tmp, iterations=4, checkpoint_every=4, eval_every=0)
    T.train(cfg)
    return os.path.join(cfg.out_dir, "checkpoint_000004.qgn")


def _write_bytes_at(path, edits):
    """Overwrite single bytes of ``path`` in place: ``edits`` maps offset to byte."""
    with open(path, "r+b") as fh:
        for pos, byte in edits.items():
            fh.seek(pos)
            fh.write(bytes([byte]))


def _load_edited(tmp_path, source, edit):
    """Apply ``edit`` to the tensor dict of ``source``, save, and reload it."""
    tensors = {k: np.array(v) for k, v in C.load_tensors(source).items()}
    edit(tensors)
    path = str(tmp_path / "edited.qgn")
    C.save_tensors(path, tensors)
    return T.load_checkpoint(path)


class TestCheckpointLoader:
    def test_fuzzed_header_loads_or_raises_checkpoint_error(self, tmp_path, toy_checkpoint):
        """Truncations and byte flips in the first 2 KB either load or raise
        CheckpointError; no other exception escapes the loader."""
        blob = open(toy_checkpoint, "rb").read()
        rng = np.random.default_rng(2104)
        # the whole file is written once; each flip case edits its bytes in
        # place and puts them back, and each truncation writes its own prefix
        flipped, cut = tmp_path / "flipped.qgn", tmp_path / "cut.qgn"
        flipped.write_bytes(blob)
        outcomes = {"loaded": 0, "refused": 0}
        for case in range(300):
            edits = {}
            if case % 3 == 0:
                cut.write_bytes(blob[: int(rng.integers(0, 2048))])
                path = cut
            else:
                for pos in rng.integers(0, 2048, size=int(rng.integers(1, 4))):
                    pos = int(pos)
                    edits[pos] = edits.get(pos, blob[pos]) ^ int(rng.integers(1, 256))
                _write_bytes_at(flipped, edits)
                path = flipped
            try:
                T.load_checkpoint(str(path))
                outcomes["loaded"] += 1
            except CheckpointError:
                outcomes["refused"] += 1
            _write_bytes_at(flipped, {pos: blob[pos] for pos in edits})
        assert outcomes["refused"] > 0 and sum(outcomes.values()) == 300

    def test_non_utf8_tensor_name(self, tmp_path, toy_checkpoint):
        data = bytearray(open(toy_checkpoint, "rb").read())
        data[10] = 0xFF  # first byte of the first tensor name
        path = tmp_path / "name.qgn"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            T.load_checkpoint(str(path))

    @pytest.mark.parametrize("text", [b"\xff\xfe", b"{not json", b"[1, 2]", b"42",
                                      b'{"model": "nope"}', b'{"model": "qsngan_toy8", "x": 1}'])
    def test_bad_config_text(self, tmp_path, toy_checkpoint, text):
        def edit(t):
            t["meta.config"] = np.frombuffer(text, dtype=np.uint8).astype(np.float32)

        with pytest.raises(CheckpointError):
            _load_edited(tmp_path, toy_checkpoint, edit)

    @pytest.mark.parametrize("case", [
        "missing_config", "missing_iteration", "fractional_iteration", "missing_param",
        "missing_rng", "unknown_param", "unknown_kind", "unknown_net", "unknown_state",
        "unknown_adam_slot", "misshaped_param", "misshaped_state", "misshaped_sn_vector",
        "misshaped_moment", "misshaped_rng", "bad_adam_step", "stale_qbn_state",
        "one_float_iteration", "adam_step_limb_overflow",
    ])
    def test_structural_faults(self, tmp_path, toy_checkpoint, case):
        def first(t, prefix):
            return sorted(k for k in t if k.startswith(prefix))[0]

        def edit(t):
            if case == "missing_config":
                del t["meta.config"]
            elif case == "missing_iteration":
                del t["meta.iteration"]
            elif case == "fractional_iteration":
                t["meta.iteration"] = np.array([2.5, 0, 0, 0], dtype=np.float32)
            elif case == "one_float_iteration":
                t["meta.iteration"] = np.array([4.0], dtype=np.float32)
            elif case == "missing_param":
                del t[first(t, "param.g.")]
            elif case == "missing_rng":
                del t["rng.aux"]
            elif case == "unknown_param":
                t["param.g.bogus.kernel"] = np.zeros(3, dtype=np.float32)
            elif case == "unknown_kind":
                t["zzz.g.x"] = np.zeros(1, dtype=np.float32)
            elif case == "unknown_net":
                t["param.x.kernel"] = np.zeros(1, dtype=np.float32)
            elif case == "unknown_state":
                t["state.d.bogus"] = np.zeros(1, dtype=np.float32)
            elif case == "unknown_adam_slot":
                t["adam.g.x." + first(t, "param.g.")[8:]] = np.zeros(1, dtype=np.float32)
            elif case == "misshaped_param":
                name = first(t, "param.d.")
                t[name] = t[name].reshape(-1)
            elif case == "misshaped_state":
                name = first(t, "state.d.")
                t[name] = np.concatenate([t[name].reshape(-1), [0.0]]).astype(np.float32)
            elif case == "misshaped_sn_vector":
                name = next(k for k in sorted(t) if k.endswith(".sn_u"))
                t[name] = t[name][:-1]
            elif case == "misshaped_moment":
                name = first(t, "adam.d.m.")
                t[name] = t[name][..., :1]
            elif case == "misshaped_rng":
                t["rng.noise"] = t["rng.noise"][:-1]
            elif case == "bad_adam_step":
                t["adam.g.step"] = np.array([-1.0, 0, 0, 0], dtype=np.float32)
            elif case == "adam_step_limb_overflow":
                t["adam.d.step"] = np.array([4.0, 65536.0, 0, 0], dtype=np.float32)
            elif case == "stale_qbn_state":
                # QBN kept running statistics in checkpoints written before
                # it became batch-statistics only
                t["state.g.g.b1.bn1.running_mean"] = np.zeros((4, 8), dtype=np.float32)

        with pytest.raises(CheckpointError) as info:
            _load_edited(tmp_path, toy_checkpoint, edit)
        if case == "stale_qbn_state":
            assert "state.g.g.b1.bn1.running_mean" in str(info.value)

    @pytest.mark.parametrize("prefix", ["adam.d.step", "adam.g.m.", "state.d.d.b0.conv1.sn_u"])
    def test_incomplete_checkpoint_names_missing_tensor(self, tmp_path, toy_checkpoint, prefix):
        name = sorted(k for k in C.load_tensors(toy_checkpoint) if k.startswith(prefix))[0]
        with pytest.raises(CheckpointError, match=re.escape(name)):
            _load_edited(tmp_path, toy_checkpoint, lambda t: t.pop(name))

    def test_moment_in_step_zero_checkpoint_refused(self, tmp_path):
        """At Adam step 0 a checkpoint holds no moments, so one is unknown."""
        cfg = toy_config(tmp_path, iterations=0, eval_every=0)
        T.train(cfg)
        source = os.path.join(cfg.out_dir, "checkpoint_final.qgn")
        name = "adam.g.m.g.fc.kernel"

        def edit(t):
            t[name] = np.zeros_like(t["param.g.g.fc.kernel"])

        with pytest.raises(CheckpointError, match=re.escape(name)):
            _load_edited(tmp_path, source, edit)

    def test_unedited_checkpoint_still_loads(self, tmp_path, toy_checkpoint):
        config, g, d, g_adam, d_adam, rngs, it = _load_edited(tmp_path, toy_checkpoint,
                                                               lambda t: None)
        assert it == 4 and g_adam.step == 4 and set(rngs) == set(T.RNG_STREAMS)

    @pytest.mark.parametrize("count", [2**24 + 1, 2**40 + 3])
    def test_counters_past_f32_integers_round_trip(self, tmp_path, toy_checkpoint, count):
        config, g, d, g_adam, d_adam, rngs, _ = T.load_checkpoint(toy_checkpoint)
        g_adam.step, d_adam.step = count, count + 2
        path = str(tmp_path / "big.qgn")
        T.save_checkpoint(path, config, g, d, g_adam, d_adam, rngs, count + 4)
        _, _, _, g_adam, d_adam, _, iteration = T.load_checkpoint(path)
        assert (g_adam.step, d_adam.step, iteration) == (count, count + 2, count + 4)

    def test_sample_on_corrupt_checkpoint_exits_3(self, tmp_path, toy_checkpoint):
        data = bytearray(open(toy_checkpoint, "rb").read())
        data[10] = 0xFF
        bad = tmp_path / "bad.qgn"
        bad.write_bytes(bytes(data))
        short = tmp_path / "short.qgn"
        short.write_bytes(bytes(data[:100]))
        for path in (bad, short):
            argv = ["sample", "--checkpoint", str(path), "--out", str(tmp_path / "s"), "--n", "1"]
            assert cli.main(argv) == 3


@pytest.mark.parametrize("model,sn", [("qsngan_toy8", "none"), ("qsngan_toy8", "split"),
                                      ("qsngan_toy8", "full"), ("qdcgan_toy8", "none")])
def test_save_load_save_is_byte_identical(tmp_path, model, sn):
    loss = "hinge" if model.startswith("qsngan") else "qce"
    cfg = toy_config(tmp_path, model=model, loss=loss, sn_mode=sn, iterations=2,
                     checkpoint_every=0, eval_every=0)
    path = T.train(cfg)["checkpoints"][-1]
    sn_names = {k.rsplit(".", 1)[-1] for k in C.load_tensors(path) if ".sn_u" in k}
    assert sn_names == {"none": set(), "full": {"sn_u"},
                        "split": {"sn_u0", "sn_u1", "sn_u2", "sn_u3"}}[sn]
    resaved = str(tmp_path / "resaved.qgn")
    T.save_checkpoint(resaved, *T.load_checkpoint(path))
    assert open(path, "rb").read() == open(resaved, "rb").read()


# qdcgan_toy8 has no real-kind parameter; qdcgan_toy16 has a QBN gain in G and D
@pytest.mark.parametrize("model,loss,sn,size", [("qsngan_toy8", "hinge", "full", 8),
                                                ("qdcgan_toy16", "qce", "none", 16)])
def test_training_keeps_real_kind_state_real(tmp_path, monkeypatch, model, loss, sn, size):
    """After training, every real-kind parameter (a ``RealDense`` kernel and
    bias, a QBN gain) and both its Adam moments are plain arrays at the
    parameter's true shape, with no component axis, and the checkpoint
    stores each at that shape."""
    saved = []
    save = T.save_checkpoint

    def spy(path, config, g, d, g_adam, d_adam, rngs, iteration):
        saved.append((g, d, g_adam, d_adam))
        save(path, config, g, d, g_adam, d_adam, rngs, iteration)

    monkeypatch.setattr(T, "save_checkpoint", spy)
    report = T.train(toy_config(tmp_path, model=model, loss=loss, sn_mode=sn, iterations=3,
                                synth={"n": 32, "size": size, "seed": 3}, checkpoint_every=0,
                                eval_every=0))
    (g, d, g_adam, d_adam), = saved
    tensors = C.load_tensors(report["checkpoints"][-1])
    checked = []
    for net, net_model, adam in (("g", g, g_adam), ("d", d, d_adam)):
        true_shapes = {}
        for m in net_model.leaf_modules():
            if isinstance(m, MD.RealDense):
                true_shapes[f"{m.name}.kernel"] = (m.out_f, m.in_f)
                true_shapes[f"{m.name}.bias"] = (m.out_f,)
            elif isinstance(m, MD.QBN):
                true_shapes[f"{m.name}.gamma"] = (m.channels,)
        params = net_model.parameters()
        real = {k for k, p in params.items() if not isinstance(p.value, QTensor)}
        assert real == true_shapes.keys()
        for k, shape in true_shapes.items():
            for name, arr in ((f"param.{net}.{k}", params[k].value),
                              (f"adam.{net}.m.{k}", adam.m[k]), (f"adam.{net}.v.{k}", adam.v[k])):
                assert type(arr) is np.ndarray and arr.shape == shape, name
                assert tensors[name].shape == shape, name
            checked.append(k)
    assert any(k.endswith(".gamma") for k in checked)
