"""Tests of the benchmark itself, on toy8 presets with two steps a round."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import hostspeed  # noqa: E402
from quatgan import data as D  # noqa: E402
from quatgan import train as T  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

TINY = dict(batch=4, n_images=32, eval_samples=16, per_round=2, final_round_trips=2)
TINY_WORKLOADS = {
    "sngan8": harness.Workload("sngan8", "qsngan_toy8", "hinge", "full", **TINY),
    "dcgan8": harness.Workload("dcgan8", "qdcgan_toy8", "qce", "none", **TINY),
    "sngan8_eval_ckpt": harness.Workload("sngan8_eval_ckpt", "qsngan_toy8", "hinge", "full",
                                         eval_ckpt=True, **TINY),
}


def run_tiny(wl, tmp_path, trace=False, seed=5):
    return harness.run(wl, seed, 0.01, trace, tmp_path / "work", "test-code")


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    hinge = harness.WORKLOADS["sngan16_hinge"]
    assert (hinge.model, hinge.batch, hinge.loss, hinge.sn_mode) == (
        "qsngan_toy16", 32, "hinge", "full")
    dcgan = harness.WORKLOADS["dcgan16_qce"]
    assert (dcgan.model, dcgan.batch, dcgan.loss, dcgan.sn_mode) == ("qdcgan_toy16", 32, "qce", "none")
    assert harness.WORKLOADS["sngan16_eval_ckpt"].eval_ckpt


@pytest.mark.parametrize("name", sorted(TINY_WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(name, trace, tmp_path):
    info, result = run_tiny(TINY_WORKLOADS[name], tmp_path, trace)
    assert result["correct"], info["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == (PER_LAYER if trace else END_TO_END)
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    json.dumps(result)


def test_reruns_repeat_digest_and_counts(tmp_path):
    wl = TINY_WORKLOADS["sngan8"]
    first, a = run_tiny(wl, tmp_path, trace=True)
    second, b = run_tiny(wl, tmp_path, trace=True)
    assert a["correct"] and b["correct"], (first["problems"], second["problems"])
    assert first["digest"] == second["digest"]
    exact = ("checkpoint.tensors", "checkpoint.zero_mb", "tape.nodes", "op.qconv2d.calls",
             "op.qconv2d.gflop", "op.qdense.calls")
    assert {k: a["metrics"][k] for k in exact} == {k: b["metrics"][k] for k in exact}


def test_seeds_of_different_widths_share_a_work_dir(tmp_path):
    """Records of one seed must not be held against another: the checkpoint's
    config text, and so its size, grows with the digits of the seed."""
    wl = TINY_WORKLOADS["sngan8_eval_ckpt"]
    for seed in (9, 10, 9):
        info, result = run_tiny(wl, tmp_path, seed=seed)
        assert result["correct"] and result["failed"] == 0, (seed, info["problems"])


def test_changed_digest_of_same_code_and_seed_fails_the_run(tmp_path):
    wl = TINY_WORKLOADS["sngan8"]
    info, _ = run_tiny(wl, tmp_path)
    records_path = tmp_path / "work" / "records.json"
    records = json.loads(records_path.read_text())
    key = next(k for k in records if k.startswith("digest|"))
    records[key] = "0" * 64
    records_path.write_text(json.dumps(records))
    info, result = run_tiny(wl, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_perturbed_round_fails_the_determinism_gate(tmp_path, monkeypatch):
    calls = []
    original = harness.set_up

    def set_up(wl, seed, images=None):
        s = original(wl, seed, images)
        calls.append(s)
        if len(calls) == 2:
            kernel = s.g.param_tensors()["g.out_conv.kernel"].data
            kernel.flat[0] = np.nextafter(kernel.flat[0], np.float32(np.inf))
        return s

    monkeypatch.setattr(harness, "set_up", set_up)
    info, result = run_tiny(TINY_WORKLOADS["sngan8"], tmp_path, trace=True)
    assert len(calls) == 2
    assert not result["correct"] and result["failed"] > 0
    assert any("digest" in p or "prefix" in p for p in info["problems"])


def _session_after_one_step(wl):
    s = harness.set_up(wl, seed=7)
    harness.train_step(s, harness.NullTracer())
    return s


@pytest.mark.parametrize("perturb", ["param", "adam", "step", "state", "rng", "iteration"])
def test_round_trip_check_detects_perturbed_reload(perturb, tmp_path):
    s = _session_after_one_step(TINY_WORKLOADS["sngan8"])
    path = tmp_path / "c.qgn"
    T.save_checkpoint(path, *s.checkpoint_args())
    loaded = list(T.load_checkpoint(path))
    assert harness.state_mismatches(s.checkpoint_args(), tuple(loaded)) == []
    config, g, d, g_adam, d_adam, rngs, iteration = loaded
    if perturb == "param":
        arr = d.param_tensors()["d.fc.kernel"].data
        arr.flat[3] = np.nextafter(arr.flat[3], np.float32(np.inf))
    elif perturb == "adam":
        arr = g_adam.v["g.fc.kernel"]
        arr.flat[0] = np.nextafter(arr.flat[0], np.float32(np.inf))
    elif perturb == "step":
        d_adam.step += 1
    elif perturb == "state":
        name, arr = next(iter(d.states().items()))
        arr.flat[0] = np.nextafter(arr.flat[0], np.inf)
    elif perturb == "rng":
        rngs["aux"].random()
    else:
        loaded[6] = iteration + 1
    assert harness.state_mismatches(s.checkpoint_args(), tuple(loaded))


def test_loop_matches_train(tmp_path):
    """The benchmark's round is the train() loop: same losses, distances and
    final parameters for the same seed and images."""
    wl = TINY_WORKLOADS["sngan8"]
    packed = tmp_path / "images.qimg"
    D.save_packed(packed, harness.make_images(3, wl.n_images, 8))
    images = D.load_dataset(str(packed))

    s = harness.set_up(wl, seed=11, images=images)
    tr = harness.NullTracer()
    harness.evaluate(s, tr)
    for _ in range(wl.per_round):
        harness.train_step(s, tr)
    harness.evaluate(s, tr)

    config = T.TrainConfig(model=wl.model, dataset=str(packed), batch_size=wl.batch,
                           iterations=wl.per_round, seed=11, sn_mode="full", loss="hinge",
                           eval_samples=wl.eval_samples, sample_count=1,
                           out_dir=str(tmp_path / "run"))
    report = T.train(config)
    expected = [report["fd_trace"][0][1]]
    for d_loss, g_loss in zip(report["d_losses"], report["g_losses"]):
        expected += [d_loss, g_loss]
    expected.append(report["fd_trace"][-1][1])
    assert s.trace == expected
    _, g, d, *_ = T.load_checkpoint(report["checkpoints"][-1])
    for live, saved in ((s.g, g), (s.d, d)):
        for name, p in live.param_tensors().items():
            assert p.data.tobytes() == saved.param_tensors()[name].data.tobytes(), name


def test_tail_has_ten_samples_beyond_or_is_the_median():
    assert harness.tail([float(i) for i in range(1, 31)]) == (20.0, 100 * 20 / 30, 10)
    value, pct, beyond = harness.tail([float(i) for i in range(1, 9)])
    assert (value, pct, beyond) == (5.0, 100 * 5 / 8, 3)


def test_host_speed_child_writes_in_work_dir_and_is_stopped(tmp_path):
    with hostspeed.HostSpeed(tmp_path) as host:
        host.poll()
        host.poll()  # within the period: no second sample
    assert host.proc.returncode == 0
    assert (tmp_path / "hostspeed.bin").stat().st_size == 2_000_000
    assert {k: len(v) for k, v in host.samples.items()} == {"compute": 1, "write": 1}
    assert all(f > 0 for f in host.factors().values())


def test_fails_without_sources(tmp_path):
    """In a directory holding only the benchmark, the command fails and
    prints no result."""
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "dcgan16_qce", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_traced_run_accounts_for_the_step(tmp_path):
    info, result = run_tiny(TINY_WORKLOADS["dcgan8"], tmp_path, trace=True)
    assert result["correct"], info["problems"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["trace.unattributed_ms"] >= 0
    assert 0 <= m["trace.unattributed_pct"] < 100
    assert m["phase.sn_ms"] == 0.0
    assert m["op.qtconv2d.calls"] > 0 and m["op.upsample2x.calls"] == 0
    spans = (tmp_path / "work" / info["spans"]).read_text().splitlines()
    assert any(json.loads(line)[0] == "step" for line in spans)


def test_time_outside_layer_spans_fails_the_traced_run(tmp_path, monkeypatch):
    original = harness.train_step

    def step_with_glue(s, tr):
        losses = original(s, tr)
        time.sleep(0.2)
        return losses

    monkeypatch.setattr(harness, "train_step", step_with_glue)
    info, result = run_tiny(TINY_WORKLOADS["dcgan8"], tmp_path, trace=True)
    assert not result["correct"]
    assert any("trace accounting" in p for p in info["problems"])
