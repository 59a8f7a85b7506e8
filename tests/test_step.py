"""The training step by behaviour: the D and G objectives pull against each
other, the D step runs no input-gradient product for the images it is
given, and a short run brings its samples closer to the data."""

import numpy as np
import pytest

from quatgan import autodiff as ad
from quatgan import data as D
from quatgan import models as MD
from quatgan import train as T
from quatgan.qtensor import QTensor

BATCH = 6


class ScoreCritic:
    """An identity D: its input is D's (B, 1) decisions."""

    def forward(self, tape, x, leaves):
        return x


def _scores(rng, loss):
    """Real and fake scores: probabilities for qce, the estimates it scores;
    otherwise uniform components, whose sums fall on both sides of the
    hinge margins."""
    shape = (4, BATCH, 1)
    if loss == "qce":
        return [QTensor(rng.uniform(0.05, 0.95, shape)) for _ in range(2)]
    return [QTensor(rng.uniform(-1.0, 1.0, shape)) for _ in range(2)]


def _config(loss):
    model = "qdcgan_toy8" if loss == "qce" else "qsngan_toy8"
    return T.TrainConfig(model=model, loss=loss, batch_size=BATCH, synth={"n": 8, "size": 8})


@pytest.mark.parametrize("loss", ["hinge", "qce"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_d_and_g_losses_oppose(loss, seed):
    """Elementwise, descending D's loss raises its real scores and lowers
    its fake ones, and descending G's loss raises the fake scores:
    dL_D/d(real) <= 0, dL_D/d(fake) >= 0 and dL_G/d(fake) <= 0, each
    nonzero somewhere. The losses are ``train()``'s own."""
    config, critic = _config(loss), ScoreCritic()
    rng = np.random.default_rng(seed)
    real, fake = _scores(rng, loss)

    tape = ad.Tape()
    real_n, fake_n = tape.param("real", real), tape.param("fake", fake)
    d_loss = T._d_loss_node(config, tape, critic, {}, real_n, fake_n)
    d_grads = tape.backward(d_loss)

    tape = ad.Tape()
    fake_n = tape.param("fake", fake)
    g_grads = tape.backward(T._g_loss_node(config, critic.forward(tape, fake_n, {})))

    for grad, sign in ((d_grads["real"], -1), (d_grads["fake"], 1), (g_grads["fake"], -1)):
        assert np.all(sign * grad >= 0.0) and np.any(grad != 0.0)


def _d_step_row_gemms_t(monkeypatch, model, loss, sn):
    """Calls of ``_row_gemms_t`` in one D step of ``model`` at batch 4, and the
    number of convs the step records."""
    config = T.TrainConfig(model=model, loss=loss, sn_mode=sn, batch_size=4,
                           synth={"n": 4, "size": 8})
    spec = MD.preset_spec(model)
    spec.sn = sn
    g, d = MD.build_gan(spec, dtype=np.float32)
    rng = np.random.default_rng(0)
    g.init_params(rng)
    d.init_params(rng)
    real = D.encapsulate_batch(rng.uniform(-1.0, 1.0, (4, 3, 8, 8)).astype(np.float32))
    fake = g.forward_array(T.make_noise(spec, 4, rng))

    calls = []
    row_gemms_t = ad._row_gemms_t

    def counted(*args):
        calls.append(args)
        return row_gemms_t(*args)

    monkeypatch.setattr(ad, "_row_gemms_t", counted)
    tape = ad.Tape()
    loss_node = T._d_loss_node(config, tape, d, d.bind(tape), tape.constant(real),
                               tape.constant(fake))
    tape.backward(loss_node)
    return len(calls), sum(node.op == "qconv2d" for node in tape.nodes)


@pytest.mark.parametrize("model,loss,sn,calls,convs", [
    # b0.conv1 and b0.sc read the real and the fake batch: 4 of 10 convs
    ("qsngan_toy8", "hinge", "full", 6, 10),
    # c0, D's only conv, reads the batch
    ("qdcgan_toy8", "qce", "none", 0, 2),
])
def test_d_step_skips_input_gradients_of_the_batches(monkeypatch, model, loss, sn, calls,
                                                     convs):
    """In a D step the real and fake batches are constants, so the convs that
    read them compute no input gradient: one ``_row_gemms_t`` per conv of
    the step but those."""
    assert _d_step_row_gemms_t(monkeypatch, model, loss, sn) == (calls, convs)


def _learning_run(tmp_path, model, loss, sn, seed):
    """The report of a 300-iteration ``train()`` run on 256 synthetic 8x8
    images at batch 16, with the Frechet distance taken on 64 samples at
    iterations 0, 100, 200 and 300."""
    config = T.TrainConfig(model=model, loss=loss, sn_mode=sn, seed=seed, batch_size=16,
                           iterations=300, eval_every=100, eval_samples=64, sample_count=1,
                           synth={"n": 256, "size": 8}, out_dir=str(tmp_path / "run"))
    return T.train(config)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_qdcgan_run_learns(tmp_path, seed):
    """qce: the distance at 300 iterations is below the one at 0. Seeds 0-2
    read 24.3 -> 21.6, 26.8 -> 22.9 and 26.6 -> 25.2 (5-15% below); with
    G's qce target set to zeros they read 40.9-43.0."""
    report = _learning_run(tmp_path, "qdcgan_toy8", "qce", "none", seed)
    assert report["fd_final"] < report["fd_init"]


def test_qsngan_run_learns(tmp_path):
    """hinge, full SN, seed 0: the best distance of the run is more than 5%
    below the one at 0. It reads 24.5, 20.1, 22.5 and 40.1, so the best is
    18% below; the late rise is a known open finding, not something this
    bound is set to pass or fail on. With the hinge loss's real and fake
    swapped it reads 24.5, 33.9, 87.7 and 137.2."""
    report = _learning_run(tmp_path, "qsngan_toy8", "hinge", "full", 0)
    assert report["fd_best"] < 0.95 * report["fd_init"]
