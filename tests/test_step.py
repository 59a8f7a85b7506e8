"""One training step by behaviour: the D and G objectives pull against each
other, and the D step runs no input-gradient product for the images it is
given."""

import numpy as np
import pytest

from quatgan import autodiff as ad
from quatgan import data as D
from quatgan import models as MD
from quatgan import train as T
from quatgan.qtensor import QTensor

BATCH = 6


class ScoreCritic:
    """An identity D: its input, D's scores as (4, B, 1, 1, 1) maps, read as
    the (B, 1) decisions the losses take. A map input lets the ``wgan_gp``
    branch interpolate between the real and the fake input as it does
    between images."""

    def forward(self, tape, x, leaves):
        return ad.reshape(x, (x.value.shape[0], 1))


def _scores(rng, loss):
    """Real and fake scores: probabilities for qce, the estimates it scores;
    otherwise uniform components, whose sums fall on both sides of the
    hinge margins."""
    shape = (4, BATCH, 1, 1, 1)
    if loss == "qce":
        return [QTensor(rng.uniform(0.05, 0.95, shape)) for _ in range(2)]
    return [QTensor(rng.uniform(-1.0, 1.0, shape)) for _ in range(2)]


def _config(loss):
    model = "qdcgan_toy8" if loss == "qce" else "qsngan_toy8"
    return T.TrainConfig(model=model, loss=loss, batch_size=BATCH, synth={"n": 8, "size": 8})


@pytest.mark.parametrize("loss", ["hinge", "qce", "wgan_gp"])
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
    d_loss = T._d_loss_node(config, tape, critic, {}, real_n, fake_n, {"noise_rng": rng})
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
                               tape.constant(fake), {})
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
