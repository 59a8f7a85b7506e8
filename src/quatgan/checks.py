"""Finite-difference gradient-check suites over every differentiable
operation and block in scope; shared by the CLI and the test suite.

Each check runs in float64 at step 1e-6 against tolerance 1e-4. Inputs are
drawn from seeded generators. Every check retries up to three seeds (0, 1,
2), so a draw that lands near a kink (ReLU, hinge margins, |.|) is resampled
away -- a genuine gradient bug fails for every seed. Every check passes at
seed 0, and only ``qsngan_discriminator_sn`` fails at one of the three (1).
The conv, pooling, upsampling and real dense checks run on non-square maps,
so a layout change that mixes up height and width fails them.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import layers as L
from . import losses as LS
from . import models as MD
from . import qnorm
from .autodiff import GradCheckReport, grad_check
from .errors import ConfigError
from .qtensor import QTensor

__all__ = ["run_grad_checks", "SUITES"]

TOL = 1e-4
STEP = 1e-6


def _qt(rng, shape, scale=1.0):
    return QTensor(scale * rng.standard_normal((4, *shape)))


def _try_seeds(fn, seeds=(0, 1, 2)) -> GradCheckReport:
    report = None
    for seed in seeds:
        report = fn(np.random.default_rng(seed))
        if report.passed:
            return report
    return report


def _loss(node):
    """Inner product against a fixed random tensor: a plain component sum has
    nullspaces (QBN output sums to a constant) that would hide gradients."""
    k = QTensor(np.random.default_rng(1234).standard_normal((4, *node.value.shape)))
    return ad.inner_const(node, k)


# -- layer checks ---------------------------------------------------------------


def check_qdense(rng):
    x = _qt(rng, (3, 2))
    params = {"k": _qt(rng, (4, 2)), "b": _qt(rng, (4,))}

    def build(tape, leaves):
        return _loss(ad.qdense(tape.constant(x), leaves["k"], leaves["b"]))

    return grad_check(build, params, TOL, STEP)


def check_qconv(cfg, shape):
    """Kernel and bias gradients of a conv on an input of ``shape``."""
    def run(rng):
        x = _qt(rng, shape)
        params = {"k": _qt(rng, (cfg.out_q, cfg.in_q, cfg.kernel, cfg.kernel)),
                  "b": _qt(rng, (cfg.out_q,))}

        def build(tape, leaves):
            return _loss(ad.qconv2d(tape.constant(x), leaves["k"], leaves["b"], cfg))

        return grad_check(build, params, TOL, STEP)

    return run


def check_qconv_input(cfg, shape):
    """Input gradient of a conv on an input of ``shape``."""
    def run(rng):
        k = _qt(rng, (cfg.out_q, cfg.in_q, cfg.kernel, cfg.kernel))
        params = {"x": _qt(rng, shape)}

        def build(tape, leaves):
            return _loss(ad.qconv2d(leaves["x"], tape.constant(k), None, cfg))

        return grad_check(build, params, TOL, STEP)

    return run


def check_qtconv(rng):
    x = _qt(rng, (2, 2, 3, 4))
    cfg = L.ConvConfig(4, 2, 1, 2, 2)
    params = {"k": _qt(rng, (2, 2, 4, 4)), "b": _qt(rng, (2,)), "x": x}

    def build(tape, leaves):
        return _loss(ad.qtconv2d(leaves["x"], leaves["k"], leaves["b"], cfg))

    return grad_check(build, params, TOL, STEP)


def _margin(data, threshold=1e-3):
    return np.abs(data).min() > threshold


def check_activation(kind):
    def run(rng):
        x = _qt(rng, (3, 4))
        if kind == "relu" and not _margin(x.data):
            x = QTensor(x.data + np.sign(x.data) * 1e-2)
        params = {"x": x}

        def build(tape, leaves):
            return _loss(ad.split_act(leaves["x"], kind))

        return grad_check(build, params, TOL, STEP)

    return run


def check_pool(kind):
    def run(rng):
        params = {"x": _qt(rng, (2, 2, 4, 6))}

        def build(tape, leaves):
            if kind == "avg":
                return _loss(ad.avg_pool(leaves["x"], 2))
            return _loss(ad.global_sum_pool(leaves["x"]))

        return grad_check(build, params, TOL, STEP)

    return run


def check_upsample(rng):
    params = {"x": _qt(rng, (2, 2, 3, 4))}

    def build(tape, leaves):
        return _loss(ad.upsample2x(leaves["x"]))

    return grad_check(build, params, TOL, STEP)


def check_real_dense(rng):
    x = QTensor.from_real(rng.standard_normal((3, 4)))
    params = {
        "k": QTensor.from_real(rng.standard_normal((16, 4))),
        "b": QTensor.from_real(rng.standard_normal(16)),
    }

    def build(tape, leaves):
        return _loss(ad.real_dense(tape.constant(x), leaves["k"], leaves["b"], 2, 1, 2))

    return grad_check(build, params, TOL, STEP)


# -- norm checks -----------------------------------------------------------------


def check_qbn(shape):
    """Input, gain and shift gradients of QBN on an input of ``shape``, with
    gains and shifts away from their starting values of 1 and 0."""
    def run(rng):
        channels = shape[1]
        gamma = QTensor.from_real(rng.uniform(0.5, 1.5, size=channels))
        beta = QTensor(0.3 * rng.standard_normal((4, channels)))
        params = {"x": _qt(rng, shape), "gamma": gamma, "beta": beta}

        def build(tape, leaves):
            return _loss(qnorm.qbn(leaves["x"], leaves["gamma"], leaves["beta"]))

        return grad_check(build, params, TOL, STEP)

    return run


# -- loss checks -----------------------------------------------------------------


def _decisions(rng, b, clear_of=None):
    """(b, 1) quaternion decisions whose scores (component sums) keep 1e-2
    clear of ``clear_of``, a number or one per decision: q0 moves a score
    that lands too close."""
    d = QTensor(0.4 * rng.standard_normal((4, b, 1)))
    if clear_of is not None:
        d.data[0, np.abs(LS._scores(d) - clear_of) < 1e-2, 0] += 0.05
    return d


def check_hinge(rng):
    # keep scores clear of the hinge kinks at +-1
    params = {"r": _decisions(rng, 6, 1.0), "f": _decisions(rng, 6, -1.0)}

    def build(tape, leaves):
        return ad.add(LS.hinge_discriminator_op(leaves["r"], leaves["f"]),
                      LS.hinge_generator_op(leaves["f"]))

    return grad_check(build, params, TOL, STEP)


def check_qce(rng):
    est = QTensor(rng.uniform(0.15, 0.85, size=(4, 4, 1)))
    target = QTensor(rng.integers(0, 2, size=(4, 4, 1)).astype(float))
    params = {"e": est}

    def build(tape, leaves):
        return LS.qce_op(target, leaves["e"])

    return grad_check(build, params, TOL, STEP)


def check_wgan(rng):
    # keep the up and down scores clear of equality, the penalty's kink
    up = _decisions(rng, 5)
    params = {"r": _decisions(rng, 5), "f": _decisions(rng, 5), "up": up,
              "down": _decisions(rng, 5, LS._scores(up))}

    def build(tape, leaves):
        return LS.wgan_discriminator_op(leaves["r"], leaves["f"], leaves["up"],
                                        leaves["down"], 10.0, 0.25)

    return grad_check(build, params, TOL, STEP)


# -- block / model checks -----------------------------------------------------------


def check_block(make_block, shape):
    """Parameter gradients of the residual block ``make_block()`` on an input
    of ``shape``; each run builds and draws a fresh block."""
    def run(rng):
        block = make_block()
        block.init_params(rng, "glorot")
        x = _qt(rng, shape)
        params = {name: p.value for name, p in block.params()}

        def build(tape, leaves):
            node = block.forward(leaves, tape.constant(x))
            return _loss(node)

        return grad_check(build, params, TOL, STEP, max_entries=40)

    return run


def check_qdcgan_g(rng):
    spec = MD.preset_spec("qdcgan_toy8")
    g, _ = MD.build_gan(spec)
    g.init_params(rng, "glorot")
    z = QTensor(0.5 * rng.standard_normal((4, 2, spec.noise_dim // 4)))
    params = g.param_tensors()

    def build(tape, leaves):
        return _loss(g.forward(tape, tape.constant(z), leaves))

    return grad_check(build, params, TOL, STEP, max_entries=24)


def check_qdcgan_d(rng):
    spec = MD.preset_spec("qdcgan_toy8")
    _, d = MD.build_gan(spec)
    d.init_params(rng, "glorot")
    x = _qt(rng, (2, 1, 8, 8), scale=0.5)
    params = d.param_tensors()

    def build(tape, leaves):
        node = d.forward(tape, tape.constant(x), leaves)
        return LS.qce_op(QTensor(np.ones((4, 2, 1))), node)

    return grad_check(build, params, TOL, STEP, max_entries=24)


def check_qsngan_d_sn(rng):
    spec = MD.preset_spec("qsngan_toy8")
    _, d = MD.build_gan(spec)
    d.init_params(rng, "glorot")
    MD.sn_warmup(d, iters=10)  # sigma scales then stay frozen across FD evals
    x = _qt(rng, (2, 1, 8, 8), scale=0.5)
    fake = _qt(rng, (2, 1, 8, 8), scale=0.5)
    params = d.param_tensors()

    def build(tape, leaves):
        dr = d.forward(tape, tape.constant(x), leaves)
        df = d.forward(tape, tape.constant(fake), leaves)
        return LS.hinge_discriminator_op(dr, df)

    return grad_check(build, params, TOL, STEP, max_entries=24)


def check_qsngan_g(rng):
    spec = MD.preset_spec("qsngan_toy8")
    g, _ = MD.build_gan(spec)
    g.init_params(rng, "glorot")
    z = QTensor.from_real(0.5 * rng.standard_normal((2, spec.noise_dim)))
    params = g.param_tensors()

    def build(tape, leaves):
        return _loss(g.forward(tape, tape.constant(z), leaves))

    return grad_check(build, params, TOL, STEP, max_entries=16)


SUITES = {
    "layers": [
        ("qdense", check_qdense),
        ("qconv2d", check_qconv(L.ConvConfig(3, 1, 1, 2, 3), (2, 2, 4, 5))),
        ("qconv2d_strided", check_qconv(L.ConvConfig(2, 2, 0, 2, 2), (2, 2, 6, 4))),
        ("qconv2d_input", check_qconv_input(L.ConvConfig(3, 1, 1, 2, 2), (2, 2, 4, 5))),
        # qdcgan's (4, 2, 1) conv on a non-square map whose padded sides are odd
        ("qconv2d_strided_input", check_qconv_input(L.ConvConfig(4, 2, 1, 2, 2), (2, 2, 5, 7))),
        ("qtransposed_conv2d", check_qtconv),
        ("split_relu", check_activation("relu")),
        ("split_tanh", check_activation("tanh")),
        ("split_sigmoid", check_activation("sigmoid")),
        ("avg_pool", check_pool("avg")),
        ("global_sum_pool", check_pool("global")),
        ("upsample2x", check_upsample),
        ("real_dense", check_real_dense),
    ],
    "norm": [
        ("qbn_train", check_qbn((5, 3))),
        ("qbn_train_conv", check_qbn((3, 2, 2, 2))),
    ],
    "losses": [
        ("hinge", check_hinge),
        ("qce", check_qce),
        ("wgan_gp", check_wgan),
    ],
    "models": [
        ("gen_res_block", check_block(lambda: MD.gen_block("b", 2, 2), (2, 2, 3, 3))),
        ("disc_res_block", check_block(lambda: MD.disc_block("b", 2, 3, True), (2, 2, 4, 4))),
        ("first_disc_block", check_block(lambda: MD.first_disc_block("b", 2), (2, 1, 8, 8))),
        ("qdcgan_generator", check_qdcgan_g),
        ("qdcgan_discriminator", check_qdcgan_d),
        ("qsngan_generator", check_qsngan_g),
        ("qsngan_discriminator_sn", check_qsngan_d_sn),
    ],
}


def run_grad_checks(module: str | None = None):
    """Run one suite or all of them; returns [(name, GradCheckReport)]."""
    if module is not None and module not in SUITES:
        raise ConfigError(f"unknown check suite {module!r}; known: {sorted(SUITES)}")
    names = [module] if module else list(SUITES)
    results = []
    for suite in names:
        for name, fn in SUITES[suite]:
            results.append((f"{suite}/{name}", _try_seeds(fn)))
    return results
