"""Finite-difference gradient-check suites over every differentiable
operation and block in scope; shared by the CLI and the test suite.

Each check runs in float64 at step 1e-6 against tolerance 1e-4. Inputs are
drawn from seeded generators. Every check retries up to three seeds (0, 1,
2), so a draw that lands near a kink (ReLU, hinge margins, |.|) is resampled
away -- a genuine gradient bug fails for every seed. Every check passes at
seed 0, and only ``qsngan_discriminator_sn`` fails at one of the three (1).

The ``layers`` and ``norm`` suites hold one row per tape op: ``check_op``
perturbs every input of the op (maps, kernels, biases, gains), each drawn
by its own draw function. The conv, pooling, upsampling and real dense rows
run on non-square maps, so a layout change that mixes up height and width
fails them. The ``models`` suite perturbs every parameter of a block or a
whole network.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import losses as LS
from . import models as MD
from . import qnorm
from .autodiff import GradCheckReport, grad_check
from .errors import ConfigError
from .qtensor import QTensor

__all__ = ["run_grad_checks", "SUITES"]

TOL = 1e-4
STEP = 1e-6


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


# -- draws: each maps a generator to one input ------------------------------------


def q(*shape, scale=1.0):
    """A quaternion tensor of ``shape`` with normal components."""
    return lambda rng: QTensor(scale * rng.standard_normal((4, *shape)))


def real(*shape, scale=1.0):
    """A plain real array of ``shape`` with normal entries."""
    return lambda rng: scale * rng.standard_normal(shape)


def margin(*shape):
    """``q(*shape)`` moved 1e-2 away from zero when an entry lies within 1e-3
    of it: the split ReLU's kink."""
    def draw(rng):
        x = rng.standard_normal((4, *shape))
        return QTensor(x + np.sign(x) * 1e-2 if np.abs(x).min() <= 1e-3 else x)

    return draw


def gain(channels):
    """QBN gains spread over [0.5, 1.5] rather than all at their starting value of 1."""
    return lambda rng: rng.uniform(0.5, 1.5, size=channels)


# -- checks ------------------------------------------------------------------------


def check_op(op, draws, *args):
    """Gradients of every input of the tape op ``op(*inputs, *args)``; input i
    is drawn by ``draws[i]``."""
    def run(rng):
        params = {f"in{i}": draw(rng) for i, draw in enumerate(draws)}

        def build(tape, leaves):
            return _loss(op(*leaves.values(), *args))

        return grad_check(build, params, TOL, STEP)

    return run


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


def check_block(make_block, shape):
    """Parameter gradients of the residual block ``make_block()`` on an input
    of ``shape``; each run builds and draws a fresh block."""
    def run(rng):
        block = make_block()
        block.init_params(rng, "glorot")
        x = q(*shape)(rng)
        params = {name: p.value for name, p in block.params()}

        def build(tape, leaves):
            node = block.forward(leaves, tape.constant(x))
            return _loss(node)

        return grad_check(build, params, TOL, STEP, max_entries=40)

    return run


def check_net(preset, net, draw_inputs, loss, max_entries):
    """Parameter gradients of ``loss`` over the outputs of the ``net`` ("g"
    or "d") of ``preset`` on inputs drawn by ``draw_inputs``. Spectral-norm
    sigma scales are warmed up, then stay frozen across the FD evaluations."""
    def run(rng):
        g, d = MD.build_gan(MD.preset_spec(preset))
        model = d if net == "d" else g
        model.init_params(rng, "glorot")
        MD.sn_warmup(model, iters=10)  # a no-op without spectral norm
        inputs = [draw(rng) for draw in draw_inputs]

        def build(tape, leaves):
            return loss(*(model.forward(tape, tape.constant(x), leaves) for x in inputs))

        return grad_check(build, model.param_tensors(), TOL, STEP, max_entries=max_entries)

    return run


def _conv(shape, out_q, k, stride, padding):
    """A row for ``qconv2d`` of a map of ``shape`` by a ``k``x``k`` kernel
    to ``out_q`` channels."""
    kernel = (out_q, shape[1], k, k)
    return check_op(ad.qconv2d, [q(*shape), q(*kernel), q(out_q)], stride, padding)


def _qce_ones(node):
    return LS.qce_op(QTensor(np.ones((4, 2, 1))), node)


IMAGES = q(2, 1, 8, 8, scale=0.5)

SUITES = {
    "layers": [
        ("qdense", check_op(ad.qdense, [q(3, 2), q(4, 2), q(4)])),
        ("qconv2d", _conv((2, 2, 4, 5), 3, 3, 1, 1)),
        ("qconv2d_strided", _conv((2, 2, 6, 4), 2, 2, 2, 0)),
        # a 3x3, stride-1, padding-1 conv with as many output channels as input ones
        ("qconv2d_input", _conv((2, 2, 4, 5), 2, 3, 1, 1)),
        # qdcgan's 4x4, stride-2, padding-1 conv on a non-square map whose
        # padded sides are odd
        ("qconv2d_strided_odd", _conv((2, 2, 5, 7), 2, 4, 2, 1)),
        ("qtransposed_conv2d", check_op(ad.qtconv2d, [q(2, 2, 3, 4), q(2, 2, 4, 4), q(2)],
                                        2, 1)),
        ("upconv_kernel", check_op(ad.upconv_kernel, [q(3, 2, 3, 3)])),
        ("split_relu", check_op(ad.split_act, [margin(3, 4)], "relu")),
        ("split_tanh", check_op(ad.split_act, [q(3, 4)], "tanh")),
        ("split_sigmoid", check_op(ad.split_act, [q(3, 4)], "sigmoid")),
        ("avg_pool", check_op(ad.avg_pool, [q(2, 2, 4, 6)], 2)),
        ("global_sum_pool", check_op(ad.global_sum_pool, [q(2, 2, 4, 6)])),
        ("upsample2x", check_op(ad.upsample2x, [q(2, 2, 3, 4)])),
        ("real_dense", check_op(ad.real_dense, [real(3, 4), real(16, 4), real(16)], 2, 1, 2)),
        ("add", check_op(ad.add, [q(2, 2, 3, 4), q(2, 2, 3, 4)])),
        # spectral norm's per-component 1/sigma scales
        ("scale_components", check_op(ad.scale_components, [q(2, 2, 3, 4)],
                                      (0.5, -1.5, 2.0, 0.25))),
        # a dense layer's output onto a non-square map, as in the generators
        ("reshape", check_op(ad.reshape, [q(2, 12)], (-1, 2, 2, 3))),
    ],
    "norm": [
        ("qbn_train", check_op(qnorm.qbn, [q(5, 3), gain(3), q(3, scale=0.3)])),
        ("qbn_train_conv", check_op(qnorm.qbn, [q(3, 2, 2, 2), gain(2), q(2, scale=0.3)])),
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
        ("qdcgan_generator", check_net("qdcgan_toy8", "g", [q(2, 32, scale=0.5)], _loss, 24)),
        ("qdcgan_discriminator", check_net("qdcgan_toy8", "d", [IMAGES], _qce_ones, 24)),
        ("qsngan_generator", check_net("qsngan_toy8", "g", [real(2, 128, scale=0.5)], _loss, 16)),
        ("qsngan_discriminator_sn", check_net("qsngan_toy8", "d", [IMAGES, IMAGES],
                                              LS.hinge_discriminator_op, 24)),
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
