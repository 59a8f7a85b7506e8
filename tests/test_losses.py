import math

import numpy as np
import pytest
from conftest import run_op

from quatgan import autodiff as ad
from quatgan import losses as LS
from quatgan.errors import DomainError, ShapeMismatchError
from quatgan.qtensor import QTensor


def qce(target, est):
    return float(run_op(lambda e: LS.qce_op(target, e), est).q0)


def hinge_losses(d_real, d_fake):
    r, f = QTensor.from_real(d_real), QTensor.from_real(d_fake)
    d = run_op(LS.hinge_discriminator_op, r, f)
    g = run_op(LS.hinge_generator_op, f)
    return float(d.q0), float(g.q0)


def wgan_gp_loss(d_real, d_fake, grad_norms, lam):
    args = (QTensor.from_real(a) for a in (d_real, d_fake, grad_norms))
    return float(run_op(LS.wgan_discriminator_op, *args, lam).q0)


class TestQuaternionCrossEntropy:
    def test_all_ones_vs_half(self):
        target = QTensor(np.ones((4, 3, 1)))
        est = QTensor(np.full((4, 3, 1), 0.5))
        got = qce(target, est)
        assert abs(got - 4 * math.log(2)) < 1e-12

    def test_matching_extremes_near_zero(self):
        target = QTensor(np.ones((4, 2, 1)))
        est = QTensor(np.ones((4, 2, 1)))  # clamped to 1 - eps internally
        assert qce(target, est) < 1e-5

    def test_degenerate_components_reduce_to_real_bce(self, rng):
        """With q1..q3 held at constants, QCE = BCE(q0) + constant terms."""
        b = 8
        t0 = rng.integers(0, 2, size=b).astype(float)
        e0 = rng.uniform(0.1, 0.9, size=b)
        target = QTensor(np.stack([t0, np.ones(b), np.zeros(b), np.ones(b)]).reshape(4, b, 1))
        est = QTensor(np.stack([e0, np.full(b, 0.7), np.full(b, 0.7), np.full(b, 0.7)]).reshape(4, b, 1))
        got = qce(target, est)
        bce = -np.mean(t0 * np.log(e0) + (1 - t0) * np.log(1 - e0))
        const = -math.log(0.7) - math.log(0.3) - math.log(0.7)
        assert abs(got - (bce + const)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            qce(QTensor(np.ones((4, 2, 1))), QTensor(np.ones((4, 3, 1))))


class TestHinge:
    def test_margins_satisfied(self):
        d, _ = hinge_losses(np.full(4, 1.0), np.full(4, -1.0))
        assert d == 0.0

    def test_zeros(self):
        d, _ = hinge_losses(np.zeros(4), np.zeros(4))
        assert abs(d - 2.0) < 1e-15

    def test_generator_loss_strictly_decreasing_in_d_fake(self):
        _, g1 = hinge_losses(np.zeros(4), np.full(4, 0.1))
        _, g2 = hinge_losses(np.zeros(4), np.full(4, 0.5))
        assert g2 < g1

    def test_loop_oracle(self, rng):
        r = rng.standard_normal(16)
        f = rng.standard_normal(16)
        d, g = hinge_losses(r, f)
        want_d = sum(max(0.0, 1.0 - v) for v in r) / 16 + sum(max(0.0, 1.0 + v) for v in f) / 16
        assert abs(d - want_d) < 1e-12
        assert abs(g - (-f.mean())) < 1e-12

    def test_zero_iff_margins(self, rng):
        r = 1.0 + np.abs(rng.standard_normal(8))
        f = -1.0 - np.abs(rng.standard_normal(8))
        d, _ = hinge_losses(r, f)
        assert d == 0.0
        r[3] = 0.9
        d, _ = hinge_losses(r, f)
        assert d > 0.0


class TestWgan:
    def test_lambda_zero_is_critic_difference(self, rng):
        r, f = rng.standard_normal(8), rng.standard_normal(8)
        got = wgan_gp_loss(r, f, np.ones(8), 0.0)
        assert abs(got - (-r.mean() + f.mean())) < 1e-12

    def test_unit_norms_no_penalty(self, rng):
        r, f = rng.standard_normal(8), rng.standard_normal(8)
        assert abs(
            wgan_gp_loss(r, f, np.ones(8), 10.0) - wgan_gp_loss(r, f, np.ones(8), 0.0)
        ) < 1e-12

    def test_penalty_contribution(self):
        got = wgan_gp_loss(np.zeros(4), np.zeros(4), np.full(4, 2.0), 10.0)
        assert abs(got - 10.0) < 1e-12

    def test_negative_lambda_rejected(self):
        with pytest.raises(DomainError):
            wgan_gp_loss(np.zeros(2), np.zeros(2), np.ones(2), -1.0)


class TestTapeOps:
    def test_ops_match_pure_functions(self, rng):
        """Hinge and WGAN-GP ops built on one tape against their closed forms."""
        r, f = rng.standard_normal(8), rng.standard_normal(8)
        n = rng.uniform(0.0, 2.0, size=8)
        tape = ad.Tape()
        rn, fn, nn = (tape.constant(QTensor.from_real(a)) for a in (r, f, n))
        want_hd = np.mean(np.maximum(0.0, 1.0 - r)) + np.mean(np.maximum(0.0, 1.0 + f))
        assert abs(LS.hinge_discriminator_op(rn, fn).value.q0.item() - want_hd) < 1e-12
        assert abs(LS.hinge_generator_op(fn).value.q0.item() + f.mean()) < 1e-12
        want_w = -r.mean() + f.mean() + 10.0 * np.mean((n - 1.0) ** 2)
        assert abs(LS.wgan_discriminator_op(rn, fn, nn, 10.0).value.q0.item() - want_w) < 1e-12

    def test_qce_op_matches_pure(self, rng):
        """The fused op against a pure-Python loop over the four components."""
        target = QTensor(rng.integers(0, 2, size=(4, 6, 1)).astype(float))
        est = QTensor(rng.uniform(0.1, 0.9, size=(4, 6, 1)))
        terms = (t * math.log(e) + (1 - t) * math.log(1 - e)
                 for t, e in zip(target.data.ravel(), est.data.ravel()))
        want = -sum(terms) / 6
        assert abs(qce(target, est) - want) < 1e-12
