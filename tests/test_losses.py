import math

import numpy as np
import pytest
from conftest import run_op

from quatgan import autodiff as ad
from quatgan import losses as LS
from quatgan.errors import ShapeMismatchError
from quatgan.qtensor import QTensor


def qce(target, est):
    return float(run_op(lambda e: LS.qce_op(target, e), est).q0)


def decisions(scores, seed=0):
    """(B, 1) quaternion decisions whose component sums are ``scores``. q1..q3
    are multiples of 1/8, so the sums are exact for the dyadic scores some
    tests compare with ==."""
    scores = np.asarray(scores, dtype=float)
    data = np.random.default_rng(seed).integers(-8, 9, size=(4, len(scores), 1)) / 8.0
    data[0] = scores[:, None] - data[1:].sum(axis=0)
    return QTensor(data)


def hinge_losses(d_real, d_fake):
    r, f = decisions(d_real), decisions(d_fake, seed=1)
    d = run_op(LS.hinge_discriminator_op, r, f)
    g = run_op(LS.hinge_generator_op, f)
    return float(d.q0), float(g.q0)


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


class TestTapeOps:
    def test_ops_match_pure_functions(self, rng):
        """Hinge ops built on one tape against their closed forms."""
        r, f = rng.standard_normal(8), rng.standard_normal(8)
        tape = ad.Tape()
        rn, fn = tape.constant(decisions(r)), tape.constant(decisions(f, seed=1))
        want_hd = np.mean(np.maximum(0.0, 1.0 - r)) + np.mean(np.maximum(0.0, 1.0 + f))
        assert abs(LS.hinge_discriminator_op(rn, fn).value.q0.item() - want_hd) < 1e-12
        assert abs(LS.hinge_generator_op(fn).value.q0.item() + f.mean()) < 1e-12

    def test_qce_op_matches_pure(self, rng):
        """The fused op against a pure-Python loop over the four components."""
        target = QTensor(rng.integers(0, 2, size=(4, 6, 1)).astype(float))
        est = QTensor(rng.uniform(0.1, 0.9, size=(4, 6, 1)))
        terms = (t * math.log(e) + (1 - t) * math.log(1 - e)
                 for t, e in zip(target.data.ravel(), est.data.ravel()))
        want = -sum(terms) / 6
        assert abs(qce(target, est) - want) < 1e-12


def _score_losses(r, f):
    """Builders of the hinge D and G losses of these decisions; each builder
    makes the decisions tape nodes by ``n``."""
    return {
        "hinge_d": lambda n: LS.hinge_discriminator_op(n(r), n(f)),
        "hinge_g": lambda n: LS.hinge_generator_op(n(f)),
    }


class TestComponentSumScores:
    @pytest.mark.parametrize("loss", ["hinge_d", "hinge_g"])
    def test_loss_reads_decisions_only_through_component_sums(self, rng, loss):
        """Moving mass between the components of a decision leaves the loss
        unchanged, and its gradient is the same for all four components."""
        qs = [QTensor(rng.standard_normal((4, 6, 1))) for _ in range(2)]
        moved = []
        for q in qs:
            shift = rng.standard_normal((3, 6, 1))
            data = q.data.copy()
            data[1:] += shift
            data[0] -= shift.sum(axis=0)
            moved.append(QTensor(data))

        def run(values):
            tape = ad.Tape()
            node = _score_losses(*values)[loss](lambda v: tape.param(str(len(tape.params)), v))
            return node.value.q0.item(), tape.backward(node)

        value, grads = run(qs)
        moved_value, _ = run(moved)
        assert np.isclose(value, moved_value, rtol=1e-12, atol=1e-12)
        for g in grads.values():
            assert np.array_equal(g.data, np.broadcast_to(g.data[:1], g.data.shape))
        assert any(np.any(g.data != 0.0) for g in grads.values())

    @pytest.mark.parametrize("loss", ["hinge_d", "hinge_g"])
    def test_other_decision_shapes_rejected(self, rng, loss):
        for shape in [(4,), (4, 2)]:
            bad = QTensor(rng.standard_normal((4, *shape)))
            tape = ad.Tape(needs_grad=False)
            with pytest.raises(ShapeMismatchError):
                _score_losses(bad, bad)[loss](tape.constant)
