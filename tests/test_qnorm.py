import numpy as np
import pytest
from conftest import run_op

from quatgan import autodiff as ad
from quatgan import models as MD
from quatgan.errors import DomainError
from quatgan.layers import ConvConfig, hamilton_block
from quatgan.qnorm import (
    QBNState,
    power_iteration_sigma,
    qbn,
)
from quatgan.qtensor import QTensor


def proper_signal(rng, batch, channels, sigma=1.0):
    """I.i.d. equal-variance independent components: a proper quaternion signal."""
    return QTensor(sigma * rng.standard_normal((4, batch, channels)))


def qbn_forward(x: QTensor, state: QBNState, mode: str = "train") -> QTensor:
    """Value of the QBN tape op: batch statistics (updating the running ones)
    in train mode, running statistics in eval mode."""
    def op(xn, gamma, beta):
        return qbn(xn, gamma, beta, state, training=mode == "train")

    return run_op(op, x, state.gamma, state.beta)


def batch_stats(x: QTensor):
    """Per-channel quaternion mean and 4-sigma^2 aggregate of one train-mode
    QBN batch, read back from the running statistics its first batch sets."""
    state = QBNState(channels=x.shape[1])
    qbn_forward(x, state, mode="train")
    return state.running_mean.data, state.running_var


class TestStatistics:
    def test_mean_of_constant_batch(self):
        data = np.tile(np.array([1.0, -2.0, 3.0, 0.5]).reshape(4, 1, 1), (1, 8, 2))
        mu, _ = batch_stats(QTensor(data))
        assert np.allclose(mu, [[1.0, 1.0], [-2.0, -2.0], [3.0, 3.0], [0.5, 0.5]])

    def test_mean_symmetry(self):
        data = np.zeros((4, 2, 1))
        data[0, 0, 0], data[0, 1, 0] = 1.0, -1.0
        assert np.allclose(batch_stats(QTensor(data))[0], 0.0)

    def test_mean_matches_loop(self, rng):
        x = QTensor(rng.standard_normal((4, 6, 3)))
        mu, _ = batch_stats(x)
        for c in range(4):
            for ch in range(3):
                acc = 0.0
                for b in range(6):
                    acc += x.data[c, b, ch]
                assert abs(mu[c, ch] - acc / 6) < 1e-12

    def test_variance_constant_is_zero(self):
        x = QTensor(np.ones((4, 8, 2)))
        assert np.allclose(batch_stats(x)[1], 0.0)

    def test_variance_of_unit_components(self, rng):
        x = proper_signal(rng, 4096, 3)
        _, v = batch_stats(x)
        assert np.all(np.abs(v - 4.0) / 4.0 < 0.05)

    def test_variance_single_varying_component(self, rng):
        x = QTensor.zeros((64, 1))
        q0 = rng.standard_normal(64)
        x.data[0, :, 0] = q0
        _, v = batch_stats(x)
        assert abs(v[0] - q0.var()) < 1e-12

    def test_variance_needs_batch(self):
        with pytest.raises(DomainError):
            batch_stats(QTensor(np.ones((4, 1, 2))))


class TestQBNForward:
    def test_train_statistics(self, rng):
        state = QBNState(channels=3)
        x = QTensor(1.5 * rng.standard_normal((4, 256, 3)) + 0.7)
        y = qbn_forward(x, state, mode="train")
        means = y.data.mean(axis=1)
        assert np.all(np.abs(means) < 1e-6)
        var_sum = y.data.var(axis=1).sum(axis=0)
        assert np.all(np.abs(var_sum - 1.0) < 1e-3)

    def test_constant_input_returns_beta(self, rng):
        state = QBNState(channels=2)
        state.beta.data[...] = rng.standard_normal((4, 2))
        x = QTensor(np.tile(rng.standard_normal((4, 1, 2)), (1, 16, 1)))
        y = qbn_forward(x, state, mode="train")
        want = np.tile(state.beta.data[:, None, :], (1, 16, 1))
        # the zero numerator is exact in math; float summation of the mean
        # leaves ~1 ulp, scaled by 1/sqrt(eps)
        assert np.allclose(y.data, want, atol=1e-10)

    def test_gamma_scales_linearly(self, rng):
        x = QTensor(rng.standard_normal((4, 32, 2)))
        s1 = QBNState(channels=2)
        y1 = qbn_forward(x, s1, mode="train")
        s2 = QBNState(channels=2)
        s2.gamma.q0[...] = 2.0
        y2 = qbn_forward(x, s2, mode="train")
        assert np.allclose(y2.data, 2.0 * y1.data, atol=1e-12)

    def test_eval_before_train_errors(self, rng):
        state = QBNState(channels=2)
        with pytest.raises(DomainError):
            qbn_forward(QTensor(rng.standard_normal((4, 4, 2))), state, mode="eval")

    def test_running_stats_ema(self, rng):
        state = QBNState(channels=1)
        x1 = QTensor(rng.standard_normal((4, 64, 1)))
        qbn_forward(x1, state, mode="train")
        mu1 = x1.data.mean(axis=1).copy()
        v1 = x1.data.var(axis=1).sum(axis=0).copy()
        assert np.allclose(state.running_mean.data, mu1, atol=1e-12)
        assert np.allclose(state.running_var, v1, atol=1e-12)
        x2 = QTensor(rng.standard_normal((4, 64, 1)) + 2.0)
        qbn_forward(x2, state, mode="train")
        mu2 = x2.data.mean(axis=1)
        v2 = x2.data.var(axis=1).sum(axis=0)
        assert np.allclose(state.running_mean.data, 0.9 * mu1 + 0.1 * mu2, atol=1e-12)
        assert np.allclose(state.running_var, 0.9 * v1 + 0.1 * v2, atol=1e-12)

    def test_eval_uses_running_stats_without_mutation(self, rng):
        state = QBNState(channels=2)
        qbn_forward(QTensor(rng.standard_normal((4, 128, 2))), state, mode="train")
        rm = state.running_mean.data.copy()
        x = QTensor(rng.standard_normal((4, 8, 2)))
        y1 = qbn_forward(x, state, mode="eval")
        y2 = qbn_forward(x, state, mode="eval")
        assert np.array_equal(y1.data, y2.data)
        assert np.array_equal(state.running_mean.data, rm)

    def test_spatial_input(self, rng):
        state = QBNState(channels=2)
        x = QTensor(rng.standard_normal((4, 16, 2, 4, 4)))
        y = qbn_forward(x, state, mode="train")
        means = y.data.mean(axis=(1, 3, 4))
        assert np.all(np.abs(means) < 1e-6)


def _start(rows):
    """The starting vector ``enable_sn`` gives a matrix of ``rows`` rows."""
    return np.full(rows, 1.0 / np.sqrt(rows))


class TestPowerIteration:
    def test_identity(self):
        sigma = power_iteration_sigma(np.eye(5), _start(5))
        assert abs(sigma - 1.0) < 1e-12

    def test_diagonal_converges(self):
        u = _start(3)
        for _ in range(50):
            sigma = power_iteration_sigma(np.diag([3.0, 1.0, 0.5]), u)
        assert abs(sigma - 3.0) < 1e-6

    def test_persisted_iterations_match_svd(self, rng):
        m = rng.standard_normal((32, 32))
        u = _start(32)
        for _ in range(100):
            sigma = power_iteration_sigma(m, u)
        want = np.linalg.svd(m, compute_uv=False)[0]
        assert abs(sigma - want) / want < 1e-3

    def test_zero_matrix_warns(self):
        """A zero matrix gives sigma 0, which callers read as "keep scale 1",
        and leaves the vector as it was."""
        u = _start(3)
        sigma = power_iteration_sigma(np.zeros((3, 3)), u)
        assert sigma == 0.0 and np.array_equal(u, _start(3))

    def test_monotone_on_spd(self, rng):
        a = rng.standard_normal((16, 16))
        m = a @ a.T + 0.1 * np.eye(16)  # SPD: power iteration estimates rise to sigma
        u = _start(16)
        estimates = []
        for _ in range(30):
            estimates.append(power_iteration_sigma(m, u))
        assert all(b >= a - 1e-10 for a, b in zip(estimates, estimates[1:]))
        want = np.linalg.eigvalsh(m).max()
        assert abs(estimates[-1] - want) / want < 1e-6


class TestRealBlockMatrix:
    def test_identity_weight(self):
        kernel = QTensor.zeros((3, 3))
        kernel.q0[...] = np.eye(3)
        assert np.array_equal(hamilton_block(kernel.data), np.eye(12))

    def test_block_signs(self, rng):
        kernel = QTensor(rng.standard_normal((4, 2, 2)))
        m = hamilton_block(kernel.data)
        w0, w1, w2, w3 = kernel.data
        rows = [
            np.hstack([w0, -w1, -w2, -w3]),
            np.hstack([w1, w0, -w3, w2]),
            np.hstack([w2, w3, w0, -w1]),
            np.hstack([w3, -w2, w1, w0]),
        ]
        assert np.array_equal(m, np.vstack(rows))

    def test_matvec_matches_forward(self, rng):
        """The constructed matrix acting on stacked components equals qdense."""
        kernel = QTensor(rng.standard_normal((4, 3, 2)))
        x = QTensor(rng.standard_normal((4, 1, 2)))
        y = run_op(ad.qdense, x, kernel)
        m = hamilton_block(kernel.data)
        stacked = x.data[:, 0, :].reshape(-1)
        want = m @ stacked
        assert np.allclose(y.data[:, 0, :].reshape(-1), want, atol=1e-12)


def _normalized(kernel: QTensor, mode: str, rounds: int) -> QTensor:
    """Effective kernel of a dense or conv module with spectral norm enabled,
    after ``rounds`` SN refreshes of one power-iteration round each."""
    if len(kernel.shape) == 2:
        layer = MD.QDense("w", kernel.shape[1], kernel.shape[0], bias=False)
    else:
        o, i, k, _ = kernel.shape
        layer = MD.QConv("w", ConvConfig(k, 1, k // 2, i, o), bias=False)
    layer.kernel.value = kernel
    layer.enable_sn(mode)
    for _ in range(rounds):
        layer.update_sn_scale()
    return layer.effective_kernel()


class TestQSN:
    def test_split_orthonormal_unchanged(self, rng):
        comps = []
        for _ in range(4):
            q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            comps.append(q)
        kernel = QTensor(np.stack(comps))
        out = _normalized(kernel, "split", 30)
        assert np.allclose(out.data, kernel.data, atol=1e-6)

    def test_split_scales_largest_submatrix(self):
        comps = np.stack([5.0 * np.eye(4), np.eye(4), np.eye(4), np.eye(4)])
        out = _normalized(QTensor(comps), "split", 10)
        assert np.allclose(out.data[0], np.eye(4), atol=1e-10)
        assert np.allclose(out.data[1:], comps[1:], atol=1e-10)

    def test_split_submatrix_sigmas_one_but_constructed_differs(self):
        rng = np.random.default_rng(21)
        out = _normalized(QTensor(rng.standard_normal((4, 6, 6))), "split", 200)
        for c in range(4):
            s = np.linalg.svd(out.data[c], compute_uv=False)[0]
            assert abs(s - 1.0) < 1e-3
        constructed = np.linalg.svd(hamilton_block(out.data), compute_uv=False)[0]
        assert abs(constructed - 1.0) > 0.05  # the recorded counterexample

    def test_full_identity_unchanged(self):
        kernel = QTensor.zeros((3, 3))
        kernel.q0[...] = np.eye(3)
        out = _normalized(kernel, "full", 10)
        assert np.allclose(out.data, kernel.data, atol=1e-12)

    def test_full_scale_invariance(self, rng):
        kernel = QTensor(rng.standard_normal((4, 5, 5)))
        a = _normalized(kernel, "full", 200)
        b = _normalized(QTensor(7.0 * kernel.data), "full", 200)
        assert np.allclose(a.data, b.data, atol=1e-8)

    def test_full_constructed_sigma_is_one(self, rng):
        out = _normalized(QTensor(rng.standard_normal((4, 8, 8))), "full", 200)
        sigma = np.linalg.svd(hamilton_block(out.data), compute_uv=False)[0]
        assert abs(sigma - 1.0) < 1e-3

    def test_full_idempotent(self, rng):
        kernel = QTensor(rng.standard_normal((4, 6, 6)))
        once = _normalized(kernel, "full", 300)
        twice = _normalized(once, "full", 300)
        rel = np.abs(twice.data - once.data).max() / np.abs(once.data).max()
        assert rel < 1e-6

    def test_normalized_conv_is_contractive_on_random_pairs(self):
        rng = np.random.default_rng(5)
        kernel = _normalized(QTensor(rng.standard_normal((4, 3, 3, 3, 3))), "full", 300)
        cfg = ConvConfig(3, 1, 1, 3, 3)
        for _ in range(10):
            x1 = QTensor(rng.standard_normal((4, 1, 3, 8, 8)))
            x2 = QTensor(rng.standard_normal((4, 1, 3, 8, 8)))
            num = np.linalg.norm(
                run_op(ad.qconv2d, x1, kernel, None, cfg).data
                - run_op(ad.qconv2d, x2, kernel, None, cfg).data
            )
            den = np.linalg.norm(x1.data - x2.data)
            assert num / den <= 1.0 + 5e-2
