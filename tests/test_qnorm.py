import numpy as np
import pytest
from conftest import run_op

from quatgan import autodiff as ad
from quatgan import models as MD
from quatgan.errors import DomainError
from quatgan.layers import hamilton_block
from quatgan.qnorm import EPSILON, power_iteration_sigma, qbn
from quatgan.qtensor import QTensor


def proper_signal(rng, batch, channels, sigma=1.0):
    """I.i.d. equal-variance independent components: a proper quaternion signal."""
    return QTensor(sigma * rng.standard_normal((4, batch, channels)))


def qbn_forward(x: QTensor, gamma=None, beta=None) -> QTensor:
    """Value of the QBN tape op; ``gamma`` (real, per channel) defaults to 1
    and ``beta`` (quaternion, per channel) to 0."""
    channels = x.shape[1]
    gamma = np.ones(channels) if gamma is None else np.asarray(gamma)
    beta = QTensor.zeros((channels,)) if beta is None else QTensor(beta)
    return run_op(qbn, x, gamma, beta)


def loop_oracle(data: np.ndarray) -> np.ndarray:
    """QBN with gamma 1 and beta 0 by scalar loops: per channel, each
    component minus its batch mean, over sqrt(sum of the four component
    variances + eps). The batch is axis 1; any axes after the channel axis
    are spatial and pooled with it."""
    _, b, channels = data.shape[:3]
    cells = [(i, *pos) for i in range(b) for pos in np.ndindex(*data.shape[3:])]
    out = np.empty_like(data)
    for ch in range(channels):
        means, var_sum = [], 0.0
        for c in range(4):
            acc = 0.0
            for cell in cells:
                acc += data[(c, cell[0], ch, *cell[1:])]
            means.append(acc / len(cells))
            sq = 0.0
            for cell in cells:
                sq += (data[(c, cell[0], ch, *cell[1:])] - means[c]) ** 2
            var_sum += sq / len(cells)
        scale = (var_sum + EPSILON) ** 0.5
        for c in range(4):
            for cell in cells:
                idx = (c, cell[0], ch, *cell[1:])
                out[idx] = (data[idx] - means[c]) / scale
    return out


class TestStatistics:
    """QBN's output with gain 1 and shift 0 is the input normalized by its
    batch statistics: the per-component channel mean and the pooled
    4-sigma^2 variance."""

    def test_output_matches_loop(self, rng):
        x = QTensor(rng.standard_normal((4, 6, 3)) + rng.standard_normal((4, 1, 3)))
        assert np.allclose(qbn_forward(x).data, loop_oracle(x.data), atol=1e-12)

    def test_spatial_output_matches_loop(self, rng):
        x = QTensor(rng.standard_normal((4, 3, 2, 3, 4)) + 0.5)
        assert np.allclose(qbn_forward(x).data, loop_oracle(x.data), atol=1e-12)

    def test_mean_of_constant_batch(self):
        """Each component's channel mean is removed: a batch constant per
        component maps to zero."""
        data = np.tile(np.array([1.0, -2.0, 3.0, 0.5]).reshape(4, 1, 1), (1, 8, 2))
        assert np.allclose(qbn_forward(QTensor(data)).data, 0.0, atol=1e-10)

    def test_mean_symmetry(self):
        data = np.zeros((4, 2, 1))
        data[0, 0, 0], data[0, 1, 0] = 1.0, -1.0
        y = qbn_forward(QTensor(data)).data
        assert np.allclose(y, data / np.sqrt(1.0 + EPSILON), atol=1e-15)

    def test_variance_constant_is_zero(self):
        """A zero-variance batch is scaled by 1/sqrt(eps), so only the exact
        zero numerator keeps the output at zero."""
        assert np.array_equal(qbn_forward(QTensor(np.ones((4, 8, 2)))).data, np.zeros((4, 8, 2)))

    def test_variance_of_unit_components(self, rng):
        """Unit-variance components pool to a variance near 4: the output is
        the centred input halved."""
        x = proper_signal(rng, 4096, 3)
        y = qbn_forward(x).data
        xc = x.data - x.data.mean(axis=1, keepdims=True)
        scale = (xc * y).sum(axis=(0, 1)) / (y * y).sum(axis=(0, 1))
        assert np.all(np.abs(scale ** 2 - 4.0) / 4.0 < 0.05)
        assert np.allclose(xc, scale * y, atol=1e-12)

    def test_variance_single_varying_component(self, rng):
        x = QTensor.zeros((64, 1))
        q0 = rng.standard_normal(64)
        x.data[0, :, 0] = q0
        y = qbn_forward(x).data
        assert np.allclose(y[0, :, 0], (q0 - q0.mean()) / np.sqrt(q0.var() + EPSILON),
                           atol=1e-12)
        assert np.all(y[1:] == 0.0)

    def test_variance_needs_batch(self):
        with pytest.raises(DomainError):
            qbn_forward(QTensor(np.ones((4, 1, 2))))


class TestQBNForward:
    def test_train_statistics(self, rng):
        x = QTensor(1.5 * rng.standard_normal((4, 256, 3)) + 0.7)
        y = qbn_forward(x)
        means = y.data.mean(axis=1)
        assert np.all(np.abs(means) < 1e-6)
        var_sum = y.data.var(axis=1).sum(axis=0)
        assert np.all(np.abs(var_sum - 1.0) < 1e-3)

    def test_constant_input_returns_beta(self, rng):
        beta = rng.standard_normal((4, 2))
        x = QTensor(np.tile(rng.standard_normal((4, 1, 2)), (1, 16, 1)))
        y = qbn_forward(x, beta=beta)
        want = np.tile(beta[:, None, :], (1, 16, 1))
        # the zero numerator is exact in math; float summation of the mean
        # leaves ~1 ulp, scaled by 1/sqrt(eps)
        assert np.allclose(y.data, want, atol=1e-10)

    def test_gamma_scales_linearly(self, rng):
        x = QTensor(rng.standard_normal((4, 32, 2)))
        y1 = qbn_forward(x)
        y2 = qbn_forward(x, gamma=np.full(2, 2.0))
        assert np.allclose(y2.data, 2.0 * y1.data, atol=1e-12)

    def test_spatial_input(self, rng):
        x = QTensor(rng.standard_normal((4, 16, 2, 4, 4)))
        y = qbn_forward(x)
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
        layer = MD.QConv("w", i, o, k, 1, k // 2, bias=False)
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
        for _ in range(10):
            x1 = QTensor(rng.standard_normal((4, 1, 3, 8, 8)))
            x2 = QTensor(rng.standard_normal((4, 1, 3, 8, 8)))
            num = np.linalg.norm(
                run_op(ad.qconv2d, x1, kernel, None, 1, 1).data
                - run_op(ad.qconv2d, x2, kernel, None, 1, 1).data
            )
            den = np.linalg.norm(x1.data - x2.data)
            assert num / den <= 1.0 + 5e-2
