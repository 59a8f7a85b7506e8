import numpy as np
import pytest
from conftest import Quaternion, hamilton_product, run_op, tensor_hamilton
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quatgan import autodiff as ad
from quatgan import models as MD
from quatgan.errors import ConfigError, DomainError, ShapeMismatchError
from quatgan.layers import (
    conv_out_size,
    fold_block,
    from_phases,
    hamilton_block,
    init_sigma,
    quaternion_init,
    tconv_out_size,
    to_phases,
)
from quatgan.qtensor import QTensor


_finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def _qt(rng, shape):
    return QTensor(rng.standard_normal((4, *shape)))


def assert_qclose(a: QTensor, b: QTensor):
    np.testing.assert_allclose(a.data, b.data, rtol=1e-12, atol=1e-12)


def _at(t: QTensor, *idx) -> Quaternion:
    return Quaternion(*(float(t.data[(c, *idx)]) for c in range(4)))


def dense_oracle(x: QTensor, kernel: QTensor, bias: QTensor | None = None) -> QTensor:
    """Scalar-loop reference: y[b,o] = sum_i w[o,i] * x[b,i] + bias[o]."""
    b, i_q = x.shape
    o_q = kernel.shape[0]
    out = QTensor.zeros((b, o_q))
    for bb in range(b):
        for o in range(o_q):
            acc = Quaternion(0.0, 0.0, 0.0, 0.0)
            for i in range(i_q):
                acc = acc.add(hamilton_product(_at(kernel, o, i), _at(x, bb, i)))
            if bias is not None:
                acc = acc.add(_at(bias, o))
            out.data[:, bb, o] = acc
    return out


def conv_oracle(x: QTensor, kernel: QTensor, bias: QTensor | None, s: int, p: int) -> QTensor:
    """Scalar-loop reference for the conv by an (out_q, in_q, k, k) kernel."""
    b, i_q, h, wd = x.shape
    o_q, k = kernel.shape[0], kernel.shape[2]
    ho = conv_out_size(h, k, s, p)
    wo = conv_out_size(wd, k, s, p)
    xp = np.pad(x.data, ((0, 0), (0, 0), (0, 0), (p, p), (p, p)))
    out = QTensor.zeros((b, o_q, ho, wo))
    for bb in range(b):
        for o in range(o_q):
            for oh in range(ho):
                for ow in range(wo):
                    acc = Quaternion(0.0, 0.0, 0.0, 0.0)
                    for i in range(i_q):
                        for ki in range(k):
                            for kj in range(k):
                                wq = _at(kernel, o, i, ki, kj)
                                xq = Quaternion(*(
                                    xp[c, bb, i, oh * s + ki, ow * s + kj]
                                    for c in range(4)
                                ))
                                acc = acc.add(hamilton_product(wq, xq))
                    if bias is not None:
                        acc = acc.add(_at(bias, o))
                    out.data[:, bb, o, oh, ow] = acc
    return out


def tconv_oracle(x: QTensor, kernel: QTensor, bias: QTensor | None, s: int, p: int) -> QTensor:
    """Scalar-loop reference for the transposed conv by an (in_q, out_q, k, k)
    kernel: input pixel (h, w) adds W[i, o, ki, kj] * x[b, i, h, w] at output
    (h*s - p + ki, w*s - p + kj)."""
    b, i_q, h, wd = x.shape
    o_q, k = kernel.shape[1], kernel.shape[2]
    ho = tconv_out_size(h, k, s, p)
    wo = tconv_out_size(wd, k, s, p)
    acc = [[[[Quaternion(0.0, 0.0, 0.0, 0.0) if bias is None else _at(bias, o)
              for _ in range(wo)] for _ in range(ho)] for o in range(o_q)]
           for _ in range(b)]
    for bb in range(b):
        for i in range(i_q):
            for ih in range(h):
                for iw in range(wd):
                    xq = _at(x, bb, i, ih, iw)
                    for o in range(o_q):
                        for ki in range(k):
                            for kj in range(k):
                                oh, ow = ih * s - p + ki, iw * s - p + kj
                                if 0 <= oh < ho and 0 <= ow < wo:
                                    term = hamilton_product(_at(kernel, i, o, ki, kj), xq)
                                    acc[bb][o][oh][ow] = acc[bb][o][oh][ow].add(term)
    out = QTensor.zeros((b, o_q, ho, wo))
    for bb in range(b):
        for o in range(o_q):
            for oh in range(ho):
                for ow in range(wo):
                    out.data[:, bb, o, oh, ow] = acc[bb][o][oh][ow]
    return out


class TestQDense:
    def test_quaternion_identity_weight(self, rng):
        x = _qt(rng, (3, 5))
        kernel = QTensor.zeros((5, 5))
        kernel.q0[...] = np.eye(5)
        y = run_op(ad.qdense, x, kernel)
        assert_qclose(y, x)

    def test_single_channel_matches_hamilton(self, rng):
        # weight = pure i unit: output must be i * x
        kernel = QTensor.zeros((1, 1))
        kernel.data[1] = 1.0
        x = _qt(rng, (4, 1))
        y = run_op(ad.qdense, x, kernel)
        for bb in range(4):
            want = hamilton_product(Quaternion(0, 1, 0, 0), _at(x, bb, 0))
            got = _at(y, bb, 0)
            assert all(abs(a - b) < 1e-12 for a, b in zip(got, want))

    def test_general_weight_matches_scalar_oracle(self, rng):
        x = _qt(rng, (2, 3))
        kernel, bias = _qt(rng, (4, 3)), _qt(rng, (4,))
        assert_qclose(run_op(ad.qdense, x, kernel, bias), dense_oracle(x, kernel, bias))

    def test_parameter_ratio_quarter(self):
        w = quaternion_init((16, 16), 16, 16, "glorot", 0)
        assert w.data.size == 1024  # vs 64*64 = 4096 for the real layer
        layer = MD.Model("m", [MD.QDense("fc", 16, 16)])
        assert MD.count_parameters(layer) == 1024 + 64

    def test_dimension_mismatch(self, rng):
        x = _qt(rng, (2, 3))
        with pytest.raises(ShapeMismatchError):
            run_op(ad.qdense, x, _qt(rng, (4, 5)))


class TestRealDense:
    def test_map_layout_matches_scalar_loop(self, rng):
        """Real output channel 4c+r of a (c, h, w) map lands at component r of
        quaternion channel c."""
        b, n_in, c, h, w = 2, 3, 2, 3, 2
        x = rng.standard_normal((b, n_in))
        k = rng.standard_normal((4 * c * h * w, n_in))
        bias = rng.standard_normal(4 * c * h * w)
        got = run_op(lambda *a: ad.real_dense(*a, c, h, w), x, k, bias)
        assert got.shape == (b, c, h, w)
        for n, ch, r, i, j in np.ndindex(b, c, 4, h, w):
            row = ((4 * ch + r) * h + i) * w + j
            want = sum(x[n, f] * k[row, f] for f in range(n_in)) + bias[row]
            assert abs(got.data[r, n, ch, i, j] - want) < 1e-12


class TestQConv2d:
    def test_identity_one_by_one(self, rng):
        x = _qt(rng, (2, 3, 4, 4))
        kernel = QTensor.zeros((3, 3, 1, 1))
        kernel.q0[:, :, 0, 0] = np.eye(3)
        assert_qclose(run_op(ad.qconv2d, x, kernel, None, 1, 0), x)

    def test_one_by_one_equals_dense_per_pixel(self, rng):
        x = _qt(rng, (2, 3, 3, 3))
        kernel = _qt(rng, (2, 3, 1, 1))
        bias = _qt(rng, (2,))
        y = run_op(ad.qconv2d, x, kernel, bias, 1, 0)
        wd = QTensor(kernel.data[:, :, :, 0, 0])
        for ph in range(3):
            for pw in range(3):
                pix = QTensor(np.ascontiguousarray(x.data[:, :, :, ph, pw]))
                want = run_op(ad.qdense, pix, wd, bias)
                assert np.allclose(y.data[:, :, :, ph, pw], want.data, atol=1e-12)

    def test_shape_arithmetic(self, rng):
        x = _qt(rng, (1, 2, 8, 8))
        y = run_op(ad.qconv2d, x, _qt(rng, (2, 2, 3, 3)), None, 1, 1)
        assert y.shape == (1, 2, 8, 8)

    @pytest.mark.parametrize("k,stride,pad", [(3, 1, 1), (4, 2, 1), (2, 2, 0), (1, 1, 0),
                                              (3, 1, 0), (1, 1, 1), (3, 1, 3), (5, 1, 2)])
    def test_matches_scalar_loop_oracle(self, rng, k, stride, pad):
        x = _qt(rng, (2, 2, 6, 8))
        kernel, bias = _qt(rng, (2, 2, k, k)), _qt(rng, (2,))
        got = run_op(ad.qconv2d, x, kernel, bias, stride, pad)
        want = conv_oracle(x, kernel, bias, stride, pad)
        assert np.allclose(got.data, want.data, atol=1e-12)

    @pytest.mark.parametrize("k,stride,pad", [
        (2, 2, 0), (4, 2, 1), (3, 2, 1), (5, 2, 2), (3, 2, 3), (3, 3, 1), (1, 2, 0),
        (4, 2, 2), (2, 2, 2), (4, 3, 2)])
    def test_strided_matches_oracle(self, rng, k, stride, pad):
        """Strided geometries on a 5x7 map, whose padded sides are not all
        multiples of the stride: s dividing k or not, k = 1, and p >= s. At
        (4,2,2) and (2,2,2) the last input row sits in a phase row that a
        symmetric pad of the phase map by p // s would cut."""
        x = _qt(rng, (2, 2, 5, 7))
        kernel, bias = _qt(rng, (3, 2, k, k)), _qt(rng, (3,))
        assert np.allclose(
            run_op(ad.qconv2d, x, kernel, bias, stride, pad).data,
            conv_oracle(x, kernel, bias, stride, pad).data,
            atol=1e-12,
        )

    @pytest.mark.parametrize("k,pad", [(1, 0), (3, 0), (3, 3)])
    def test_kernel_gradient_matches_finite_differences(self, rng, k, pad):
        """Stride-1 kernel and bias gradients, summed over the row-shifted
        patch GEMMs, against central differences (the grad-check suite
        covers (3, 1))."""
        x = _qt(rng, (2, 2, 4, 5))
        probe = _qt(rng, (2, 3, conv_out_size(4, k, 1, pad), conv_out_size(5, k, 1, pad)))

        def build(tape, leaves):
            y = ad.qconv2d(tape.constant(x), leaves["k"], leaves["b"], 1, pad)
            return ad.inner_const(y, probe)

        params = {"k": _qt(rng, (3, 2, k, k)), "b": _qt(rng, (3,))}
        report = ad.grad_check(build, params, tolerance=1e-4, step=1e-6)
        assert report.passed, str(report)

    def test_kernel_larger_than_padded_input(self, rng):
        x = _qt(rng, (1, 1, 2, 2))
        with pytest.raises(ShapeMismatchError):
            run_op(ad.qconv2d, x, _qt(rng, (1, 1, 5, 5)), None, 1, 0)


_ADJOINT_CASES = [(1, 0, 1), (1, 1, 1), (3, 0, 1), (3, 1, 1), (3, 3, 1), (5, 2, 1),
                  (4, 1, 2), (3, 1, 2)]


class TestTransposedConv:
    def test_shape_formula(self, rng):
        assert tconv_out_size(8, 4, 2, 1) == 16
        x = _qt(rng, (1, 2, 8, 8))
        y = run_op(ad.qtconv2d, x, _qt(rng, (2, 2, 4, 4)), None, 2, 1)
        assert y.shape == (1, 2, 16, 16)

    def test_identity_one_by_one(self, rng):
        x = _qt(rng, (2, 3, 4, 4))
        kernel = QTensor.zeros((3, 3, 1, 1))
        kernel.q0[:, :, 0, 0] = np.eye(3)
        y = run_op(ad.qtconv2d, x, kernel, None, 1, 0)
        assert_qclose(y, x)

    @pytest.mark.parametrize("k,stride,pad", [
        (4, 2, 1), (3, 1, 1), (2, 2, 0), (3, 2, 1), (5, 2, 2), (3, 2, 3), (3, 3, 1),
        (1, 2, 0), (4, 2, 2), (4, 3, 2), (2, 2, 1)])
    def test_matches_scalar_loop_oracle(self, rng, k, stride, pad):
        x = _qt(rng, (2, 2, 3, 5))
        kernel, bias = _qt(rng, (2, 3, k, k)), _qt(rng, (3,))
        got = run_op(ad.qtconv2d, x, kernel, bias, stride, pad)
        want = tconv_oracle(x, kernel, bias, stride, pad)
        assert np.allclose(got.data, want.data, atol=1e-12)

    @pytest.mark.parametrize("k,pad,stride", _ADJOINT_CASES,
                             ids=[f"{k}-{p}" + (f"-s{s}" if s > 1 else "")
                                  for k, p, s in _ADJOINT_CASES])
    def test_adjoint_of_conv_with_conjugated_weights(self, rng, k, pad, stride):
        """<conv(x), g> = <x, tconv(g, adapted w)>: the input gradient of the
        quaternion conv equals the transposed conv with conjugated kernel.
        Both run the adjoint row GEMMs, against row weights built from
        different Hamilton blocks. The map is cut so that the stride reaches
        its last padded row and column, as the transposed conv's output size
        requires."""
        h, w = (n - (n + 2 * pad - k) % stride for n in (5, 7))
        x = _qt(rng, (2, 2, h, w))
        kernel = _qt(rng, (3, 2, k, k))
        ho, wo = conv_out_size(h, k, stride, pad), conv_out_size(w, k, stride, pad)
        g = _qt(rng, (2, 3, ho, wo))

        tape = ad.Tape()
        xn = tape.param("x", x)
        y = ad.qconv2d(xn, tape.constant(kernel), None, stride, pad)
        loss = ad.inner_const(y, g)
        dx = tape.backward(loss)["x"]

        adapted = kernel.data.copy()
        adapted[1:] = -adapted[1:]
        tw = QTensor(adapted)  # (out,in,k,k) already matches the (in,out) slot
        got = run_op(ad.qtconv2d, g, tw, None, stride, pad)
        assert got.shape == x.shape
        assert np.allclose(got.data, dx.data, atol=1e-10)


_CONV_OPS = pytest.mark.parametrize("op,kernel", [(ad.qconv2d, (3, 2, 3, 3)),
                                                  (ad.qtconv2d, (2, 3, 3, 3))],
                                     ids=["qconv2d", "qtconv2d"])


class TestConvChecks:
    """A conv's widths come from its kernel, which takes 2 quaternion channels
    here; its stride and padding are checked where the output size is."""

    @_CONV_OPS
    def test_channel_mismatch_names_both_counts(self, rng, op, kernel):
        with pytest.raises(ShapeMismatchError) as exc:
            run_op(op, _qt(rng, (1, 5, 4, 4)), _qt(rng, kernel), None, 1, 1)
        assert "has 5 quaternion channels" in str(exc.value)
        assert "expects 2" in str(exc.value)

    @_CONV_OPS
    def test_non_square_kernel_is_refused(self, rng, op, kernel):
        with pytest.raises(ShapeMismatchError):
            run_op(op, _qt(rng, (1, 2, 4, 4)), _qt(rng, (*kernel[:3], 2)), None, 1, 1)

    @_CONV_OPS
    @pytest.mark.parametrize("stride,padding", [(0, 1), (1, -1)])
    def test_bad_stride_or_padding_is_a_config_error(self, rng, op, kernel, stride, padding):
        with pytest.raises(ConfigError):
            run_op(op, _qt(rng, (1, 2, 4, 4)), _qt(rng, kernel), None, stride, padding)


class TestUpConv:
    @pytest.mark.parametrize("b,i,o,h,w", [(1, 2, 3, 3, 5), (2, 3, 1, 1, 2), (1, 1, 2, 4, 4)])
    def test_matches_conv_of_upsampled_input(self, rng, b, i, o, h, w):
        """The module's output and its input, kernel and bias gradients equal
        those of the 3x3 conv of the nearest 2x upsample."""
        conv = MD.QUpConv("c", i, o)
        conv.init_params(rng, "glorot")
        conv.bias.value.data[...] = rng.standard_normal((4, o))
        x = _qt(rng, (b, i, h, w))
        probe = _qt(rng, (b, o, 2 * h, 2 * w))

        def run(fused):
            tape = ad.Tape()
            xn = tape.param("x", x)
            leaves = {"c.kernel": tape.param("k", conv.kernel.value),
                      "c.bias": tape.param("b", conv.bias.value)}
            if fused:
                y = conv.forward(leaves, xn)
            else:
                y = ad.qconv2d(ad.upsample2x(xn), leaves["c.kernel"], leaves["c.bias"], 1, 1)
            return y.value, tape.backward(ad.inner_const(y, probe))

        (y, grads), (want, want_grads) = run(True), run(False)
        assert np.allclose(y.data, want.data, rtol=0, atol=1e-12)
        for name in ("x", "k", "b"):
            assert np.allclose(grads[name].data, want_grads[name].data, rtol=0, atol=1e-12)

    def test_kernel_must_be_three_by_three(self, rng):
        with pytest.raises(ShapeMismatchError):
            run_op(ad.upconv_kernel, _qt(rng, (2, 2, 4, 4)))


class TestPhasesAdjoint:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), s=st.integers(1, 3), pad=st.integers(-2, 2),
           c=st.integers(1, 3), b=st.integers(1, 2))
    def test_from_phases_is_adjoint_of_to_phases(self, data, s, pad, c, b):
        """<to_phases(x), y> == <x, from_phases(y)> on non-square maps, with
        phase grids that cut the shifted map and ones that zero-fill it."""
        h = data.draw(st.integers(1, 7), label="h")
        w = data.draw(st.integers(1, 7).filter(lambda v: v != h), label="w")
        # the exact fit is ceil((size + pad) / s) phases; draw up to one past it
        rows = data.draw(st.integers(1, max(1, -(-(h + pad) // s)) + 1), label="rows")
        cols = data.draw(st.integers(1, max(1, -(-(w + pad) // s)) + 1), label="cols")
        x = data.draw(arrays(np.float64, (h, b, w, c), elements=_finite))
        y = data.draw(arrays(np.float64, (rows, b, cols, s * s * c), elements=_finite))
        lhs = float((to_phases(x, s, pad, rows, cols) * y).sum())
        rhs = float((x * from_phases(y, s, pad, h, w)).sum())
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_phase_layout(self):
        """Phase pixel (r, c) stacks the s x s block at (s*r, s*c) of the
        padded map, channels in (row phase, column phase, channel) order."""
        x = np.arange(5 * 7, dtype=float).reshape(5, 1, 7, 1)
        got = to_phases(x, 2, 1, 3, 4)
        xp = np.zeros((6, 1, 8, 1))
        xp[1:6, :, 1:8] = x
        for ri in range(2):
            for rj in range(2):
                assert np.array_equal(got[..., 2 * ri + rj], xp[ri::2, :, rj::2, 0])

    def test_stride_one_exact_fit_returns_view(self, rng):
        x = rng.standard_normal((5, 2, 7, 3))
        assert np.shares_memory(to_phases(x, 1, 0, 5, 7), x)
        assert np.shares_memory(from_phases(x, 1, 0, 5, 7), x)


class TestRightMultiplication:
    @pytest.mark.parametrize("layer", ["qdense", "qconv2d", "qtconv2d"])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4), s=st.integers(1, 3),
           data=st.data(), in_q=st.integers(1, 3), out_q=st.integers(1, 3))
    def test_bias_free_layer_commutes_with_right_multiplication(
            self, layer, seed, k, s, data, in_q, out_q):
        """f(x q) == f(x) q for a quaternion q: the weight multiplies from the
        left, so by associativity a right factor passes through the layer.
        Covers the sign pattern and the layout without a scalar oracle."""
        p = data.draw(st.integers(0, k - 1), label="p")
        h = data.draw(st.integers(1, 7), label="h")
        w = data.draw(st.integers(1, 7).filter(lambda v: v != h), label="w")
        rng = np.random.default_rng(seed)
        q = rng.standard_normal(4)
        if layer == "qdense":
            x, weight, args = _qt(rng, (2, in_q)), _qt(rng, (out_q, in_q)), ()
        else:
            if layer == "qconv2d":
                assume(min(h, w) + 2 * p >= k)
                kernel = (out_q, in_q, k, k)
            else:
                assume((min(h, w) - 1) * s - 2 * p + k >= 1)
                kernel = (in_q, out_q, k, k)
            x, weight = _qt(rng, (2, in_q, h, w)), _qt(rng, kernel)
            args = (None, s, p)

        def f(v):
            return run_op(getattr(ad, layer), v, weight, *args)

        def right(v):
            return tensor_hamilton(v, QTensor(np.broadcast_to(
                q.reshape(4, *[1] * len(v.shape)), v.data.shape).copy()))

        assert np.allclose(f(right(x)).data, right(f(x)).data, rtol=0, atol=1e-12)


class TestHamiltonBlock:
    @settings(max_examples=60, deadline=None)
    @given(a=arrays(np.float64, 4, elements=_finite), b=arrays(np.float64, 4, elements=_finite))
    def test_homomorphism_on_one_by_one_kernels(self, a, b):
        """The block of a product is the product of the blocks."""
        ab = hamilton_product(Quaternion(*a), Quaternion(*b))
        lhs = hamilton_block(np.array(ab, dtype=float).reshape(4, 1, 1))
        rhs = hamilton_block(a.reshape(4, 1, 1)) @ hamilton_block(b.reshape(4, 1, 1))
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 4), cols=st.integers(1, 4))
    def test_fold_is_adjoint(self, data, rows, cols):
        """<hamilton_block(w), G> == <w, fold_block(G)>."""
        w = data.draw(arrays(np.float64, (4, rows, cols), elements=_finite))
        g = data.draw(arrays(np.float64, (4 * rows, 4 * cols), elements=_finite))
        lhs = float((hamilton_block(w) * g).sum())
        rhs = float((w * fold_block(g)).sum())
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_conv_kernel_flattens_trailing_dims(self, rng):
        w = rng.standard_normal((4, 2, 3, 3, 3))
        assert np.array_equal(hamilton_block(w), hamilton_block(w.reshape(4, 2, 27)))
        assert hamilton_block(w).shape == (8, 108)

    def test_float32_stays_float32(self, rng):
        w = rng.standard_normal((4, 3, 2)).astype(np.float32)
        assert hamilton_block(w).dtype == np.float32
        assert fold_block(hamilton_block(w)).dtype == np.float32
        x = QTensor(rng.standard_normal((4, 5, 2)).astype(np.float32))
        assert run_op(ad.qdense, x, QTensor(w)).dtype == np.float32


class TestSplitOps:
    def test_relu_example(self):
        x = QTensor(np.array([-1.0, 2.0, -3.0, 4.0]).reshape(4, 1))
        y = run_op(ad.split_act, x, "relu")
        assert np.allclose(y.data.reshape(4), [0.0, 2.0, 0.0, 4.0])

    def test_tanh_zero(self):
        z = QTensor.zeros((3, 3))
        assert_qclose(run_op(ad.split_act, z, "tanh"), z)

    def test_sigmoid_range(self, rng):
        y = run_op(ad.split_act, _qt(rng, (10,)), "sigmoid")
        assert np.all(y.data > 0.0) and np.all(y.data < 1.0)

    def test_unknown_kind(self, rng):
        tape = ad.Tape()
        x = tape.constant(_qt(rng, (2,)))
        with pytest.raises(ConfigError):
            ad.split_act(x, "swish")
        assert len(tape.nodes) == 1

    def test_avg_pool_constant(self):
        x = QTensor(np.full((4, 1, 1, 4, 4), 2.5))
        y = run_op(ad.avg_pool, x, 2)
        assert np.allclose(y.data, 2.5)

    def test_global_sum_pool_matches_loop(self, rng):
        x = _qt(rng, (2, 3, 4, 4))
        y = run_op(ad.global_sum_pool, x)
        assert y.shape == (2, 3, 1, 1)
        for c in range(4):
            for b in range(2):
                for ch in range(3):
                    assert abs(y.data[c, b, ch, 0, 0] - x.data[c, b, ch].sum()) < 1e-12

    def test_pool_divisibility(self, rng):
        with pytest.raises(ShapeMismatchError):
            run_op(ad.avg_pool, _qt(rng, (1, 1, 5, 5)), 2)

    def test_upsample(self, rng):
        x = _qt(rng, (1, 1, 2, 2))
        y = run_op(ad.upsample2x, x)
        assert y.shape == (1, 1, 4, 4)
        assert np.all(y.data[:, :, :, 0:2, 0:2] == x.data[:, :, :, 0:1, 0:1])


class TestInit:
    def test_sigma_formulas(self):
        assert abs(init_sigma(128, 128, "glorot") - 1.0 / np.sqrt(512)) < 1e-15
        assert abs(init_sigma(64, 256, "he") - 1.0 / np.sqrt(128)) < 1e-15
        with pytest.raises(DomainError):
            init_sigma(0, 4, "glorot")

    def test_seed_determinism(self):
        a = quaternion_init((8, 8), 8, 8, "glorot", 7)
        b = quaternion_init((8, 8), 8, 8, "glorot", 7)
        assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("criterion,fans", [("glorot", (32, 48)), ("he", (32, 48))])
    def test_summed_component_variance_is_4_sigma_squared(self, criterion, fans):
        n = 100_000
        w = quaternion_init((n,), fans[0], fans[1], criterion, rng=3)
        sigma = init_sigma(fans[0], fans[1], criterion)
        total_var = sum(w.data[c].var() for c in range(4))
        assert abs(total_var - 4 * sigma**2) / (4 * sigma**2) < 0.05

    def test_component_means_near_zero(self):
        n = 100_000
        w = quaternion_init((n,), 16, 16, "glorot", rng=11)
        sigma = init_sigma(16, 16, "glorot")
        for c in range(4):
            comp = w.data[c]
            stderr = comp.std() / np.sqrt(n)
            assert abs(comp.mean()) < 3 * stderr + 1e-12, (c, comp.mean(), stderr)

    def test_bias_zero_by_default(self):
        layer = MD.QDense("fc", 4, 4)
        layer.init_params(np.random.default_rng(0), "glorot")
        assert np.any(layer.kernel.value.data != 0.0)
        assert np.all(layer.bias.value.data == 0.0)
