"""The storage rule for tape maps: map values and map gradients are stored
channels-last, and no op's result depends on how its inputs are stored."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatgan import autodiff as ad
from quatgan import models as MD
from quatgan import qnorm
from quatgan import train as T
from quatgan.qtensor import QTensor

# ops whose rank-5 values must be stored channels-last
MAP_OPS = ("qconv2d", "qtconv2d", "qbn", "add", "avg_pool", "upsample2x", "real_dense",
           "reshape")
# ops whose (B, n) values must be stored batch-major, (B, 4, n)
DENSE_OPS = ("qdense", "reshape")
# ops whose rank-5 values are kernels, not maps
KERNEL_OPS = ("param", "scale_components", "downconv_kernel", "upconv_kernel")


def _rows(a: np.ndarray) -> np.ndarray:
    """(4, B, C, H, W) -> (H, B, W, 4, C), and back."""
    return a.transpose(3, 1, 4, 0, 2)


def is_channels_last(a: np.ndarray) -> bool:
    return _rows(a).flags.c_contiguous


def channels_last(a: np.ndarray) -> np.ndarray:
    """The same values as ``a``, stored channels-last."""
    return _rows(np.ascontiguousarray(_rows(a)))


class TestStorageRule:
    @pytest.mark.parametrize("model,sn,loss", [("qsngan_toy8", "full", "hinge"),
                                               ("qdcgan_toy8", "none", "qce")])
    def test_training_step_keeps_maps_channels_last(self, tmp_path, monkeypatch, model, sn,
                                                    loss):
        """One D step and one G step at batch 4: every map value the listed
        ops record, and every map input gradient with more than one pixel,
        is channels-last, and every (B, n) value of a dense edge is stored
        (B, 4, n); the images a model hands out are C-contiguous."""
        bad, ops = [], set()
        record = ad.Tape.record

        def checked_record(tape, op, inputs, forward, backward=None):
            input_ops = [node.op for node in inputs]

            def bwd(g):
                grads = backward(g)
                for input_op, grad in zip(input_ops, grads):
                    if (grad is not None and grad.ndim == 5 and input_op not in KERNEL_OPS
                            and grad.shape[3] * grad.shape[4] > 1 and not is_channels_last(grad)):
                        bad.append(("gradient", op, input_op, grad.shape))
                return grads

            node = record(tape, op, inputs, forward, None if backward is None else bwd)
            value = node.value.data
            if (op in MAP_OPS or op.startswith("split_")) and value.ndim == 5:
                ops.add(op)
                if not is_channels_last(value):
                    bad.append(("value", op, value.shape))
            if op in DENSE_OPS and value.ndim == 3 and not value.swapaxes(0, 1).flags.c_contiguous:
                bad.append(("value", op, value.shape))
            return node

        monkeypatch.setattr(ad.Tape, "record", checked_record)
        cfg = T.TrainConfig(model=model, synth={"n": 8, "size": 8, "seed": 3}, batch_size=4,
                            iterations=1, seed=5, sn_mode=sn, loss=loss, eval_every=0,
                            checkpoint_every=0, eval_samples=4, sample_count=1,
                            out_dir=str(tmp_path / "run"))
        T.train(cfg)
        assert not bad
        assert {"qconv2d", "split_relu"} <= ops

        spec = MD.preset_spec(model)
        g, _ = MD.build_gan(spec, dtype=np.float32)
        g.init_params(np.random.default_rng(0))
        z = T.make_noise(spec, 3, np.random.default_rng(1))
        assert g.forward_array(z).data.flags.c_contiguous
        assert T.generate_images(g, spec, 3, np.random.default_rng(2)).flags.c_contiguous


def _conv_case(transposed, stride):
    def make(rng, b, c, h, w):
        k, p = (3, 1) if stride == 1 else (4, 1)
        kshape = (4, c, 2, k, k) if transposed else (4, 2, c, k, k)
        op = ad.qtconv2d if transposed else ad.qconv2d
        return ([rng.standard_normal((4, b, c, h, w))],
                [QTensor(rng.standard_normal(kshape)), QTensor(rng.standard_normal((4, 2)))],
                lambda x, kern, bias: op(x, kern, bias, stride, p))
    return make


def _unary_case(fn):
    def make(rng, b, c, h, w):
        return [rng.standard_normal((4, b, c, h, w))], [], fn
    return make


def _qbn_case(rng, b, c, h, w):
    gamma = rng.standard_normal(c)
    return ([rng.standard_normal((4, b, c, h, w))], [gamma, QTensor(rng.standard_normal((4, c)))],
            qnorm.qbn)


def _add_case(rng, b, c, h, w):
    return [rng.standard_normal((4, b, c, h, w)) for _ in range(2)], [], ad.add


def _real_dense_case(rng, b, c, h, w):
    """The map is the output; only its upstream gradient changes layout. The
    input, kernel and bias are plain real arrays."""
    x = rng.standard_normal((b, 3))
    kern, bias = rng.standard_normal((4 * c * h * w, 3)), rng.standard_normal(4 * c * h * w)
    return [], [x, kern, bias], lambda x, k, bi: ad.real_dense(x, k, bi, c, h, w)


# name -> (case, whether values and gradients may differ in rounding)
LAYOUT_CASES = {
    "qconv2d": (_conv_case(False, 1), False),
    "qconv2d_strided": (_conv_case(False, 2), False),
    "qtconv2d": (_conv_case(True, 2), False),
    "split_relu": (_unary_case(lambda x: ad.split_act(x, "relu")), False),
    "split_tanh": (_unary_case(lambda x: ad.split_act(x, "tanh")), False),
    "split_sigmoid": (_unary_case(lambda x: ad.split_act(x, "sigmoid")), False),
    "add": (_add_case, False),
    "avg_pool": (_unary_case(lambda x: ad.avg_pool(x, 2)), False),
    "upsample2x": (_unary_case(ad.upsample2x), False),
    "reshape": (_unary_case(lambda x: ad.reshape(x, (x.value.shape[0], -1))), False),
    "real_dense": (_real_dense_case, False),
    "qbn": (_qbn_case, True),
    "global_sum_pool": (_unary_case(ad.global_sum_pool), True),
}


class TestLayoutIndependence:
    @pytest.mark.parametrize("name", sorted(LAYOUT_CASES))
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 3), c=st.integers(1, 3),
           h=st.sampled_from([2, 4, 6]), w=st.sampled_from([2, 4]))
    def test_same_values_from_either_layout(self, name, seed, b, c, h, w):
        """Maps fed in C order and stored channels-last give the same value
        and input gradients: bitwise where no sum changes order with the
        layout, to rtol 1e-6 for QBN, the global pool and the kernel and
        bias gradients."""
        case, reduces = LAYOUT_CASES[name]
        rng = np.random.default_rng(seed)
        maps, others, op = case(rng, b, c, h, w)
        runs = []
        for store in (np.ascontiguousarray, channels_last):
            tape = ad.Tape()
            nodes = [tape.param(f"m{i}", QTensor(store(m))) for i, m in enumerate(maps)]
            nodes += [tape.param(f"o{i}", o) for i, o in enumerate(others)]
            node = op(*nodes)
            upstream = np.random.default_rng(seed + 1).standard_normal(node.value.data.shape)
            if upstream.ndim == 5:
                upstream = store(upstream)
            grads = node.bwd(upstream)
            runs.append((node.value.data, grads[: len(maps)], grads[len(maps):]))
        (v0, map_g0, other_g0), (v1, map_g1, other_g1) = runs
        if reduces:
            np.testing.assert_allclose(v1, v0, rtol=1e-6, atol=1e-12)
            for a, b_ in zip(map_g0, map_g1):
                np.testing.assert_allclose(b_, a, rtol=1e-6, atol=1e-12)
        else:
            assert np.array_equal(v0, v1)
            assert all(np.array_equal(a, b_) for a, b_ in zip(map_g0, map_g1))
        for a, b_ in zip(other_g0, other_g1):
            np.testing.assert_allclose(b_, a, rtol=1e-6, atol=1e-12)
