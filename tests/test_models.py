from collections import Counter

import numpy as np
import pytest
from conftest import run_op

from quatgan import autodiff as ad
from quatgan import cli
from quatgan import models as MD
from quatgan.errors import ConfigError, DomainError
from quatgan.qtensor import QTensor, live_array
from quatgan.train import make_noise


def assert_float32_pass(model, x):
    """A forward and backward of ``model`` on the f32 input ``x`` records no
    f64 tape value, and every gradient is f32 and has the shape of its
    parameter's stored array."""
    tape = ad.Tape()
    y = model.forward(tape, tape.constant(x))
    loss = ad.inner_const(y, QTensor(np.ones_like(y.value.data)))
    assert [n.op for n in tape.nodes if n.value.dtype != np.float32] == []
    grads = tape.backward(loss)
    for name, value in model.param_tensors().items():
        assert grads[name].dtype == np.float32, name
        assert grads[name].shape == live_array(value).shape, name


class TestModelSpecValidation:
    def test_width_divisibility(self):
        with pytest.raises(ConfigError):
            MD.ModelSpec(family="qsngan", image_size=16, g_widths=[30, 16],
                         d_widths=[16, 16], base_spatial=8)

    @pytest.mark.parametrize("width", [0, -4])
    def test_width_must_be_positive(self, width):
        """0 and -4 are multiples of 4 that give no quaternion channels."""
        with pytest.raises(ConfigError):
            MD.ModelSpec(family="qsngan", image_size=16, g_widths=[16, 16],
                         d_widths=[width, 16], base_spatial=8)

    @pytest.mark.parametrize("make", [lambda: MD.QDense("d", 0, 2),
                                      lambda: MD.QConv("c", 2, 0, 3, 1, 1),
                                      lambda: MD.QTConv("t", 0, 2, 4, 2, 1),
                                      lambda: MD.QUpConv("u", 2, 0)],
                             ids=["qdense", "qconv", "qtconv", "qupconv"])
    def test_weighted_module_refuses_zero_channels(self, make):
        with pytest.raises(ConfigError):
            make()

    def test_image_reachability(self):
        with pytest.raises(ConfigError):
            MD.ModelSpec(family="qsngan", image_size=24, g_widths=[16, 16],
                         d_widths=[16, 16], base_spatial=4)

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            MD.ModelSpec(family="stylegan", image_size=16, g_widths=[16], d_widths=[16])

    def test_qdcgan_noise_divisibility(self):
        with pytest.raises(ConfigError):
            MD.ModelSpec(family="qdcgan", image_size=16, g_widths=[32, 16],
                         d_widths=[16, 32], noise_dim=30)


class TestParameterAccounting:
    def test_single_qdense_with_bias(self):
        m = MD.Model("m", [MD.QDense("fc", 16, 16)])
        assert MD.count_parameters(m) == 4 * 16 * 16 + 4 * 16  # 1088

    def test_real_twin_dense_is_exactly_4x_weights(self):
        quat = MD.Model("m", [MD.QDense("fc", 16, 16)])
        twin = MD._twin_parameters(quat.modules[0])
        assert twin == 64 * 64 + 64  # 4160
        q_weights = 4 * 16 * 16
        r_weights = 64 * 64
        assert r_weights == 4 * q_weights

    @pytest.mark.parametrize("width", [8, 16, 32, 64, 128, 256])
    def test_quarter_law_dense(self, width):
        q = MD.QDense("fc", width // 4, width // 4)
        quat_w = q.kernel.value.data.size
        real_w = width * width
        assert quat_w * 4 == real_w
        # biases like-for-like: both carry `width` reals
        assert q.bias.value.data.size == width

    @pytest.mark.parametrize("width", [8, 16, 64, 256])
    def test_quarter_law_conv(self, width):
        q = MD.QConv("c", width // 4, width // 4, 3, 1, 1)
        quat_w = q.kernel.value.data.size
        real_w = width * width * 9
        assert quat_w * 4 == real_w

    def test_table_counts_celeba(self):
        spec = MD.preset_spec("qsngan_celeba128")
        g, d = MD.build_gan(spec)
        gq, dq = MD.count_parameters(g), MD.count_parameters(d)
        gr, dr = MD.count_twin_parameters(spec)
        assert gq == 9_631_204          # exact reproduction of the reported G
        assert gr == 32_150_787         # exact reproduction of the reported twin G
        assert abs(gq - 9_631_204) / 9_631_204 <= 0.02
        assert abs(dq - 7_264_901) / 7_264_901 <= 0.02
        assert (gq + dq) / (gr + dr) <= 0.30

    def test_small_model_counts(self):
        cifar = MD.preset_spec("qsngan_cifar32")
        g, d = MD.build_gan(cifar)
        assert MD.count_parameters(g) + MD.count_parameters(d) < 2_000_000
        stl = MD.preset_spec("qsngan_stl48")
        g, d = MD.build_gan(stl)
        total = MD.count_parameters(g) + MD.count_parameters(d)
        assert abs(total - 5_545_188) / 5_545_188 <= 0.02

    @pytest.mark.parametrize("name,counts", [
        ("qsngan_celeba128", (9_631_204, 7_260_676, 32_150_787, 29_017_857)),
        ("qsngan_cifar32", (1_469_124, 264_836, 4_276_739, 1_053_825)),
        ("qsngan_stl48", (3_005_028, 2_540_036, 4_878_083, 10_141_441)),
        ("qsngan_toy16", (159_876, 28_932, 241_283, 114_049)),
        ("qsngan_toy8", (71_420, 7_428, 86_659, 28_801)),
        ("qdcgan_toy16", (42_572, 9_908, 167_012, 36_065)),
        ("qdcgan_toy8", (17_412, 1_060, 68_100, 2_593)),
    ])
    def test_preset_counts_pinned(self, name, counts):
        """Quaternion G, D and real-twin G, D parameter counts of every preset."""
        spec = MD.preset_spec(name)
        g, d = MD.build_gan(spec)
        got = (MD.count_parameters(g), MD.count_parameters(d), *MD.count_twin_parameters(spec))
        assert got == counts

    def test_twin_reads_the_image_only_in_the_first_layer_of_each_path(self):
        """With a one-channel first block, D's input block has three convs
        that take one quaternion channel, but its conv2 reads conv1's map,
        not the image: conv2's twin is 4 -> 4 real channels (148 scalars),
        not 3 -> 4 (112)."""
        spec = MD.ModelSpec(family="qsngan", image_size=16, base_spatial=4,
                            g_widths=[64, 64, 32], d_widths=[4, 64, 64],
                            d_downsample=[True, False])
        assert MD.count_twin_parameters(spec)[1] == 77_033

    def test_count_params_cli(self, capsys):
        assert cli.main(["count-params", "--spec", "qsngan_toy16"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-2] == "  total       :      188,808   twin total :      355,332"
        assert out[-1] == "  ratio quaternion/real: 0.5314"

    @pytest.mark.parametrize("name", ["qsngan_celeba128", "qsngan_cifar32",
                                      "qsngan_stl48", "qsngan_toy16", "qdcgan_toy16"])
    def test_ratio_band(self, name):
        """Discriminators (pure quaternion stacks) sit in the (0.24, 0.31)
        band everywhere; totals only for configs whose shared real-valued
        initial dense does not dominate (the full-size model and qdcgan,
        whose first dense is itself quaternion)."""
        spec = MD.preset_spec(name)
        g, d = MD.build_gan(spec)
        gr, dr = MD.count_twin_parameters(spec)
        d_ratio = MD.count_parameters(d) / dr
        assert 0.24 < d_ratio < 0.31, (name, d_ratio)
        if name in ("qsngan_celeba128", "qdcgan_toy16"):
            ratio = (MD.count_parameters(g) + MD.count_parameters(d)) / (gr + dr)
            assert 0.24 < ratio < 0.31, (name, ratio)


class TestTapeOps:
    @pytest.mark.parametrize("name,ops", [
        ("qsngan_toy16", {"add": 5, "avg_pool": 4, "const": 1,
                          "global_sum_pool": 1, "param": 44, "qbn": 5, "qconv2d": 13,
                          "qdense": 1, "qtconv2d": 2, "real_dense": 1, "reshape": 1,
                          "scale_components": 9, "split_relu": 11, "split_tanh": 1,
                          "upconv_kernel": 2, "upsample2x": 2}),
        ("qdcgan_toy16", {"const": 1, "param": 16, "qbn": 2, "qconv2d": 2, "qdense": 2,
                          "qtconv2d": 2, "reshape": 2, "split_relu": 3, "split_sigmoid": 1,
                          "split_tanh": 1}),
    ])
    def test_preset_tape_ops_pinned(self, rng, name, ops):
        """The ops one G->D training forward records at batch 4 (full spectral
        norm for qsngan): the benchmark's per-op spans are keyed by these names."""
        spec = MD.preset_spec(name)
        g, d = MD.build_gan(spec, dtype=np.float32)
        g.init_params(rng)
        d.init_params(rng)
        MD.apply_spectral_norm(d)
        tape = ad.Tape()
        fake = g.forward(tape, tape.constant(make_noise(spec, 4, rng)))
        d.forward(tape, fake)
        assert Counter(node.op for node in tape.nodes) == ops  # 103 and 32 nodes


def _named(block, name):
    """The module of ``block``'s main path or shortcut called ``name``."""
    return next(m for m in block.main + block.shortcut if m.name == name)


class TestShapes:
    def test_qsngan_generator_output(self, rng):
        spec = MD.preset_spec("qsngan_toy16")
        g, d = MD.build_gan(spec)
        g.init_params(rng)
        d.init_params(rng)
        z = make_noise(spec, 3, rng, dtype=np.float64)
        img = g.forward_array(z)
        assert img.shape == (3, 1, 16, 16)  # one quaternion channel = 4 reals
        out = d.forward_array(img)
        assert out.shape == (3, 1)  # one quaternion decision per image
        assert np.all(out.data[1:] != 0.0)  # not a real decision carried in q0

    def test_qdcgan_shapes_and_decision_range(self, rng):
        spec = MD.preset_spec("qdcgan_toy16")
        g, d = MD.build_gan(spec)
        g.init_params(rng)
        d.init_params(rng)
        z = make_noise(spec, 2, rng, dtype=np.float64)
        img = g.forward_array(z)
        assert img.shape == (2, 1, 16, 16)
        assert np.all(img.data >= -1.0) and np.all(img.data <= 1.0)  # split tanh
        dec = d.forward_array(img)
        assert dec.shape == (2, 1)
        assert np.all(dec.data > 0.0) and np.all(dec.data < 1.0)  # sigmoid, all comps

    def test_gen_block_doubles_spatial(self, rng):
        block = MD.gen_block("b", 4, 2)
        block.init_params(rng, "glorot")
        tape = ad.Tape(needs_grad=False)
        leaves = {n: tape.param(n, p.value) for n, p in block.params()}
        x = tape.constant(QTensor(rng.standard_normal((4, 2, 4, 5, 5))))
        y = block.forward(leaves, x)
        assert y.value.shape == (2, 2, 10, 10)

    def test_first_disc_block_halves(self, rng):
        block = MD.first_disc_block("b", 2)
        block.init_params(rng, "glorot")
        tape = ad.Tape(needs_grad=False)
        leaves = {n: tape.param(n, p.value) for n, p in block.params()}
        x = tape.constant(QTensor(rng.standard_normal((4, 2, 1, 8, 8))))
        y = block.forward(leaves, x)
        assert y.value.shape == (2, 2, 4, 4)

    def test_refiner_preserves_dims(self, rng):
        block = MD.disc_block("b", 2, 2, downsample=False)
        block.init_params(rng, "glorot")
        assert block.shortcut == []  # identity shortcut
        tape = ad.Tape(needs_grad=False)
        leaves = {n: tape.param(n, p.value) for n, p in block.params()}
        x = tape.constant(QTensor(rng.standard_normal((4, 2, 2, 4, 4))))
        y = block.forward(leaves, x)
        assert y.value.shape == (2, 2, 4, 4)

    def test_disc_block_shortcut_only_ablation(self, rng):
        """Zeroing the residual-path convs reduces the block to the pooled
        1x1 shortcut conv."""
        block = MD.disc_block("b", 2, 3, downsample=True)
        block.init_params(rng, "glorot")
        _named(block, "b.conv2").kernel.value.data[...] = 0.0
        _named(block, "b.conv2").bias.value.data[...] = 0.0
        tape = ad.Tape(needs_grad=False)
        leaves = {n: tape.param(n, p.value) for n, p in block.params()}
        x = QTensor(rng.standard_normal((4, 2, 2, 4, 4)))
        y = block.forward(leaves, tape.constant(x))

        sc = _named(block, "b.sc")
        pooled = run_op(ad.avg_pool, x, 2)
        want = run_op(ad.qconv2d, pooled, sc.kernel.value, sc.bias.value, sc.stride, sc.padding)
        assert np.allclose(y.value.data, want.data, atol=1e-12)

    def test_first_block_sums_residual_and_shortcut(self, rng):
        """With spectral norm off, output = pooled(residual(x)) + pooled(sc(x))."""
        block = MD.first_disc_block("b", 2)
        block.init_params(rng, "glorot")
        tape = ad.Tape(needs_grad=False)
        leaves = {n: tape.param(n, p.value) for n, p in block.params()}
        x = QTensor(rng.standard_normal((4, 2, 1, 4, 4)))
        y = block.forward(leaves, tape.constant(x))

        c1, c2, sc = (_named(block, f"b.{k}") for k in ("conv1", "conv2", "sc"))
        h = run_op(ad.qconv2d, x, c1.kernel.value, c1.bias.value, c1.stride, c1.padding)
        h = run_op(ad.split_act, h, "relu")
        h = run_op(ad.qconv2d, h, c2.kernel.value, c2.bias.value, c2.stride, c2.padding)
        h = run_op(ad.avg_pool, h, 2)
        s = run_op(ad.qconv2d, x, sc.kernel.value, sc.bias.value, sc.stride, sc.padding)
        s = run_op(ad.avg_pool, s, 2)
        assert np.allclose(y.value.data, h.data + s.data, atol=1e-12)


def test_eval_mode_is_refused(rng):
    """QBN normalizes every batch by its own statistics; a forward that asks
    for an eval mode is refused rather than run in train mode."""
    spec = MD.preset_spec("qdcgan_toy16")
    g, _ = MD.build_gan(spec)
    z = make_noise(spec, 2, rng, dtype=np.float64)
    tape = ad.Tape(needs_grad=False)
    with pytest.raises(DomainError, match="eval"):
        g.forward(tape, tape.constant(z), training=False)
    with pytest.raises(DomainError, match="eval"):
        g.forward_array(z, training=False)


class TestSpectralNormIntegration:
    def test_full_mode_normalizes_constructed_matrices(self, rng):
        spec = MD.preset_spec("qsngan_toy8")
        _, d = MD.build_gan(spec)
        d.init_params(rng)
        MD.sn_warmup(d, iters=50)
        for name, sigma in MD.measure_sigmas(d).items():
            assert abs(sigma - 1.0) < 1e-2, (name, sigma)

    def test_split_mode_normalizes_submatrices(self, rng):
        spec = MD.preset_spec("qsngan_toy8")
        spec.sn = "split"
        _, d = MD.build_gan(spec)
        d.init_params(rng)
        MD.sn_warmup(d, iters=50)
        for name, sigma in MD.measure_sigmas(d).items():
            assert abs(sigma - 1.0) < 1e-2, (name, sigma)

    def test_none_mode_leaves_weights(self, rng):
        spec = MD.preset_spec("qsngan_toy8")
        spec.sn = "none"
        _, d = MD.build_gan(spec)
        d.init_params(rng)
        MD.apply_spectral_norm(d)  # no-op
        for m in d.weighted_modules():
            assert m.sn_scale is None

    @pytest.mark.parametrize("sn", ["full", "split"])
    def test_float32_discriminator_records_no_float64(self, rng, sn):
        spec = MD.preset_spec("qsngan_toy16")
        spec.sn = sn
        _, d = MD.build_gan(spec, dtype=np.float32)
        d.init_params(rng)
        MD.sn_warmup(d, iters=2)
        x = QTensor(rng.standard_normal((4, 2, 1, 16, 16)).astype(np.float32))
        assert_float32_pass(d, x)

    @pytest.mark.parametrize("preset", ["qsngan_toy16", "qdcgan_toy16"])
    def test_float32_nets_record_no_float64(self, rng, preset):
        """Both nets of each family, at f32: the qsngan G reads plain f32
        noise through ``real_dense``, and the qdcgan nets hold QBN gains."""
        spec = MD.preset_spec(preset)
        g, d = MD.build_gan(spec, dtype=np.float32)
        g.init_params(rng)
        d.init_params(rng)
        MD.sn_warmup(d, iters=2)  # a no-op without spectral norm
        z = make_noise(spec, 2, rng)
        assert_float32_pass(g, z)
        assert_float32_pass(d, g.forward_array(z))

    def test_effective_weights_are_scaled_in_forward(self, rng):
        spec = MD.preset_spec("qsngan_toy8")
        _, d = MD.build_gan(spec)
        d.init_params(rng)
        x = QTensor(rng.standard_normal((4, 2, 1, 8, 8)))
        before = d.forward_array(x).data.copy()
        MD.sn_warmup(d, iters=30)
        after = d.forward_array(x).data
        assert not np.allclose(before, after)


class TestLiveStates:
    @pytest.mark.parametrize("preset,sn", [("qsngan_toy8", "full"), ("qsngan_toy8", "split"),
                                           ("qdcgan_toy16", "none")])
    def test_states_exist_from_construction_and_update_in_place(self, rng, preset, sn):
        """``states()`` lists the same arrays before and after training
        work changes them, so a checkpoint load can write into them. Only
        spectral norm keeps state: a model without it has none."""
        spec = MD.preset_spec(preset)
        spec.sn = sn
        g, d = MD.build_gan(spec, dtype=np.float32)
        g.init_params(rng)
        d.init_params(rng)
        before = {**g.states(), **d.states()}
        if sn == "none":
            assert before == {}
        elif sn == "split":
            assert "d.fc.sn_u3" in before and "d.fc.sn_u" not in before
        elif sn == "full":
            assert "d.fc.sn_u" in before
        snapshot = {k: v.copy() for k, v in before.items()}
        MD.apply_spectral_norm(d)
        d.forward_array(g.forward_array(make_noise(spec, 4, rng)))
        after = {**g.states(), **d.states()}
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)
        changed = {k for k in before if not np.array_equal(after[k], snapshot[k])}
        assert any(".sn_u" in k for k in changed) == (sn != "none")
