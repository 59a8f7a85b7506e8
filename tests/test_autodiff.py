import ctypes
import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import quatgan
from quatgan import autodiff as ad
from quatgan.errors import DomainError, ShapeMismatchError
from quatgan.optim import AdamState, adam_step
from quatgan.qtensor import QTensor, live_array


def scalar_qt(value: float) -> QTensor:
    data = np.zeros(4)
    data[0] = value
    return QTensor(data)


def total(y):
    """Sum of every component of every element, as a scalar loss node."""
    return ad.inner_const(y, QTensor(np.ones_like(y.value.data)))


class TestTapeRecording:
    def test_constant_is_valid_leaf(self):
        tape = ad.Tape()
        node = tape.constant(scalar_qt(2.0))
        assert node.inputs == () and node.nid == 0

    def test_same_op_twice_distinct_ids(self, rng):
        tape = ad.Tape()
        x = tape.constant(QTensor(rng.standard_normal((4, 3))))
        a = ad.scale_components(x, [2.0] * 4)
        b = ad.scale_components(x, [2.0] * 4)
        assert a.nid != b.nid

    def test_chained_backward_order(self):
        tape = ad.Tape()
        x = tape.param("x", scalar_qt(1.5))
        a = ad.scale_components(x, [2.0] * 4)      # nid 1
        b = ad.scale_components(a, [3.0] * 4)      # nid 2
        c = ad.scale_components(b, [4.0] * 4)      # nid 3
        grads = tape.backward(c)
        assert np.array_equal(grads["x"], [2.0 * 3.0 * 4.0, 0.0, 0.0, 0.0])

    def test_foreign_node_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        x = t1.constant(scalar_qt(1.0))
        with pytest.raises(DomainError):
            t2.record("neg", (x,), lambda v: v)

    def test_duplicate_param_name(self):
        tape = ad.Tape()
        tape.param("w", scalar_qt(1.0))
        with pytest.raises(DomainError):
            tape.param("w", scalar_qt(2.0))


class TestTapeLifetime:
    def _gan_step_tape(self):
        from quatgan import losses as LS
        from quatgan import models as MD

        rng = np.random.default_rng(0)
        spec = MD.preset_spec("qsngan_toy8")
        spec.sn = "full"
        g, d = MD.build_gan(spec)
        g.init_params(rng)
        d.init_params(rng)
        MD.apply_spectral_norm(d)
        tape = ad.Tape()
        z = rng.standard_normal((2, spec.noise_dim))
        fake = g.forward(tape, tape.constant(z))
        loss = LS.hinge_generator_op(d.forward(tape, fake))
        tape.backward(loss)
        return tape, loss

    def test_dropped_tape_is_freed_without_collector(self):
        tape, loss = self._gan_step_tape()
        ref = weakref.ref(tape)
        gc.disable()
        try:
            del tape
            assert ref() is None
        finally:
            gc.enable()

    def test_node_outliving_its_tape_raises_domain_error(self):
        tape, loss = self._gan_step_tape()
        del tape
        with pytest.raises(DomainError):
            loss.tape
        with pytest.raises(DomainError):
            ad.scale_components(loss, [2.0] * 4)


def _array_refs(value):
    """Weak references to a value's array and to the buffer it views."""
    data = live_array(value)
    return [weakref.ref(a) for a in (data, data.base) if isinstance(a, np.ndarray)]


class TestValueOwnership:
    """A value lives only while a caller holds its node or a backward closure
    saved it; the tape keeps neither nodes nor values."""

    def test_gradient_free_values_die_with_their_nodes(self, rng, monkeypatch):
        """During a ``qsngan_toy8`` G ``forward_array`` the tape is kept
        alive, yet once the forward has dropped their nodes no op output
        outlives it."""
        from quatgan import models as MD
        from quatgan.train import make_noise

        spec = MD.preset_spec("qsngan_toy8")
        g, _ = MD.build_gan(spec, dtype=np.float32)
        g.init_params(rng)
        tapes, refs = [], []
        record = ad.Tape.record

        def recording(tape, op, *args):
            node = record(tape, op, *args)
            tapes.append(tape)
            if op not in ("const", "param"):
                refs.extend((op, r) for r in _array_refs(node.value))
            return node

        monkeypatch.setattr(ad.Tape, "record", recording)
        out = g.forward_array(make_noise(spec, 4, rng))
        assert refs and all(t is tapes[0] for t in tapes)
        del out
        assert [op for op, r in refs if r() is not None] == []

    def test_unsaved_value_dies_and_backward_releases_closures(self, rng):
        """A QBN output, which the ReLU after it does not save, is freed as
        soon as its node is dropped on a gradient tape; after backward the
        tape holds no closure."""
        from quatgan.qnorm import qbn

        tape = ad.Tape()
        x = tape.param("x", QTensor(rng.standard_normal((4, 3, 2, 4, 4))))
        normed = qbn(x, tape.param("gamma", np.ones(2)), tape.param("beta", QTensor.zeros((2,))))
        relu = ad.split_act(normed, "relu")
        value_refs = _array_refs(normed.value)
        closures = [weakref.ref(n.bwd) for n in (normed, relu)]
        del normed, relu
        assert all(r() is None for r in value_refs)
        assert all(r() is not None for r in closures)  # the tape keeps them until backward

        loss = total(ad.split_act(ad.upsample2x(x), "tanh"))
        closures.append(weakref.ref(loss.bwd))
        tape.backward(loss)
        del loss
        assert all(r() is None for r in closures)

    def test_backward_drops_each_gradient_once_consumed(self):
        """When a closure runs, the upstream gradients of the closures that ran
        before it are freed."""
        tape = ad.Tape()
        h = tape.param("x", QTensor(np.ones((4, 3))))
        upstream, freed = [], []

        def bwd(g):
            freed.append([r() is None for r in upstream])
            upstream.append(weakref.ref(g))
            return (g * 2.0,)

        for _ in range(4):
            h = tape.record("double", (h,), lambda v: QTensor(v.data * 2.0), bwd)
        grads = tape.backward(total(h))
        assert np.all(grads["x"] == 16.0)
        assert freed == [[], [True], [True, True], [True, True, True]]


class TestBackward:
    def test_loss_must_be_scalar(self, rng):
        tape = ad.Tape()
        x = tape.param("x", QTensor(rng.standard_normal((4, 3))))
        with pytest.raises(DomainError):
            tape.backward(x)

    def test_loss_must_be_real(self):
        tape = ad.Tape()
        data = np.array([1.0, 0.5, 0.0, 0.0])
        x = tape.param("x", QTensor(data))
        with pytest.raises(DomainError):
            tape.backward(x)

    def test_constant_loss_gives_zero_gradients(self, rng):
        tape = ad.Tape()
        w = tape.param("w", QTensor(rng.standard_normal((4, 2, 2))))
        loss = tape.constant(scalar_qt(5.0))
        grads = tape.backward(loss)
        assert np.all(grads["w"] == 0.0)
        assert grads["w"].shape == (4, 2, 2)

    def test_hand_expanded_dense_sign_pattern(self, rng):
        """loss = sum of components of w*x for 1x1 quaternion weight: the
        gradient follows the expanded four-line sign pattern."""
        x = rng.standard_normal(4)
        w = rng.standard_normal(4)
        tape = ad.Tape()
        wq = tape.param("w", QTensor(w.reshape(4, 1, 1)))
        xq = tape.constant(QTensor(x.reshape(4, 1, 1)))
        y = ad.qdense(xq, wq, None)
        grads = tape.backward(total(y))
        x0, x1, x2, x3 = x
        want = np.array([
            x0 + x1 + x2 + x3,       # dW0: appears with + in all four lines
            -x1 + x0 - x3 + x2,      # dW1
            -x2 + x3 + x0 - x1,      # dW2
            -x3 - x2 + x1 + x0,      # dW3
        ])
        assert np.allclose(grads["w"].reshape(4), want, atol=1e-12)

    def test_gradient_linear_in_upstream(self, rng):
        def build(factor):
            tape = ad.Tape()
            w = tape.param("w", QTensor(rng_fixed.standard_normal((4, 2, 3))))
            x = tape.constant(QTensor(rng_fixed.standard_normal((4, 5, 3))))
            y = ad.qdense(x, w, None)
            loss = ad.scale_components(total(ad.split_act(y, "tanh")), [factor] * 4)
            return tape.backward(loss)["w"]

        rng_fixed = np.random.default_rng(3)
        g1 = build(1.0)
        rng_fixed = np.random.default_rng(3)
        g2 = build(2.0)
        assert np.allclose(g2, 2.0 * g1, rtol=1e-12, atol=1e-12)

    def test_determinism_bitwise(self):
        def run():
            rng = np.random.default_rng(17)
            tape = ad.Tape()
            w = tape.param("w", QTensor(rng.standard_normal((4, 3, 2))))
            x = tape.constant(QTensor(rng.standard_normal((4, 4, 2))))
            y = ad.split_act(ad.qdense(x, w, None), "sigmoid")
            return tape.backward(total(y))["w"]

        a, b = run(), run()
        assert np.array_equal(a, b)

    def test_shared_input_accumulates(self, rng):
        tape = ad.Tape()
        x = tape.param("x", scalar_qt(3.0))
        y = ad.add(x, x)
        grads = tape.backward(y)
        assert grads["x"][0] == 2.0


class TestGradientPruning:
    """Only nodes that need a gradient keep a backward: parameters of a
    gradient tape and what is computed from them."""

    def test_needs_grad_propagates(self, rng):
        tape = ad.Tape()
        c = tape.constant(QTensor(rng.standard_normal((4, 3))))
        w = tape.param("w", QTensor(rng.standard_normal((4, 3))))
        from_const = ad.scale_components(ad.split_act(c, "relu"), [2.0] * 4)
        mixed = ad.add(from_const, w)
        assert not c.needs_grad and w.needs_grad
        assert not from_const.needs_grad and from_const.bwd is None
        assert mixed.needs_grad and mixed.bwd is not None
        assert ad.split_act(mixed, "tanh").needs_grad

    def test_gradient_free_tape_needs_none(self, rng):
        tape = ad.Tape(needs_grad=False)
        w = tape.param("w", QTensor(rng.standard_normal((4, 3))))
        y = ad.split_act(w, "tanh")
        assert not w.needs_grad and not y.needs_grad and y.bwd is None

    @staticmethod
    def _layer_case(name, rng):
        """(input, kernel, bias, op) for one of the four layer ops that skip
        their input gradient."""
        if name == "real_dense":
            return (rng.standard_normal((3, 5)), rng.standard_normal((4 * 2 * 2 * 2, 5)),
                    rng.standard_normal(4 * 2 * 2 * 2),
                    lambda x, k, b: ad.real_dense(x, k, b, 2, 2, 2))
        if name == "qdense":
            return (QTensor(rng.standard_normal((4, 3, 5))),
                    QTensor(rng.standard_normal((4, 2, 5))), QTensor(rng.standard_normal((4, 2))),
                    ad.qdense)
        x = QTensor(rng.standard_normal((4, 2, 3, 6, 6)))
        if name == "qconv2d":
            kern = QTensor(rng.standard_normal((4, 2, 3, 4, 4)))
            return x, kern, QTensor(rng.standard_normal((4, 2))), \
                lambda x, k, b: ad.qconv2d(x, k, b, 2, 1)
        kern = QTensor(rng.standard_normal((4, 3, 2, 4, 4)))
        return x, kern, QTensor(rng.standard_normal((4, 2))), \
            lambda x, k, b: ad.qtconv2d(x, k, b, 2, 1)

    @pytest.mark.parametrize("name", ["qconv2d", "qtconv2d", "qdense", "real_dense"])
    def test_constant_input_skips_only_the_input_gradient(self, rng, name):
        """With a constant input the op returns no input gradient, and its
        kernel and bias gradients are bitwise those it computes for a
        parameter input."""
        x, kern, bias, op = self._layer_case(name, rng)
        runs = []
        for leaf in ("constant", "param"):
            tape = ad.Tape()
            xn = tape.constant(x) if leaf == "constant" else tape.param("x", x)
            node = op(xn, tape.param("k", kern), tape.param("b", bias))
            upstream = np.random.default_rng(1).standard_normal(node.value.data.shape)
            runs.append(node.bwd(upstream))
        (dx_c, *rest_c), (dx_p, *rest_p) = runs
        assert dx_c is None and dx_p.shape == live_array(x).shape
        assert all(np.array_equal(a, b) for a, b in zip(rest_c, rest_p))


class TestViewContributions:
    """A gradient that is a view is copied only when it covers part of its
    buffer, so the tape never pins a larger buffer than it needs."""

    @staticmethod
    def grad_of(contrib):
        tape = ad.Tape()
        x = tape.param("x", QTensor(np.zeros((4, 2, 3))))
        y = tape.record("view", (x,), lambda xv: xv, lambda g: (contrib,))
        return tape.backward(total(y))["x"]

    def test_slice_of_larger_buffer_is_copied(self):
        buf = np.arange(48.0).reshape(4, 2, 6)
        grad = self.grad_of(buf[..., :3])
        assert not np.shares_memory(grad, buf)
        assert np.array_equal(grad, buf[..., :3])

    def test_whole_buffer_view_is_kept(self):
        buf = np.arange(24.0).reshape(2, 4, 3)
        grad = self.grad_of(buf.transpose(1, 0, 2))
        assert np.shares_memory(grad, buf)
        assert np.array_equal(grad, buf.transpose(1, 0, 2))


class TestFlattenMap:
    @pytest.mark.parametrize("channels_last", [True, False])
    @pytest.mark.parametrize("b,c,h,w", [(32, 16, 4, 4), (3, 2, 1, 5), (1, 1, 2, 3)])
    def test_bitwise_equal_to_one_pass_copy(self, channels_last, b, c, h, w):
        """Flattening a map per sample, as the qdcgan D head does, writes the
        same bits and the same batch-major storage as the one strided copy."""
        data = np.random.default_rng(0).standard_normal((4, b, c, h, w)).astype(np.float32)
        if channels_last:
            data = np.ascontiguousarray(data.transpose(3, 1, 4, 0, 2)).transpose(3, 1, 4, 0, 2)
        tape = ad.Tape(needs_grad=False)
        got = ad.reshape(tape.constant(QTensor(data)), (-1, c * h * w)).value.data
        want = ad._copy_reshaped(ad._tape_empty((b, c * h * w), data.dtype), data)
        assert np.array_equal(got, want)
        assert got.strides == want.strides


HEAP_REUSE_SCRIPT = """
import resource, sys
from quatgan import train as T

def run(name):
    T.train(T.TrainConfig(model="qdcgan_toy16", batch_size=32, iterations=4, seed=1,
                          sn_mode="none", loss="qce", synth={"n": 64, "size": 16, "seed": 1},
                          eval_samples=16, sample_count=4, out_dir=sys.argv[1] + name))

run("/a")
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run("/b")
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="the C library has no mallopt")
def test_second_training_run_reuses_the_heap(tmp_path):
    """Importing autodiff keeps freed heap in the process: a second identical
    4-step ``qdcgan_toy16`` run at batch 32 faults in almost no new pages
    (thousands under glibc's default policy). It runs in a fresh interpreter,
    because the heap history of earlier tests would hide the effect."""
    src = Path(quatgan.__file__).resolve().parent.parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", HEAP_REUSE_SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) <= 500


class TestGradCheckHarness:
    def test_linear_function_near_machine_eps(self, rng):
        k = QTensor(rng.standard_normal((4, 3, 3)))
        params = {"x": QTensor(rng.standard_normal((4, 3, 3)))}

        def build(tape, leaves):
            return ad.inner_const(leaves["x"], k)

        report = ad.grad_check(build, params, tolerance=1e-4)
        assert report.passed
        assert report.max_error < 1e-8

    def test_dense_relu_passes(self, rng):
        x = QTensor(rng.standard_normal((4, 3, 2)) + 0.3)
        params = {"w": QTensor(rng.standard_normal((4, 2, 2))), "b": QTensor(rng.standard_normal((4, 2)))}
        probe = QTensor(np.random.default_rng(5).standard_normal((4, 3, 2)))

        def build(tape, leaves):
            y = ad.split_act(ad.qdense(tape.constant(x), leaves["w"], leaves["b"]), "relu")
            return ad.inner_const(y, probe)

        report = ad.grad_check(build, params, tolerance=1e-4)
        assert report.passed, report


class TestAdam:
    def test_zero_gradient_leaves_params(self, rng):
        p = {"w": QTensor(rng.standard_normal((4, 3)))}
        before = p["w"].data.copy()
        g = {"w": np.zeros((4, 3))}
        state = AdamState(lr=0.1)
        adam_step(p, g, state)
        assert np.array_equal(p["w"].data, before)
        assert state.step == 1

    def test_beta1_zero_first_moment_equals_gradient(self, rng):
        p = {"w": QTensor(rng.standard_normal((4, 2)))}
        g = {"w": rng.standard_normal((4, 2))}
        state = AdamState(lr=0.01, beta1=0.0, beta2=0.9)
        for _ in range(3):
            adam_step(p, g, state)
            assert np.allclose(state.m["w"], g["w"], atol=1e-15)

    def test_real_parameter_is_updated_in_place(self, rng):
        """A real parameter is a plain array: Adam updates that array itself,
        and its moments have its shape, with no component axis."""
        w = rng.standard_normal((3, 2))
        p, before = {"w": w}, w.copy()
        state = AdamState(lr=0.1)
        adam_step(p, {"w": rng.standard_normal((3, 2))}, state)
        assert p["w"] is w and not np.array_equal(w, before)
        assert state.m["w"].shape == state.v["w"].shape == (3, 2)

    def test_shape_mismatch(self, rng):
        p = {"w": QTensor(rng.standard_normal((4, 3)))}
        g = {"w": rng.standard_normal((4, 2))}
        with pytest.raises(ShapeMismatchError):
            adam_step(p, g, AdamState())

    def test_quadratic_bowl_matches_scalar_simulation(self):
        """f(w) = |w|^2 from (1,1,1,1): compare against an independent
        pure-python Adam and check monotone decrease after warmup."""
        lr, b1, b2, eps = 0.005, 0.9, 0.999, 1e-8
        w = QTensor(np.ones(4))
        state = AdamState(lr=lr, beta1=b1, beta2=b2, epsilon=eps)
        ws = [1.0, 1.0, 1.0, 1.0]
        m = [0.0] * 4
        v = [0.0] * 4
        fs = []
        for t in range(1, 101):
            grads = {"w": 2.0 * w.data}
            adam_step({"w": w}, grads, state)
            for c in range(4):
                gc = 2.0 * ws[c]
                m[c] = b1 * m[c] + (1 - b1) * gc
                v[c] = b2 * v[c] + (1 - b2) * gc * gc
                mh = m[c] / (1 - b1**t)
                vh = v[c] / (1 - b2**t)
                ws[c] -= lr * mh / (np.sqrt(vh) + eps)
            assert np.allclose(w.data, ws, atol=1e-12), t
            fs.append(float((w.data**2).sum()))
        assert all(b < a for a, b in zip(fs[4:], fs[5:]))
        assert fs[-1] < 0.5 * fs[0]


def test_second_backward_refused(rng):
    """Backward closures release saved state (the conv patches), so a tape
    is backpropagated once; a second pass is refused, not answered from
    released state."""
    tape = ad.Tape()
    w = tape.param("w", QTensor(rng.standard_normal((4, 2, 2, 3, 3))))
    x = tape.constant(QTensor(rng.standard_normal((4, 1, 2, 4, 5))))
    loss = total(ad.qconv2d(x, w, None, 1, 1))
    tape.backward(loss)
    with pytest.raises(DomainError):
        tape.backward(loss)
