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
from quatgan.qtensor import QTensor


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
