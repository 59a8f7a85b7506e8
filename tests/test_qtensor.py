import numpy as np
import pytest
from conftest import Quaternion, hamilton_product as scalar_hamilton
from conftest import tensor_conjugate as conjugate, tensor_hamilton as hamilton_product

from quatgan.errors import ShapeMismatchError
from quatgan.qtensor import QTensor


class TestQTensor:
    def test_component_views_share_storage(self, rng):
        t = QTensor(rng.standard_normal((4, 2, 3)))
        t.q1[0, 0] = 7.0
        assert t.data[1, 0, 0] == 7.0
        assert t.shape == (2, 3)
        assert t.size == 6

    def test_requires_leading_axis_of_four(self):
        with pytest.raises(ShapeMismatchError):
            QTensor(np.zeros((3, 2)))


class TestTensorHamilton:
    def test_identity(self, rng):
        x = QTensor(rng.standard_normal((4, 3, 2)))
        e = QTensor.zeros((3, 2))
        e.q0[...] = 1.0
        np.testing.assert_allclose(hamilton_product(e, x).data, x.data, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(hamilton_product(x, e).data, x.data, rtol=1e-12, atol=1e-12)

    def test_single_element_matches_scalar(self, rng):
        for _ in range(20):
            a = Quaternion(*rng.standard_normal(4))
            b = Quaternion(*rng.standard_normal(4))
            ta, tb = QTensor(np.array(a)), QTensor(np.array(b))
            assert Quaternion(*hamilton_product(ta, tb).data) == scalar_hamilton(a, b)

    def test_elementwise_against_scalar_loop(self, rng):
        a = QTensor(rng.standard_normal((4, 2, 2)))
        b = QTensor(rng.standard_normal((4, 2, 2)))
        got = hamilton_product(a, b)
        for i in range(2):
            for j in range(2):
                qa = Quaternion(*(a.data[c, i, j] for c in range(4)))
                qb = Quaternion(*(b.data[c, i, j] for c in range(4)))
                want = scalar_hamilton(qa, qb)
                for c, w in enumerate(want):
                    assert abs(got.data[c, i, j] - w) < 1e-12

    def test_shape_mismatch_reports_both_shapes(self, rng):
        a = QTensor(np.zeros((4, 2, 2)))
        b = QTensor(np.zeros((4, 3)))
        with pytest.raises(ShapeMismatchError) as exc:
            hamilton_product(a, b)
        assert "(2, 2)" in str(exc.value) and "(3,)" in str(exc.value)

    def test_conjugate(self, rng):
        x = QTensor(rng.standard_normal((4, 5)))
        c = conjugate(x)
        assert np.all(c.q0 == x.q0)
        assert np.all(c.data[1:] == -x.data[1:])
