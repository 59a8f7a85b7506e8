"""The scalar Hamilton-product oracle of ``conftest`` against the unit
relations, an independent formula and the algebraic invariants of the
product."""

import math

import numpy as np

from conftest import Quaternion, concise_product, hamilton_product, random_quaternion

ONE, I, J, K = (Quaternion(*row) for row in np.eye(4))


def conj(q: Quaternion) -> Quaternion:
    return Quaternion(q.q0, -q.q1, -q.q2, -q.q3)


def norm(q: Quaternion) -> float:
    return math.sqrt(sum(c * c for c in q))


def assert_close(a: Quaternion, b: Quaternion, tol=1e-12):
    for x, y in zip(a, b):
        assert abs(x - y) <= tol * max(1.0, abs(x), abs(y)), (a, b)


class TestHamiltonProduct:
    def test_unit_relations(self):
        # i^2 = j^2 = k^2 = -1, exactly
        minus_one = Quaternion(-1, 0, 0, 0)
        for u in (I, J, K):
            assert hamilton_product(u, u) == minus_one
        # ij = k, jk = i, ki = j
        assert hamilton_product(I, J) == K
        assert hamilton_product(J, K) == I
        assert hamilton_product(K, I) == J

    def test_anticommutation(self):
        for a, b in ((I, J), (J, K), (K, I)):
            ab = hamilton_product(a, b)
            ba = hamilton_product(b, a)
            assert ab == Quaternion(-ba.q0, -ba.q1, -ba.q2, -ba.q3)

    def test_identity_element(self, rng):
        for _ in range(20):
            q = random_quaternion(rng)
            assert hamilton_product(q, ONE) == q
            assert hamilton_product(ONE, q) == q

    def test_expanded_example(self):
        # (1,2,3,4)(5,6,7,8): expanded by hand from the component formula
        got = hamilton_product(Quaternion(1, 2, 3, 4), Quaternion(5, 6, 7, 8))
        assert got == Quaternion(-60, 12, 30, 24)
        # cross-check against the concise scalar/vector form
        assert_close(got, concise_product(Quaternion(1, 2, 3, 4), Quaternion(5, 6, 7, 8)))

    def test_concise_form_randomized(self, rng):
        for _ in range(1000):
            q, p = random_quaternion(rng), random_quaternion(rng)
            assert_close(hamilton_product(q, p), concise_product(q, p))

    def test_associativity(self, rng):
        for _ in range(1000):
            q, p, r = (random_quaternion(rng) for _ in range(3))
            left = hamilton_product(hamilton_product(q, p), r)
            right = hamilton_product(q, hamilton_product(p, r))
            assert_close(left, right)

    def test_noncommutative_in_general(self, rng):
        q, p = Quaternion(1, 2, 3, 4), Quaternion(5, 6, 7, 8)
        assert hamilton_product(q, p) != hamilton_product(p, q)


class TestConjugateNorm:
    """Invariants of the product under conjugation and the Euclidean norm."""

    def test_conjugate_basic(self):
        # the conjugate is a product of q with the units: q* = -(q + iqi + jqj + kqk) / 2
        for q in (Quaternion(1, 1, 0, 0), Quaternion(0, 2.0, -3.0, 4.0), Quaternion(1, 2, 3, 4)):
            total = q
            for u in (I, J, K):
                total = total.add(hamilton_product(hamilton_product(u, q), u))
            assert Quaternion(*(-c / 2 for c in total)) == conj(q)

    def test_conjugate_involutive(self, rng):
        # conjugation reverses products: (qp)* = p* q*, and applying it twice is the identity
        for _ in range(1000):
            q, p = random_quaternion(rng), random_quaternion(rng)
            assert conj(conj(q)) == q
            assert_close(conj(hamilton_product(q, p)), hamilton_product(conj(p), conj(q)))

    def test_q_times_conjugate_is_norm_squared(self):
        got = hamilton_product(Quaternion(1, 2, 3, 4), conj(Quaternion(1, 2, 3, 4)))
        assert_close(got, Quaternion(30, 0, 0, 0))

    def test_norm_multiplicative(self, rng):
        q, p = Quaternion(1, 2, 3, 4), Quaternion(5, 6, 7, 8)
        assert math.isclose(norm(hamilton_product(q, p)), math.sqrt(5220), rel_tol=1e-12)
        assert math.isclose(math.sqrt(5220), math.sqrt(30) * math.sqrt(174), rel_tol=1e-12)
        for _ in range(1000):
            q, p = random_quaternion(rng), random_quaternion(rng)
            assert math.isclose(
                norm(hamilton_product(q, p)), norm(q) * norm(p), rel_tol=1e-12
            )

    def test_norm_squared_is_scalar_part_of_qq_conj(self, rng):
        for _ in range(1000):
            q = random_quaternion(rng)
            prod = hamilton_product(q, conj(q))
            assert math.isclose(prod.q0, norm(q) ** 2, rel_tol=1e-12)
            assert max(abs(prod.q1), abs(prod.q2), abs(prod.q3)) < 1e-12 * max(1.0, prod.q0)


def unit(q: Quaternion) -> Quaternion:
    n = norm(q)
    return Quaternion(*(c / n for c in q))


def involution(q: Quaternion, axis: Quaternion) -> Quaternion:
    """q^axis = -axis q axis for a pure unit axis."""
    return Quaternion(*(-c for c in hamilton_product(hamilton_product(axis, q), axis)))


class TestInverse:
    """The inverse q* / |q|^2, written inline, undoes the product."""

    def test_unit_quaternion_inverse_is_conjugate(self, rng):
        for _ in range(20):
            u = unit(random_quaternion(rng))
            assert_close(hamilton_product(u, conj(u)), ONE)
            assert_close(hamilton_product(conj(u), u), ONE)

    def test_round_trip(self, rng):
        for _ in range(50):
            q = random_quaternion(rng)
            n2 = norm(q) ** 2
            inv = Quaternion(*(c / n2 for c in conj(q)))
            assert_close(hamilton_product(q, inv), ONE, tol=1e-10)
            assert_close(hamilton_product(inv, q), ONE, tol=1e-10)


class TestInvolution:
    """The perpendicular involutions -mu q mu, computed with the product."""

    def test_perpendicular_involutions_match_componentwise_form(self, rng):
        # axis i flips (q2, q3); axis j flips (q1, q3); axis k flips (q1, q2)
        flips = {I: (1, 1, -1, -1), J: (1, -1, 1, -1), K: (1, -1, -1, 1)}
        for _ in range(50):
            q = random_quaternion(rng)
            for axis, signs in flips.items():
                want = Quaternion(*(s * c for s, c in zip(signs, q)))
                assert_close(involution(q, axis), want)

    def test_example(self):
        assert_close(involution(Quaternion(1, 2, 3, 4), J), Quaternion(1, -2, 3, -4))

    def test_self_inverse(self, rng):
        for _ in range(50):
            q = random_quaternion(rng)
            axis = unit(Quaternion(0.0, *rng.standard_normal(3)))
            assert_close(involution(involution(q, axis), axis), q)


class TestPureProduct:
    """For pure quaternions the product is (-a.b, a x b)."""

    def test_i_squared(self):
        # a pure unit squares to -1, whatever its direction
        for v in (I, J, K, unit(Quaternion(0.0, 1.0, -2.0, 2.0))):
            assert_close(hamilton_product(v, v), Quaternion(-1, 0, 0, 0))

    def test_orthogonal_units(self, rng):
        # two orthogonal pure units multiply to their cross product, a pure unit
        for _ in range(50):
            a = rng.standard_normal(3)
            a /= np.linalg.norm(a)
            b = rng.standard_normal(3)
            b -= (a @ b) * a
            b /= np.linalg.norm(b)
            got = hamilton_product(Quaternion(0.0, *a), Quaternion(0.0, *b))
            assert_close(got, Quaternion(0.0, *np.cross(a, b)))

    def test_matches_general_product(self, rng):
        for _ in range(1000):
            a, b = rng.standard_normal(3), rng.standard_normal(3)
            got = hamilton_product(Quaternion(0.0, *a), Quaternion(0.0, *b))
            assert_close(got, Quaternion(-(a @ b), *np.cross(a, b)))
