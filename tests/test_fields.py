"""GF(p^r) arithmetic and projective point enumeration."""

import itertools
import random

import pytest

from heartlab.fields import (
    canonicalize,
    is_prime,
    make_field,
    projective_points,
)


def elements(field):
    return [field.from_int(i) for i in range(field.q)]


def power(a, k):
    result = a.field.one()
    for _ in range(k):
        result = result * a
    return result


def trial_division_divmod(a, b, p):
    """(quotient, remainder) of a by b over F_p, coefficient tuples."""
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    inv_lead = pow(b[-1], p - 2, p)
    quot = [0] * max(0, da - db + 1)
    while da >= db:
        c = (a[da] * inv_lead) % p
        quot[da - db] = c
        for i, bc in enumerate(b):
            a[da - db + i] = (a[da - db + i] - c * bc) % p
        while a and a[-1] % p == 0:
            a.pop()
        da = len(a) - 1
    return quot, a


def trial_division_irreducible(modulus, p):
    """Irreducible iff no monic polynomial of degree 1..r//2 divides it (the
    test make_field made before it used fppoly; test oracle)."""
    r = len(modulus) - 1
    for d in range(1, r // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if not trial_division_divmod(modulus, tail + (1,), p)[1]:
                return False
    return True


class TestMakeField:
    def test_prime_field_modulus(self):
        assert make_field(2, 1).modulus == (0, 1)

    def test_f4_modulus_is_unique_irreducible(self):
        assert make_field(2, 2).modulus == (1, 1, 1)

    def test_f9_modulus_by_enumeration(self):
        # all 9 monic quadratics over F_3, smallest irreducible wins
        first = None
        for c0, c1 in itertools.product(range(3), range(3)):
            has_root = any((x * x + c1 * x + c0) % 3 == 0 for x in range(3))
            if not has_root:
                first = (c0, c1, 1)
                break
        assert make_field(3, 2).modulus == first

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            make_field(6, 1)

    def test_rejects_degree_out_of_range(self):
        with pytest.raises(ValueError):
            make_field(2, 9)

    def test_modulus_matches_trial_division(self):
        # every field with p^r <= 1e5 and r <= 8: the lexicographically first
        # monic irreducible, found by trial division
        count = 0
        for r in range(1, 9):
            p = 2
            while p**r <= 10**5:
                if is_prime(p):
                    # monic candidates, (c_0, ..., c_{r-1}) in lexicographic order
                    candidates = (
                        tuple(i // p ** (r - 1 - k) % p for k in range(r)) + (1,)
                        for i in range(p**r)
                    )
                    expected = next(m for m in candidates if trial_division_irreducible(m, p))
                    assert make_field(p, r).modulus == expected, (p, r)
                    count += 1
                p += 1
        assert count == 9690

    def test_is_prime(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


class TestArithmetic:
    def test_f4_generator_square(self):
        f4 = make_field(2, 2)
        x = f4.from_int(2)  # the coefficients (0, 1)
        assert (x * x).coeffs == (1, 1)  # x^2 = x + 1 under x^2+x+1

    def test_f8_inverses_exhaustive(self):
        f8 = make_field(2, 3)
        for a in elements(f8):
            if a.is_zero():
                with pytest.raises(ZeroDivisionError):
                    a.inverse()
            else:
                assert a * a.inverse() == f8.one()

    def test_f9_multiplicative_group_cyclic(self):
        f9 = make_field(3, 2)
        orders = set()
        for a in elements(f9):
            if a.is_zero():
                continue
            power, k = a, 1
            while power != f9.one():
                power = power * a
                k += 1
            orders.add(k)
        assert 8 in orders
        assert all(8 % k == 0 for k in orders)

    def test_distributivity_and_associativity_sampled(self):
        rng = random.Random(17)
        for p, r in [(2, 4), (3, 2), (5, 1), (7, 2)]:
            field = make_field(p, r)
            for _ in range(1000 // 4):
                a, b, c = (field.from_int(rng.randrange(field.q)) for _ in range(3))
                assert a * (b + c) == a * b + a * c
                assert (a * b) * c == a * (b * c)
                assert (a + b) + c == a + (b + c)

    def test_frobenius_additive_exhaustive(self):
        for p, r in [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (5, 2), (7, 2)]:
            field = make_field(p, r)
            assert field.q <= 64 or (p, r) == (7, 2)
            for a in elements(field):
                for b in elements(field):
                    assert power(a + b, p) == power(a, p) + power(b, p)

    def test_subtraction_and_negation(self):
        # subtraction is adding the negation: 3 - 5 = 5 in F_7
        f7 = make_field(7, 1)
        a, b = f7.from_int(3), f7.from_int(5)
        assert a + (-b) == f7.from_int(5)
        assert (a + (-a)).is_zero()
        f9 = make_field(3, 2)
        for x in elements(f9):
            assert (x + (-x)).is_zero()


class TestProjectivePoints:
    @pytest.mark.parametrize(
        "p,r,m,count",
        [(2, 1, 3, 7), (2, 2, 3, 21), (3, 1, 4, 40), (2, 3, 2, 9), (3, 2, 3, 91)],
    )
    def test_point_counts(self, p, r, m, count):
        field = make_field(p, r)
        points = projective_points(field, m)
        assert len(points) == count
        assert (field.q**m - 1) == count * (field.q - 1)

    def test_points_distinct_and_sorted(self):
        field = make_field(2, 2)
        points = projective_points(field, 3)
        keys = [pt.key() for pt in points]
        assert len(set(keys)) == len(keys)
        assert keys == sorted(keys)

    def test_canonical_first_nonzero_is_one(self):
        field = make_field(3, 1)
        for pt in projective_points(field, 4):
            leading = next(c for c in pt.coords if not c.is_zero())
            assert leading == field.one()

    def test_canonicalize_scaling_invariance(self):
        field = make_field(2, 2)
        vector = (field.from_int(2), field.one(), field.zero())
        images = {
            canonicalize(tuple(s * c for c in vector))
            for s in elements(field)
            if not s.is_zero()
        }
        assert len(images) == 1

    def test_canonicalize_rejects_zero(self):
        field = make_field(2, 1)
        with pytest.raises(ValueError):
            canonicalize((field.zero(), field.zero()))

    def test_canonicalize_definition_case(self):
        field = make_field(5, 1)
        a, b = field.from_int(2), field.from_int(3)
        point = canonicalize((field.zero(), a, b))
        assert point.coords[0].is_zero()
        assert point.coords[1] == field.one()
        assert point.coords[2] == a.inverse() * b
