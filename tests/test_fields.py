"""GF(p^r) arithmetic and projective point enumeration."""

import hashlib
import itertools
import random

import pytest

from heartlab.fields import (
    is_prime,
    make_field,
    point_ranks,
    projective_points,
)
from heartlab.zoo import prime_power_decomposition
from support import (
    TupleField,
    reference_primitive_element,
    reference_projective_points,
)


def power(field, a, k):
    result = 1
    for _ in range(k):
        result = field.mul(result, a)
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

    def test_zoo_moduli_unchanged(self):
        # PSL(m, q) and PGL(m, q) need q^m <= 1e5 with m >= 2, so q <= 316:
        # 82 fields; digest of [(p, r, modulus)] recorded before distinct-
        # degree splitting moved to lazily reduced slots
        pairs = sorted({prime_power_decomposition(q) for q in range(2, 317)} - {None})
        moduli = [(p, r, make_field(p, r).modulus) for p, r in pairs]
        assert len(moduli) == 82
        digest = hashlib.sha256(repr(moduli).encode()).hexdigest()
        assert digest == "ced2d8a37ed2e7da63c68f0cd9c2af9d5d62459aa985d3ce2648ac4760f2b3c4"

    def test_is_prime(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


class TestArithmetic:
    def test_f4_generator_square(self):
        f4 = make_field(2, 2)
        x = 2  # the coefficients (0, 1)
        assert f4.digits(f4.mul(x, x)) == (1, 1)  # x^2 = x + 1 under x^2+x+1

    def test_f8_inverses_exhaustive(self):
        f8 = make_field(2, 3)
        for a in range(f8.q):
            if a == 0:
                with pytest.raises(ZeroDivisionError):
                    f8.inv(a)
            else:
                assert f8.mul(a, f8.inv(a)) == 1

    def test_f9_multiplicative_group_cyclic(self):
        f9 = make_field(3, 2)
        orders = set()
        for a in range(1, f9.q):
            power, k = a, 1
            while power != 1:
                power = f9.mul(power, a)
                k += 1
            orders.add(k)
        assert 8 in orders
        assert all(8 % k == 0 for k in orders)

    def test_distributivity_and_associativity_sampled(self):
        rng = random.Random(17)
        for p, r in [(2, 4), (3, 2), (5, 1), (7, 2)]:
            field = make_field(p, r)
            add, mul = field.add, field.mul
            for _ in range(1000 // 4):
                a, b, c = (rng.randrange(field.q) for _ in range(3))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert add(add(a, b), c) == add(a, add(b, c))

    def test_frobenius_additive_exhaustive(self):
        for p, r in [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (5, 2), (7, 2)]:
            field = make_field(p, r)
            assert field.q <= 64 or (p, r) == (7, 2)
            for a in range(field.q):
                for b in range(field.q):
                    assert power(field, field.add(a, b), p) == field.add(
                        power(field, a, p), power(field, b, p)
                    )

    def test_subtraction_and_negation(self):
        # the negation of b is (-1) * b, and -1 is the index p - 1:
        # subtraction is adding the negation, 3 - 5 = 5 in F_7
        f7 = make_field(7, 1)
        a, b = 3, 5
        assert f7.add(a, f7.mul(6, b)) == 5
        assert f7.add(a, f7.mul(6, a)) == 0
        f9 = make_field(3, 2)
        for x in range(f9.q):
            assert f9.add(x, f9.mul(2, x)) == 0
            assert f9.digits(f9.mul(2, x)) == tuple((-c) % 3 for c in f9.digits(x))


class TestFieldTables:
    """The int tables against the coefficient-tuple oracle of ``support``."""

    def test_carryless_product_matches_digits(self):
        # GF(2^r) multiplies indices as F_2[x] ints; the tables are built
        # from this product, so it must agree with the digit product on
        # every pair
        for r in range(2, 9):
            field, oracle = make_field(2, r), TupleField(2, r)
            coeffs = [oracle.from_int(a).coeffs for a in range(field.q)]
            index = {c: a for a, c in enumerate(coeffs)}
            for a, ca in enumerate(coeffs):
                for b, cb in enumerate(coeffs):
                    assert field._poly_mul(a, b) == index[oracle.mul(ca, cb)], (r, a, b)

    def test_tables_match_tuple_arithmetic(self):
        count = 0
        for q in range(2, 65):
            decomposition = prime_power_decomposition(q)
            if decomposition is None:
                continue
            field, oracle = make_field(*decomposition), TupleField(*decomposition)
            assert field.modulus == oracle.modulus
            for k in range(q - 1):
                assert field.log[field.exp[k]] == k
            for a in range(1, q):
                assert field.exp[field.log[a]] == a
                assert oracle.from_int(field.inv(a)) == oracle.from_int(a).inverse()
            for a, b in itertools.product(oracle.elements(), repeat=2):
                assert field.mul(a.index(), b.index()) == (a * b).index()
                assert field.add(a.index(), b.index()) == (a + b).index()
            count += 1
        assert count == 27  # 18 primes and 9 proper powers below 65

    def test_primitive_element_matches_search(self):
        count = 0
        for q in range(2, 317):
            decomposition = prime_power_decomposition(q)
            if decomposition is None:
                continue
            expected = reference_primitive_element(TupleField(*decomposition)).index()
            assert make_field(*decomposition).primitive == expected, q
            count += 1
        assert count == 82  # 65 primes and 17 proper powers up to 316


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
        assert points == [pt.key() for pt in reference_projective_points(TupleField(p, r), m)]

    def test_points_distinct_and_sorted(self):
        field = make_field(2, 2)
        points = projective_points(field, 3)
        assert len(set(points)) == len(points)
        assert points == sorted(points)

    def test_canonical_first_nonzero_is_one(self):
        field = make_field(3, 1)
        for pt in projective_points(field, 4):
            leading = next(c for c in pt if c)
            assert leading == 1

    def test_canonicalize_scaling_invariance(self):
        field = make_field(2, 2)
        vector = (2, 1, 0)
        multiples = [tuple(field.mul(s, c) for c in vector) for s in range(1, field.q)]
        assert len(set(multiples)) == field.q - 1
        assert len(set(point_ranks(field, 3, multiples))) == 1

    def test_canonicalize_rejects_zero(self):
        field = make_field(2, 1)
        with pytest.raises(ValueError):
            point_ranks(field, 2, [(1, 0), (0, 0)])

    def test_canonicalize_definition_case(self):
        field = make_field(5, 1)
        a, b = 2, 3
        (rank,) = point_ranks(field, 3, [(0, a, b)])
        assert projective_points(field, 3)[rank] == (0, 1, field.mul(field.inv(a), b))


# every (m, q) with q^m <= 3000, and the PSL/PGL of the benchmark beyond it
RANKED_SPACES = [
    *((m, q) for m in range(2, 12) for q in range(2, 3001)
      if q**m <= 3000 and prime_power_decomposition(q) is not None),
    (2, 64), (3, 16), (2, 128), (2, 256),
]


class TestPointRanks:
    """``point_ranks`` inverts ``projective_points`` on every representative
    of every point."""

    def test_space_count(self):
        assert len(RANKED_SPACES) == 53

    @pytest.mark.parametrize("m,q", RANKED_SPACES)
    def test_every_multiple_of_every_point(self, m, q):
        field = make_field(*prime_power_decomposition(q))
        points = projective_points(field, m)
        assert point_ranks(field, m, points) == list(range(len(points)))
        for s in range(2, q):
            multiples = [tuple(field.mul(s, c) for c in pt) for pt in points]
            assert point_ranks(field, m, multiples) == list(range(len(points))), s
