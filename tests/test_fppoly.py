"""Prime-field polynomial arithmetic and factorization.

The int-encoded F_2 ``factor`` is cross-checked against ``tuple_factor2``,
the coefficient-tuple Cantor-Zassenhaus with the trace map it replaced, and
the nontrivial steps of the packed ``distinct_degree_steps`` walk against
the tuple one-``pow_mod``-per-degree loop of ``support``; both are kept as
test oracles.
"""

import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from heartlab import fppoly
from heartlab.fppoly import degree, monic, normalize
from heartlab.rng import SplitMix64
from support import (
    add,
    brute_force_irreducible,
    derivative,
    gcd,
    mul,
    poly_divmod,
    poly_mod,
    pow_mod,
    random_poly,
    tuple_distinct_degree_split,
)


def tuple_equal_degree_split2(f, k, rng):
    if degree(f) == k:
        return [monic(f, 2)]
    while True:
        r = random_poly(degree(f) - 1, 2, rng)
        # trace map r + r^2 + ... + r^(2^(k-1)) modulo f
        t = ()
        term = poly_mod(r, f, 2)
        for _ in range(k):
            t = add(t, term, 2)
            term = poly_mod(mul(term, term, 2), f, 2)
        candidate = gcd(t, f, 2)
        if 0 < degree(candidate) < degree(f):
            cofactor = poly_divmod(f, candidate, 2)[0]
            return tuple_equal_degree_split2(candidate, k, rng) + tuple_equal_degree_split2(
                cofactor, k, rng
            )


def tuple_factor2(f, rng):
    """Full monic factorization over F_2 on coefficient tuples."""
    f = monic(f, 2)
    if degree(f) < 1:
        return []
    found = {}
    while degree(f) > 0:
        deriv = derivative(f, 2)
        if not deriv:
            for g, m in tuple_factor2(normalize(f[::2], 2), rng):
                found[g] = found.get(g, 0) + m * 2
            break
        radical = poly_divmod(f, gcd(f, deriv, 2), 2)[0]
        factors = []
        for k, product in tuple_distinct_degree_split(radical, 2):
            factors.extend(tuple_equal_degree_split2(product, k, rng))
        for g in sorted(factors):
            m = 0
            while True:
                quot, rem = poly_divmod(f, g, 2)
                if rem:
                    break
                f = quot
                m += 1
            found[g] = found.get(g, 0) + m
    return sorted(found.items())


def random_f2_poly(rng, low, high):
    return normalize([rng.randrange(2) for _ in range(rng.randrange(low, high))] + [1], 2)


def f2_irreducibles(d):
    tails = itertools.product(range(2), repeat=d)
    return [f for f in (t + (1,) for t in tails) if brute_force_irreducible(f, 2)]


def f2_test_poly(rng, same_degree):
    """Random monic, a product with repeated factors, a square or fourth power,
    or a product of at least four distinct irreducibles of one degree (so both
    halves of an equal-degree split split again)."""
    kind = rng.randrange(4)
    if kind == 0:
        return random_f2_poly(rng, 1, 61)
    if kind == 1:
        f = random_f2_poly(rng, 1, 8)
        while degree(f) < 40 and rng.random() < 0.8:
            g = random_f2_poly(rng, 1, 8)
            for _ in range(rng.randrange(1, 4)):
                if degree(f) + degree(g) <= 60:
                    f = mul(f, g, 2)
        return f
    if kind == 3:
        pool = rng.choice(same_degree)
        f = (1,)
        for g in rng.sample(pool, rng.randrange(4, len(pool) + 1)):
            f = mul(f, g, 2)
        return f
    h = random_f2_poly(rng, 1, 16)
    f = mul(h, h, 2)
    if rng.random() < 0.5:
        f = mul(f, f, 2)  # degree at most 60
    return f


def is_squarefree(f, p):
    deriv = derivative(f, p)
    return bool(deriv) and degree(gcd(f, deriv, p)) == 0


def random_monic(rng, d, p):
    return normalize([rng.randrange(p) for _ in range(d)] + [1], p)


def irreducible_count(d, p):
    """Number of monic irreducibles of degree d over F_p (Gauss): p^d is the
    sum of e times the count for every divisor e of d."""
    return (p**d - sum(e * irreducible_count(e, p) for e in range(1, d) if d % e == 0)) // d


def squarefree_test_poly(rng, p):
    """Squarefree monic of degree 1-16: random, a product of distinct linear
    factors, or a product of at least two distinct irreducibles of one degree."""
    kind = rng.randrange(3)
    if kind == 0:
        while True:
            f = random_monic(rng, rng.randrange(1, 17), p)
            if is_squarefree(f, p):
                return f
    if kind == 1:
        roots = rng.sample(range(p), min(p, rng.randrange(1, 17)))
        f = (1,)
        for a in roots:
            f = mul(f, normalize([-a, 1], p), p)
        return f
    d = rng.randrange(1, 5) if p > 2 else rng.randrange(2, 5)
    count = min(rng.randrange(2, 16 // d + 1), irreducible_count(d, p))
    found = set()
    while len(found) < count:
        g = random_monic(rng, d, p)
        if tuple_distinct_degree_split(g, p) == [(d, g)] and is_squarefree(g, p):
            found.add(g)
    f = (1,)
    for g in sorted(found):
        f = mul(f, g, p)
    return f


def squarefree_product(rng, d, p):
    """Squarefree monic of degree d: a product of random monic pieces of
    random degrees, so the split has parts of several degrees."""
    while True:
        f = (1,)
        while degree(f) < d:
            f = mul(f, random_monic(rng, rng.randrange(1, d - degree(f) + 1), p), p)
        if is_squarefree(f, p):
            return f


def random_squarefree(rng, d, p):
    while True:
        f = random_monic(rng, d, p)
        if is_squarefree(f, p):
            return f


def split(f, p):
    """The nontrivial steps of the walk, every one taken: [(k, product of the
    degree-k irreducible factors)] for squarefree monic f."""
    return [(k, g) for k, g in fppoly.distinct_degree_steps(f, p) if len(g) > 1]


PRIMES = (2, 3, 5, 7, 101, 7919, 65537)
# a residue slot holds 130 + 69 bits (bound, then quotient) at degree 40
# and p = 2^61 - 1
WIDE_PRIMES = (2**31 - 1, 2**61 - 1)


class TestDistinctDegreeSplit:
    def test_matches_tuple_oracle(self):
        rng = random.Random(31)
        degrees = set()
        for p in PRIMES:
            for _ in range(120):
                f = squarefree_test_poly(rng, p)
                degrees.add(degree(f))
                assert split(f, p) == tuple_distinct_degree_split(f, p)
        assert degrees == set(range(1, 17))
        # the slot-width limits: every degree up to 40 and p up to 2^61 - 1
        cases = [(d, PRIMES[d % len(PRIMES)]) for d in range(17, 41)]
        cases += [(d, p) for p in WIDE_PRIMES for d in (24, 33, 40)]
        for d, p in cases:
            f = squarefree_product(rng, d, p)
            assert split(f, p) == tuple_distinct_degree_split(f, p)
        for p in WIDE_PRIMES:
            for _ in range(8):
                f = squarefree_test_poly(rng, p)
                assert split(f, p) == tuple_distinct_degree_split(f, p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_narrowest_slots(self, p):
        # the slot width grows with p and n: small p are where a bound that
        # is off by one bit would first spill into the next slot
        rng = random.Random(p)
        for d in range(1, 21):
            for _ in range(6):
                f = squarefree_product(rng, d, p)
                assert split(f, p) == tuple_distinct_degree_split(f, p)

    @pytest.mark.parametrize("p", [65537, 2**31 - 1, 2**61 - 1])
    def test_wide_primes_every_degree(self, p):
        rng = random.Random(p % 1000)
        for d in range(1, 13):
            f = random_squarefree(rng, d, p)
            assert split(f, p) == tuple_distinct_degree_split(f, p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 65537, 2**61 - 1])
    def test_degrees_one_and_two(self, p):
        # below the packed kernel (n = 1) and its smallest table (n = 2)
        for f in [(0, 1), (1, 1), (p - 1, 1)]:
            assert split(f, p) == [(1, f)]
        rng = random.Random(p)
        for _ in range(20):
            f = random_squarefree(rng, 2, p)
            assert split(f, p) == tuple_distinct_degree_split(f, p)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([2, 3, 5, 7, 11, 13, 101, 7919, 65537, 2**31 - 1, 2**61 - 1]),
        st.lists(st.integers(0, 2**64), min_size=1, max_size=16),
    )
    def test_matches_tuple_oracle_property(self, p, tail):
        f = normalize(tail + [1], p)
        assume(is_squarefree(f, p))
        assert split(f, p) == tuple_distinct_degree_split(f, p)

    @pytest.mark.parametrize("p,max_degree", [(2, 10), (3, 6), (5, 4)])
    def test_one_factor_exactly_when_irreducible(self, p, max_degree):
        # every monic f with a nonzero constant term, squarefree or not:
        # make_field reads a first nontrivial step at k = deg f as irreducibility
        repeated = 0
        for d in range(1, max_degree + 1):
            for tail in itertools.product(range(p), repeat=d):
                if tail[0]:
                    f = tail + (1,)
                    assert (split(f, p)[0][0] == d) == brute_force_irreducible(f, p), f
                    repeated += not is_squarefree(f, p)
        assert repeated > 0

    def test_same_degree_and_linear_products(self):
        # x^p - x is the product of every linear factor over F_p
        for p in (2, 3, 5, 7, 11, 13):
            f = normalize([0, -1] + [0] * (p - 2) + [1], p)
            assert split(f, p) == [(1, f)]
        # the three irreducible quadratics over F_3 and x: one product each
        quadratics = mul(mul((1, 0, 1), (2, 1, 1), 3), (2, 2, 1), 3)
        f = mul(quadratics, (0, 1), 3)
        assert split(f, 3) == [(1, (0, 1)), (2, quadratics)]

    def test_steps_wait_for_the_consumer(self, monkeypatch):
        # x (x^2 + 1) (x^3 + 2x + 1) over F_3, the cubic without a root: the
        # division by a step's product waits until the walk is resumed
        divide = fppoly._divide_exact
        divisions = []
        monkeypatch.setattr(fppoly, "_divide_exact",
                            lambda f, g, p: divisions.append(tuple(g)) or divide(f, g, p))
        cubic = (1, 2, 0, 1)
        steps = fppoly.distinct_degree_steps(mul(mul((0, 1), (1, 0, 1), 3), cubic, 3), 3)
        assert next(steps) == (1, (0, 1)) and divisions == []
        assert next(steps) == (2, (1, 0, 1)) and divisions == [(0, 1)]
        assert list(steps) == [(3, cubic)] and divisions == [(0, 1), (1, 0, 1)]
        # a step may find nothing; the split leaves it out
        f = mul((1, 0, 1), cubic, 3)
        assert list(fppoly.distinct_degree_steps(f, 3)) == [(1, (1,)), (2, (1, 0, 1)), (3, cubic)]
        assert split(f, 3) == [(2, (1, 0, 1)), (3, cubic)]


class TestArithmetic:
    """The tuple arithmetic the oracles are built from."""

    def test_divmod_reconstruction(self):
        rng = random.Random(19)
        for _ in range(50):
            p = rng.choice([2, 3, 5, 7])
            f = fppoly.normalize([rng.randrange(p) for _ in range(rng.randrange(2, 10))], p)
            g = fppoly.normalize([rng.randrange(p) for _ in range(rng.randrange(1, 6))], p)
            if not g:
                continue
            quotient, remainder = poly_divmod(f, g, p)
            back = add(mul(quotient, g, p), remainder, p)
            assert back == f
            assert fppoly.degree(remainder) < fppoly.degree(g)

    def test_gcd_divides_both(self):
        rng = random.Random(4)
        for _ in range(30):
            p = rng.choice([2, 5])
            a = fppoly.normalize([rng.randrange(p) for _ in range(6)], p)
            b = fppoly.normalize([rng.randrange(p) for _ in range(5)], p)
            if not a or not b:
                continue
            g = gcd(a, b, p)
            assert not poly_divmod(a, g, p)[1]
            assert not poly_divmod(b, g, p)[1]

    def test_pow_mod_frobenius_fixed_field(self):
        # x^(p^2) == x modulo an irreducible quadratic: Frobenius has order 2
        for p, modulus in [(2, (1, 1, 1)), (3, (1, 0, 1)), (5, (2, 0, 1))]:
            assert brute_force_irreducible(modulus, p)
            x_to_p_squared = pow_mod((0, 1), p**2, modulus, p)
            assert x_to_p_squared == (0, 1)


class TestFactorization:
    def test_random_reconstruction_and_irreducibility(self):
        rng_elt = SplitMix64(0)
        rng = random.Random(7)
        for _ in range(60):
            degree = rng.randrange(1, 9)
            f = fppoly.normalize([rng.randrange(2) for _ in range(degree)] + [1], 2)
            factors = fppoly.factor(f, 2, rng_elt)
            product = (1,)
            for g, mult in factors:
                assert brute_force_irreducible(g, 2)
                for _ in range(mult):
                    product = mul(product, g, 2)
            assert product == f

    def test_repeated_factor_multiplicity(self):
        f = (1,)
        for _ in range(6):
            f = mul(f, (1, 1), 2)  # (x + 1)^6
        g = mul((1, 1, 1), (1, 1, 0, 1), 2)  # (x^2 + x + 1)(x^3 + x + 1)
        f = mul(f, mul(g, g, 2), 2)
        assert fppoly.factor(f, 2, SplitMix64(1)) == [((1, 1), 6), ((1, 1, 0, 1), 2), ((1, 1, 1), 2)]

    def test_char_p_power_detection(self):
        # x^4 + 1 = (x + 1)^4 over F_2: derivative vanishes
        assert fppoly.factor((1, 0, 0, 0, 1), 2, SplitMix64(2)) == [((1, 1), 4)]

    def test_distinct_degree_degrees(self):
        # x^5 + x + 1 = (x^2+x+1)(x^3+x^2+1) over F_2
        assert split((1, 1, 0, 0, 0, 1), 2) == [(2, (1, 1, 1)), (3, (1, 0, 1, 1))]

    def test_x4_plus_1_splits_mod_every_odd_prime(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            assert max(k for k, _ in split(fppoly.normalize((1, 0, 0, 0, 1), p), p)) <= 2

    def test_determinism_with_fixed_seed(self):
        f = fppoly.normalize([1, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 1], 2)
        assert fppoly.factor(f, 2, SplitMix64(0)) == fppoly.factor(f, 2, SplitMix64(0))

    @pytest.mark.parametrize("p", [3, 5, 7, 65537])
    def test_factor_rejects_odd_p(self, p):
        # only the MeatAxe factors, and only over F_2; the probe reads degrees
        with pytest.raises(ValueError, match=f"p = 2 only, got p = {p}"):
            fppoly.factor((1, 0, 1), p, SplitMix64(0))


class TestF2Factorization:
    def test_int_path_matches_tuple_oracle(self):
        rng = random.Random(2024)
        same_degree = [f2_irreducibles(d) for d in (5, 6)]  # 6 and 9 of them
        polys = [f2_test_poly(rng, same_degree) for _ in range(2000)]
        assert {degree(f) for f in polys} == set(range(1, 61))
        assert sum(1 for f in polys if not derivative(f, 2)) > 400  # square-root step
        for seed, f in enumerate(polys):
            expected_rng, actual_rng = SplitMix64(seed), SplitMix64(seed)
            expected = tuple_factor2(f, expected_rng)
            assert fppoly.factor(f, 2, actual_rng) == expected
            assert actual_rng.next_u64() == expected_rng.next_u64()

    def test_trivial_inputs(self):
        for f in [(), (1,)]:
            rng = SplitMix64(3)
            assert fppoly.factor(f, 2, rng) == []
            assert rng.next_u64() == SplitMix64(3).next_u64()
