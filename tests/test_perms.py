"""Permutation arithmetic and stabilizer-chain algorithms.

``ReferenceChain`` is the Schreier-Sims chain as it was before the chain
moved to tuple stripping and Schreier vectors: forward coset
representatives as ``Permutation`` objects, an inversion per strip step and
per Schreier generator.  It is kept here as the oracle that
``support.DeterministicChain`` must equal level by level; that chain is in
turn the oracle for the known-order chain of every zoo group, and
``ReferenceChain`` the oracle for the known-order chain of random groups.
"""

import gc
import random
import re
import tracemalloc
from functools import lru_cache
from math import factorial

import pytest
from hypothesis import given, strategies as st

from heartlab.perms import (
    ChainOrderError,
    DegreeMismatchError,
    JordanCertificateError,
    PermGroup,
    Permutation,
    compose,
    cycle_type,
    from_cycles,
    identity,
    jordan_certificate,
)
from heartlab.zoo import (
    GroupId,
    alternating_generators,
    build_group,
    parse_group_spec,
    symmetric_generators,
)
from support import DeterministicChain, base_points, chain_snapshot, orbit_sizes


def perms(degree):
    return st.permutations(range(degree)).map(Permutation)


class ReferenceLevel:
    """One level: base point, strong generators, forward transversal.

    ``transversal[beta]`` is a permutation u with u(point) == beta.
    """

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens: list[Permutation] = []
        self.orbit_list: list[int] = [point]
        self.transversal: dict[int, Permutation] = {point: identity(degree)}
        self.expanded: list[int] = []
        self.sifted: list[int] = []

    def add_generator(self, g: Permutation) -> None:
        self.gens.append(g)
        self.expanded.append(0)
        self.sifted.append(0)
        self._extend_orbit()

    def _extend_orbit(self) -> None:
        changed = True
        while changed:
            changed = False
            for k, g in enumerate(self.gens):
                gi = g.images
                while self.expanded[k] < len(self.orbit_list):
                    alpha = self.orbit_list[self.expanded[k]]
                    self.expanded[k] += 1
                    gamma = gi[alpha]
                    if gamma not in self.transversal:
                        self.transversal[gamma] = compose(g, self.transversal[alpha])
                        self.orbit_list.append(gamma)
                        changed = True


class ReferenceChain:
    """Deterministic Schreier-Sims chain with base forced to 0, 1, 2, ..."""

    def __init__(self, degree: int, generators: list[Permutation]):
        self.degree = degree
        self.levels: list[ReferenceLevel] = []
        for g in generators:
            if not g.is_identity():
                residue, j = self._strip(g, 0)
                if not residue.is_identity():
                    self._place(j, residue)
                    self._process()

    def _strip(self, p: Permutation, start: int) -> tuple[Permutation, int]:
        for i in range(start, len(self.levels)):
            level = self.levels[i]
            beta = p.images[level.point]
            if beta == level.point:
                continue
            u = level.transversal.get(beta)
            if u is None:
                return p, i
            p = compose(u.inverse(), p)
        return p, len(self.levels)

    def _place(self, j: int, residue: Permutation) -> None:
        if j == len(self.levels):
            self.levels.append(ReferenceLevel(j, self.degree))
        for i in range(j + 1):
            self.levels[i].add_generator(residue)

    def _process(self) -> None:
        progress = True
        while progress:
            progress = False
            i = 0
            while i < len(self.levels):
                level = self.levels[i]
                k = 0
                while k < len(level.gens):
                    s = level.gens[k]
                    while level.sifted[k] < len(level.orbit_list):
                        beta = level.orbit_list[level.sifted[k]]
                        level.sifted[k] += 1
                        u = level.transversal[beta]
                        v = level.transversal[s.images[beta]]
                        schreier = compose(v.inverse(), compose(s, u))
                        if schreier.is_identity():
                            continue
                        residue, j = self._strip(schreier, i + 1)
                        if not residue.is_identity():
                            self._place(j, residue)
                            progress = True
                    k += 1
                i += 1

    def order(self) -> int:
        result = 1
        for level in self.levels:
            result *= len(level.orbit_list)
        return result

    def contains(self, p: Permutation) -> bool:
        residue, _ = self._strip(p, 0)
        return residue.is_identity()

    def transitivity_degree(self) -> int:
        n = self.degree
        t = 0
        for i in range(n):
            size = len(self.levels[i].orbit_list) if i < len(self.levels) else 1
            if size != n - i:
                break
            t += 1
        if t == n - 1:
            t = n
        return t


def reference_chain(group: PermGroup) -> ReferenceChain:
    return ReferenceChain(group.degree, list(group.generators))


S5_GENERATORS = [from_cycles(5, [(0, 1)]), from_cycles(5, [(0, 1, 2, 3, 4)])]


class TestPermutation:
    def test_identity_compose(self):
        p = from_cycles(5, [(0, 1, 2)])
        assert compose(identity(5), p) == p
        assert compose(p, identity(5)) == p

    def test_involution_squares_to_identity(self):
        t = from_cycles(2, [(0, 1)])
        assert compose(t, t) == identity(2)

    def test_composition_convention(self):
        # compose(p, q)(x) = p(q(x)): (0 1 2) after (0 1) sends 0->2, 1->1, 2->0
        p = from_cycles(3, [(0, 1, 2)])
        q = from_cycles(3, [(0, 1)])
        assert compose(p, q).images == (2, 1, 0)

    def test_not_a_bijection_rejected(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            compose(identity(3), identity(4))

    @given(perms(7))
    def test_inverse_roundtrip(self, p):
        assert compose(p, p.inverse()) == identity(7)
        assert compose(p.inverse(), p) == identity(7)

    @given(perms(6), perms(6), perms(6))
    def test_composition_associative(self, p, q, r):
        assert compose(compose(p, q), r) == compose(p, compose(q, r))


class TestCycleType:
    def test_identity_type(self):
        assert cycle_type(identity(5)).lengths == (1, 1, 1, 1, 1)

    def test_mixed_type(self):
        p = from_cycles(5, [(0, 1, 2), (3, 4)])
        assert cycle_type(p).lengths == (3, 2)

    def test_lengths_sum_to_degree(self):
        p = from_cycles(9, [(0, 3), (1, 2, 4, 5)])
        assert cycle_type(p).degree == 9

    @given(perms(8), perms(8))
    def test_conjugation_invariance(self, p, g):
        conjugate = compose(g, compose(p, g.inverse()))
        assert cycle_type(conjugate) == cycle_type(p)

    def test_order_is_lcm(self):
        p = from_cycles(10, [(0, 1, 2), (3, 4, 5, 6)])
        assert p.order() == 12


class TestStabilizerChain:
    def test_s5_order(self):
        assert DeterministicChain(5, S5_GENERATORS).order() == 120
        assert PermGroup(S5_GENERATORS, order=120).order() == 120

    def test_order_is_required(self):
        with pytest.raises(TypeError):
            PermGroup(S5_GENERATORS)

    def test_a5_order_and_membership(self, a5):
        assert a5.order() == 60
        assert not a5.contains(from_cycles(5, [(0, 1)]))
        assert a5.contains(from_cycles(5, [(0, 1, 2)]))

    def test_m11_order(self, m11):
        assert m11.order() == 7920

    def test_m11_closure_oracle(self, m11):
        elements = m11.enumerate_elements()
        assert len(elements) == 7920

    def test_m11_order_11_elements_are_11_cycles(self, m11):
        count = 0
        for p in m11.enumerate_elements():
            if p.order() == 11:
                count += 1
                assert cycle_type(p).lengths == (11,)
        assert count > 0

    def test_closure_matches_chain_on_small_groups(self):
        cases = [
            PermGroup(S5_GENERATORS, order=120),
            PermGroup([from_cycles(7, [(0, 1, 2, 3, 4, 5, 6)])], order=7),
            PermGroup([from_cycles(6, [(0, 1), (2, 5)])], order=2),
            PermGroup([from_cycles(4, [(0, 1)]), from_cycles(4, [(2, 3)])], order=4),
        ]
        for g in cases:
            assert g.order() == len(g.enumerate_elements())
            assert orbit_sizes(g.chain()) == orbit_sizes(DeterministicChain(g.degree, g.generators))

    def test_generator_products_are_members(self, m11, psl32):
        for g in (m11, psl32):
            for a in g.generators:
                for b in g.generators:
                    assert g.contains(compose(a, b))

    def test_base_is_filtered_ascending(self, m11):
        base = base_points(m11.chain())
        assert base == sorted(base)
        assert all(size > 1 for _, size in orbit_sizes(m11.chain()))

    def test_sneaky_generator_order(self):
        # generators whose first element fixes the final base points
        gens = [from_cycles(3, [(1, 2)]), from_cycles(3, [(0, 1)])]
        oracle = DeterministicChain(3, gens)
        assert oracle.order() == 6
        assert orbit_sizes(PermGroup(gens, order=6).chain()) == orbit_sizes(oracle)


# the PSL/PGL groups of the benchmark's audit ladder of degree at most 130
ORACLE_ZOO_GROUPS = (
    "M11", "M12", "M22", "M23", "M24",
    "A7", "A8", "A9", "A10", "A11", "A12", "S8", "S9",
    "PSL(3,2)", "PSL(2,8)", "PSL(2,32)", "PSL(3,3)", "PGL(3,3)", "PSL(5,3)",
    "PSL(4,3)", "PSL(4,2)", "PSL(3,4)", "PSL(2,5)", "PSL(2,11)",
    "C5", "C6", "C7", "C8", "C9", "C10", "C11", "C12", "D5", "D10",
)


@lru_cache(maxsize=None)
def random_subgroup(seed: int) -> tuple[PermGroup, ReferenceChain]:
    """Two or three random generators of S_n, 8 <= n <= 12, and their
    ``ReferenceChain``; the group carries the order read off that chain.
    Even seeds draw permutations of small random support, so some groups are
    intransitive."""
    rng = random.Random(seed)
    n = 8 + seed % 5
    gens = []
    for _ in range(2 + seed % 2):
        images = list(range(n))
        if seed % 2:
            rng.shuffle(images)
        else:
            support = rng.sample(range(n), rng.randint(2, 5))
            for a, b in zip(support, support[1:] + support[:1]):
                images[a] = b
        gens.append(Permutation(images))
    ref = ReferenceChain(n, gens)
    return PermGroup(gens, order=ref.order()), ref


def membership_probes(group: PermGroup, seed: int):
    """Members (generator products, ten sampled elements) and candidates (a
    transposition, twenty random permutations) for a membership comparison."""
    members = [compose(a, b) for a in group.generators for b in group.generators]
    sampler = group.sampler(seed)
    members += [sampler.sample() for _ in range(10)]
    rng = random.Random(seed)
    candidates = [from_cycles(group.degree, [(0, 1)])]
    for _ in range(20):
        images = list(range(group.degree))
        rng.shuffle(images)
        candidates.append(Permutation(images))
    return members, candidates


def assert_chain_matches_reference(group: PermGroup, ref: ReferenceChain, seed: int) -> None:
    """The deterministic chain against ``ReferenceChain``, level by level."""
    chain = DeterministicChain(group.degree, group.generators)
    assert len(chain.levels) == len(ref.levels)
    for level, sifted, ref_level in zip(chain.levels, chain.sifted, ref.levels):
        assert level.point == ref_level.point
        assert level.orbit_list == ref_level.orbit_list
        assert [g.images for g in level.gens] == [g.images for g in ref_level.gens]
        assert sifted == ref_level.sifted
        assert level.expanded == ref_level.expanded
        assert level.schreier.keys() == ref_level.transversal.keys()
        for beta, u in ref_level.transversal.items():
            assert level.coset_inverse(beta, chain._id) == u.inverse().images
    assert chain.order() == ref.order()
    assert chain.transitivity_degree() == ref.transitivity_degree()

    members, candidates = membership_probes(group, seed)
    for p in members:
        assert chain.contains(p) and ref.contains(p)
    rejected = 0
    for p in candidates:
        assert chain.contains(p) == ref.contains(p)
        rejected += not chain.contains(p)
    # every proper subgroup of S_n here rejects at least one candidate
    assert (rejected > 0) == (chain.order() < factorial(group.degree))


class TestChainMatchesReference:
    @pytest.mark.parametrize("name", ORACLE_ZOO_GROUPS)
    def test_zoo_group(self, name):
        group = build_group(parse_group_spec(name))
        assert_chain_matches_reference(group, reference_chain(group), 0)

    @pytest.mark.parametrize("seed", range(50))
    def test_random_subgroup(self, seed):
        assert_chain_matches_reference(*random_subgroup(seed), seed)


@lru_cache(maxsize=None)
def deterministic_chain(name: str) -> DeterministicChain:
    """The deterministic chain of a zoo group's generators, its order not used."""
    group = build_group(parse_group_spec(name))
    return DeterministicChain(group.degree, group.generators)


# Work counters of the deterministic chain, recorded before the chain moved to
# inverse transversals: (sum of every level's sifted watermarks, strong
# generators).
CHAIN_WORK_PINS = {
    "M24": (1218, 15),
    "A30": (15359, 50),
    "PSL(3,16)": (19266, 31),
    "PSL(5,3)": (22644, 52),
    "PSL(2,256)": (7185, 18),
}

# Work counters of the known-order chain the zoo constructors select:
# (sampled elements sifted, strong generators).  PSL(4,16) was recorded with
# the inverse transversals the Schreier vectors replaced.
KNOWN_ORDER_WORK_PINS = {
    "M24": (10, 13),
    "A30": (35, 35),
    "PSL(3,16)": (6, 11),
    "PSL(5,3)": (18, 17),
    "PSL(2,256)": (5, 13),
    "PSL(4,16)": (12, 15),
}


class TestChainWorkCounters:
    @pytest.mark.parametrize("name", list(CHAIN_WORK_PINS))
    def test_sifted_and_strong_generators(self, name):
        chain = deterministic_chain(name)
        sifted = sum(sum(watermarks) for watermarks in chain.sifted)
        assert (sifted, len(chain.levels[0].gens)) == CHAIN_WORK_PINS[name]

    @pytest.mark.parametrize("name", list(KNOWN_ORDER_WORK_PINS))
    def test_known_order_draws_and_strong_generators(self, name):
        chain = build_group(parse_group_spec(name)).chain()
        assert (chain.draws, len(chain.levels[0].gens)) == KNOWN_ORDER_WORK_PINS[name]

    @pytest.mark.parametrize("name", ["PSL(3,16)", "PSL(2,256)"])
    def test_chain_memory_is_linear_in_the_degree(self, name):
        # inverse transversals retained 1.82 and 1.60 MB here, N^2 cells a
        # level; Schreier vectors keep O(N) cells a level
        group = build_group(parse_group_spec(name))
        fresh = PermGroup(group.generators, order=group.known_order)
        gc.collect()
        tracemalloc.start()
        try:
            chain = fresh.chain()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert chain.order() == group.known_order
        assert retained < 0.3 * 2**20


# Every zoo group the suite and the benchmark build, plus A60 and PSL(4,7).
# PSL(6,3) is left out: its deterministic chain alone takes about 7 s.
KNOWN_ORDER_CROSS_CHECK_GROUPS = (
    "M11", "M12", "M22", "M23", "M24",
    "S5", "A5", "A7", "S7", "A8", "S8", "A9", "S9", "A10", "S10", "A30", "A40", "A60",
    "PSL(2,5)", "PSL(2,8)", "PSL(2,11)", "PSL(2,32)", "PSL(2,64)", "PSL(2,128)",
    "PSL(2,256)", "PSL(3,2)", "PSL(3,3)", "PSL(3,4)", "PSL(3,5)", "PSL(3,7)",
    "PSL(3,13)", "PSL(3,16)", "PSL(4,2)", "PSL(4,3)", "PSL(4,7)", "PSL(5,2)",
    "PSL(5,3)", "PGL(3,3)",
    "C5", "C6", "C7", "C8", "C9", "C10", "C11", "C12", "D5", "D7", "D10",
)


def assert_known_order_chain_matches(group: PermGroup, oracle, seed: int) -> None:
    """Order, base, basic orbit sizes, transitivity and membership agree."""
    chain = group.chain()
    assert chain.order() == oracle.order() == group.known_order
    assert orbit_sizes(chain) == orbit_sizes(oracle)
    assert base_points(chain) == base_points(oracle)
    assert chain.transitivity_degree() == oracle.transitivity_degree()

    members, candidates = membership_probes(group, seed)
    for p in members:
        assert chain.contains(p) and oracle.contains(p)
    for p in candidates:
        assert chain.contains(p) == oracle.contains(p)


class TestKnownOrderChain:
    """The known-order chain against the deterministic chain and
    ``ReferenceChain`` as oracles."""

    @pytest.mark.parametrize("name", KNOWN_ORDER_CROSS_CHECK_GROUPS)
    def test_matches_deterministic_chain(self, name):
        group = build_group(parse_group_spec(name))
        assert_known_order_chain_matches(group, deterministic_chain(name), 0)

        # a fresh build draws the same fixed-seed stream: the same chain
        chain = group.chain()
        again = PermGroup(group.generators, order=group.known_order).chain()
        assert chain_snapshot(again) == chain_snapshot(chain)
        assert again.draws == chain.draws

    @pytest.mark.parametrize("seed", range(50))
    def test_random_subgroup_matches_reference_chain(self, seed):
        # generating sets the zoo does not build, with the order of their
        # ReferenceChain
        group, ref = random_subgroup(seed)
        assert_known_order_chain_matches(group, ref, seed)

    def test_order_above_true_order_exhausts_the_draw_budget(self):
        with pytest.raises(ChainOrderError, match="still below the given order 240"):
            PermGroup(symmetric_generators(5), order=240).chain()

    def test_order_the_product_overshoots(self):
        # the orbit-length product of A5's chain goes 3 -> 15 -> 60, past 30
        with pytest.raises(ChainOrderError, match="60 exceeds the given order 30"):
            PermGroup(alternating_generators(5), order=30).chain()

    def test_a_later_generator_overshoots(self):
        # the 5-cycle alone reaches order 5; the transposition after it must
        # still be sifted, in either order of the generators
        five_cycle = from_cycles(5, [(0, 1, 2, 3, 4)])
        transposition = from_cycles(5, [(0, 1)])
        for generators in ([five_cycle, transposition], [transposition, five_cycle]):
            with pytest.raises(ChainOrderError, match="exceeds the given order 5"):
                PermGroup(generators, order=5).chain()

    def test_trivial_group(self):
        chain = PermGroup([identity(4)], order=1).chain()
        assert (chain.order(), chain.draws, chain.levels) == (1, 0, [])


class TestTransitivity:
    def test_symmetric_is_sharply_n_transitive(self, s5):
        assert s5.transitivity_degree() == 5

    def test_cyclic_is_simply_transitive(self):
        c5 = PermGroup([from_cycles(5, [(0, 1, 2, 3, 4)])], order=5)
        assert c5.transitivity_degree() == 1

    def test_m11_is_4_transitive(self, m11):
        assert m11.transitivity_degree() == 4

    def test_a9_is_7_transitive(self):
        assert build_group(parse_group_spec("A9")).transitivity_degree() == 7

    def test_intransitive_group(self):
        g = PermGroup([from_cycles(5, [(3, 4)])], order=2)
        assert g.transitivity_degree() == 0

    def test_order_divisible_by_falling_factorial(self, m11, m12, s5):
        for g in (m11, m12, s5):
            t = g.transitivity_degree()
            product = 1
            for i in range(t):
                product *= g.degree - i
            assert g.order() % product == 0


class TestJordanCertificate:
    """The certificate against the chain on the zoo's generators, against
    closure on random generating sets, and on sets it must refuse."""

    @pytest.mark.parametrize("n", range(3, 31))
    def test_zoo_generators_match_the_chain(self, n):
        assert jordan_certificate(alternating_generators(n), alternating=True) == (
            build_group(GroupId("alternating", (n,))).transitivity_degree()
        )
        assert jordan_certificate(symmetric_generators(n), alternating=False) == (
            build_group(GroupId("symmetric", (n,))).transitivity_degree()
        )

    def test_other_shapes_it_proves(self):
        # Sym(3) from two transpositions: (0 1) is a 2-cycle fixing 2, (1 2) moves 2
        assert jordan_certificate(
            [from_cycles(3, [(0, 1)]), from_cycles(3, [(1, 2)])], alternating=False
        ) == 3
        # (0 3 6) keeps the classes mod 3 along the 9-cycle, (0 1) breaks them
        gens = [from_cycles(9, [(0, 3, 6)]), from_cycles(9, [tuple(range(9))]),
                from_cycles(9, [(0, 1)])]
        assert jordan_certificate(gens, alternating=False) == 9

    @pytest.mark.parametrize("gens,alternating_claim,message", [
        # an odd generator offered as A_n
        (symmetric_generators(7), True, "generate Sym(7), not Alt(7)"),
        ([from_cycles(8, [(0, 1, 2)]), from_cycles(8, [tuple(range(8))])], True,
         "generate Sym(8), not Alt(8)"),
        (alternating_generators(7), False, "generate Alt(7), not Sym(7)"),
        # imprimitive: the classes mod 3 along the 9-cycle are blocks
        ([from_cycles(9, [(0, 3, 6)]), from_cycles(9, [tuple(range(9))])], True,
         "residue classes mod 3 along the 9-cycle are blocks"),
        # intransitive: every generator fixes 0
        ([from_cycles(8, [(1, 2, 3)]), from_cycles(8, [tuple(range(1, 8))])], True,
         "point 0 is fixed by every generator"),
        # a long cycle of the wrong length
        ([from_cycles(9, [(0, 1, 2)]), from_cycles(9, [tuple(range(7))])], True,
         "no 9-cycle or 8-cycle"),
        ([from_cycles(9, [(0, 1, 2)]), from_cycles(9, [tuple(range(4)), tuple(range(4, 9))])],
         True, "no 9-cycle or 8-cycle"),
        # mixed degrees
        ([from_cycles(7, [(0, 1, 2)]), from_cycles(8, [tuple(range(8))])], True,
         "mixed degrees"),
        # no 3-cycle and no transposition
        ([from_cycles(8, [(0, 1), (2, 3)]), from_cycles(8, [tuple(range(8))])], False,
         "no 3-cycle or transposition"),
        ([], True, "no generators"),
    ])
    def test_refuses(self, gens, alternating_claim, message):
        with pytest.raises(JordanCertificateError, match=re.escape(message)):
            jordan_certificate(gens, alternating=alternating_claim)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_sets_against_closure(self, seed):
        # a 3-cycle or transposition, an n- or (n-1)-cycle and a random
        # permutation: with those shapes present the certificate is complete,
        # so it returns exactly when closure finds A_n or Sym(n) as claimed
        rng = random.Random(seed)
        n = rng.randint(3, 7)
        points = rng.sample(range(n), n)
        jordan = from_cycles(n, [tuple(points[:rng.choice((2, 3))])])
        length = rng.choice((n - 1, n))
        long = from_cycles(n, [tuple(rng.sample(range(n), length))])
        extra = Permutation(rng.sample(range(n), n))
        gens = [jordan, long] + ([extra] if rng.random() < 0.5 else [])
        order = len(PermGroup(gens, order=1).enumerate_elements())
        for alternating_claim, target in ((True, factorial(n) // 2), (False, factorial(n))):
            if order == target:
                expected = n - 2 if alternating_claim else n
                assert jordan_certificate(gens, alternating=alternating_claim) == expected
            else:
                with pytest.raises(JordanCertificateError):
                    jordan_certificate(gens, alternating=alternating_claim)


class TestRandomElements:
    def test_trivial_group_samples_identity(self):
        g = PermGroup([identity(4)], order=1)
        assert g.sampler(7).sample() == identity(4)

    def test_membership_and_determinism(self, m11):
        s3 = PermGroup([from_cycles(3, [(0, 1)]), from_cycles(3, [(0, 1, 2)])], order=6)
        for seed in range(10):
            assert s3.contains(s3.sampler(seed).sample())
        assert m11.sampler(42).sample() == m11.sampler(42).sample()
        sampler_a = m11.sampler(5)
        sampler_b = m11.sampler(5)
        for _ in range(50):
            p = sampler_a.sample()
            assert p == sampler_b.sample()
            assert m11.contains(p)

    def test_sampled_types_lie_in_exact_type_set(self, m11):
        exact = {cycle_type(p) for p in m11.enumerate_elements()}
        sampler = m11.sampler(0)
        for _ in range(2000):
            assert cycle_type(sampler.sample()) in exact

    def test_m12_hundred_thousand_samples(self, m12):
        # oracle: the exhaustive cycle-type set from all 95040 elements
        exact = {cycle_type(p) for p in m12.enumerate_elements()}
        sampler = m12.sampler(0)
        seen_halfway: set = set()
        seen: set = set()
        for step in range(100_000):
            seen.add(cycle_type(sampler.sample()))
            if step == 49_999:
                seen_halfway = set(seen)
        assert seen <= exact
        # the empirical type set has stabilized well before the budget runs out
        assert seen == seen_halfway


class TestSplitMix64:
    def test_matches_independent_reimplementation(self):
        from heartlab.rng import SplitMix64

        def reference(seed, count):
            mask = 0xFFFFFFFFFFFFFFFF
            out = []
            state = seed & mask
            for _ in range(count):
                state = (state + 0x9E3779B97F4A7C15) & mask
                z = state
                z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
                out.append(z ^ (z >> 31))
            return out

        for seed in (0, 1, 42, 2**63):
            stream = SplitMix64(seed)
            assert [stream.next_u64() for _ in range(8)] == reference(seed, 8)

    def test_below_and_bit_are_deterministic(self):
        from heartlab.rng import SplitMix64

        a = SplitMix64(7)
        b = SplitMix64(7)
        assert [a.below(13) for _ in range(20)] == [b.below(13) for _ in range(20)]
        assert all(0 <= a.below(5) < 5 for _ in range(50))
        import pytest as _pytest

        with _pytest.raises(ValueError):
            a.below(0)
