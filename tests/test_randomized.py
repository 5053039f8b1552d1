"""Randomized cross-validation of the stabilizer chain against brute force.

Seeded fuzzing: random generator sets on few points, with full element
enumeration as the oracle for order, membership, and transitivity.
"""

import random

from heartlab.linalg import ModMatrix
from heartlab.perms import PermGroup, Permutation
from heartlab.reps import GModuleRep, heart, is_irreducible, sum_zero_module
from heartlab.zoo import GroupId, build_group


def random_permutation(rng, degree):
    images = list(range(degree))
    rng.shuffle(images)
    return Permutation(images)


def random_group(rng):
    degree = rng.randrange(2, 8)
    gens = [random_permutation(rng, degree) for _ in range(rng.randrange(1, 4))]
    return PermGroup(gens)


def brute_transitivity(elements, degree):
    """Largest t with a transitive action on ordered t-tuples, by counting."""
    t = 0
    while t < degree:
        target = 1
        for i in range(t + 1):
            target *= degree - i
        reached = {tuple(range(t + 1))}
        for p in elements:
            reached.add(tuple(p.images[i] for i in range(t + 1)))
        # orbit of the base tuple: close under the full element list
        frontier = list(reached)
        seen = set(reached)
        while frontier:
            tup = frontier.pop()
            for p in elements:
                nxt = tuple(p.images[i] for i in tup)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if len(seen) != target:
            break
        t += 1
    return t


class TestChainAgainstClosure:
    def test_order_and_membership_fuzz(self):
        rng = random.Random(2024)
        for _ in range(40):
            group = random_group(rng)
            elements = group.enumerate_elements(limit=10**6)
            assert group.order() == len(elements)
            element_set = {p.images for p in elements}
            for p in elements[:25]:
                assert group.contains(p)
            for _ in range(10):
                candidate = random_permutation(rng, group.degree)
                assert group.contains(candidate) == (candidate.images in element_set)

    def test_transitivity_fuzz(self):
        rng = random.Random(515)
        checked = 0
        for _ in range(30):
            group = random_group(rng)
            elements = group.enumerate_elements(limit=10**6)
            if len(elements) > 1500:
                continue
            checked += 1
            assert group.transitivity_degree() == brute_transitivity(elements, group.degree)
        assert checked >= 15

    def test_chain_deterministic_across_rebuilds(self):
        rng = random.Random(77)
        for _ in range(10):
            gens = [random_permutation(rng, 7) for _ in range(2)]
            a = PermGroup(gens)
            b = PermGroup(gens)
            assert a.order() == b.order()
            assert a.base_points() == b.base_points()
            assert a.orbit_sizes() == b.orbit_sizes()


def block_diagonal_double(rep):
    """The direct sum of two copies of a representation."""
    d = rep.dimension
    images = []
    for a in rep.images:
        rows = list(a.rows) + [r << d for r in a.rows]
        images.append(ModMatrix(2 * d, 2 * d, rows))
    return GModuleRep(2 * d, images, "submodule", None)


class TestMeatAxeHardCases:
    def test_doubled_irreducible_is_reducible(self):
        # V + V has diagonal submodules even though V itself is irreducible
        base = heart(build_group(GroupId("mathieu", (11,))))
        doubled = block_diagonal_double(base)
        verdict = is_irreducible(doubled, seed=0)
        assert verdict.status == "reducible"
        witness = verdict.witness
        assert witness is not None and 0 < witness.dimension < 20
        for v in witness.basis:
            for image in doubled.images:
                assert witness.contains(image.act(v))

    def test_sum_zero_with_constants_line_is_reducible(self):
        # even degree: the constants line sits inside the sum-zero module
        for n in (12, 24):
            rep = sum_zero_module(build_group(GroupId("mathieu", (n,))))
            verdict = is_irreducible(rep, seed=0)
            assert verdict.status == "reducible"
            ones = (1 << (n - 1)) - 1
            assert verdict.witness is not None
            # the found witness is invariant; the constants line always is
            for image in rep.images:
                assert image.act(ones) == ones
