"""Randomized cross-validation of the stabilizer chain against brute force.

Seeded fuzzing: random generator sets on few points, with full element
enumeration as the oracle for order, membership, and transitivity.  Each
group is built with the order its enumeration counts, so the known-order
chain must reach exactly that order from generating sets the zoo does not
build.
"""

import random

from heartlab.linalg import ModMatrix
from heartlab.perms import PermGroup, Permutation, compose, identity
from heartlab.reps import GModuleRep, heart, is_irreducible, sum_zero_module
from heartlab.zoo import GroupId, build_group
from support import chain_snapshot


def random_permutation(rng, degree):
    images = list(range(degree))
    rng.shuffle(images)
    return Permutation(images)


def closure(generators, degree):
    """Every element of the generated group, by breadth-first closure."""
    elements = [identity(degree)]
    seen = {elements[0].images}
    for current in elements:
        for g in generators:
            nxt = compose(g, current)
            if nxt.images not in seen:
                seen.add(nxt.images)
                elements.append(nxt)
    return elements


def random_group(rng):
    """A random group on 2-7 points and its elements."""
    degree = rng.randrange(2, 8)
    gens = [random_permutation(rng, degree) for _ in range(rng.randrange(1, 4))]
    elements = closure(gens, degree)
    return PermGroup(gens, order=len(elements)), elements


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
            group, elements = random_group(rng)
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
            group, elements = random_group(rng)
            if len(elements) > 1500:
                continue
            checked += 1
            assert group.transitivity_degree() == brute_transitivity(elements, group.degree)
        assert checked >= 15

    def test_chain_deterministic_across_rebuilds(self):
        rng = random.Random(77)
        for _ in range(10):
            gens = [random_permutation(rng, 7) for _ in range(2)]
            order = len(closure(gens, 7))
            a = PermGroup(gens, order=order).chain()
            b = PermGroup(gens, order=order).chain()
            assert chain_snapshot(a) == chain_snapshot(b)
            assert a.draws == b.draws


def block_diagonal_double(rep):
    """The direct sum of two copies of a representation."""
    d = rep.dimension
    images = []
    for a in rep.images:
        rows = list(a.rows) + [r << d for r in a.rows]
        images.append(ModMatrix(2 * d, 2 * d, rows))
    return GModuleRep(2 * d, images)


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
