"""Hearts, endomorphism algebras, MeatAxe, indecomposability."""

import random

import pytest

from heartlab.linalg import ModMatrix, kernel, rank
from heartlab.perms import PermGroup, compose, identity
from heartlab.reps import (
    endomorphism_algebra,
    heart,
    is_absolutely_irreducible,
    is_indecomposable,
    is_irreducible,
    permutation_matrix,
    permutation_module,
    sum_zero_module,
)
from heartlab.zoo import (
    GroupId,
    alternating,
    build_group,
    cyclic,
    dihedral,
    parse_group_spec,
    symmetric,
)


class TestPermutationModule:
    def test_images_are_permutation_matrices(self):
        rep = permutation_module(symmetric(3))
        assert rep.dimension == 3
        for image, g in zip(rep.images, symmetric(3).generators):
            for i in range(3):
                assert image.rows[i] == 1 << g.images[i]

    def test_constant_vector_fixed(self):
        rep = permutation_module(build_group(GroupId("mathieu", (11,))))
        ones = (1 << 11) - 1
        for image in rep.images:
            assert image.act(ones) == ones

    def test_sum_zero_subspace_invariant(self):
        group = build_group(GroupId("mathieu", (11,)))
        rep = permutation_module(group)
        from heartlab.linalg import Subspace

        sum_zero = Subspace.from_vectors(
            11, [(1 << i) | (1 << 10) for i in range(10)]
        )
        for image in rep.images:
            for v in sum_zero.basis:
                assert sum_zero.contains(image.act(v))

    def test_word_images_match_permutation_products(self):
        # matrix of a product equals the product of matrices in action order
        group = build_group(GroupId("psl", (3, 2)))
        rep = permutation_module(group)
        rng = random.Random(12)
        gens = group.generators
        for _ in range(20):
            word = [rng.randrange(len(gens)) for _ in range(4)]
            perm = identity(group.degree)
            matrix = ModMatrix.identity(group.degree)
            for idx in word:
                perm = compose(gens[idx], perm)  # apply gens[idx] after perm
                matrix = matrix * rep.images[idx]
            assert matrix == permutation_matrix(perm)
            assert group.contains(perm)


class TestHeart:
    @pytest.mark.parametrize(
        "gid,want",
        [
            (GroupId("mathieu", (11,)), 10),
            (GroupId("mathieu", (24,)), 22),
            (GroupId("psl", (3, 4)), 20),
            (GroupId("symmetric", (6,)), 4),
            (GroupId("cyclic", (5,)), 4),
        ],
    )
    def test_dimensions(self, gid, want):
        group = build_group(gid)
        rep = heart(group)
        n = group.degree
        assert rep.dimension == want == (n - 1 if n % 2 else n - 2)

    def test_images_invertible_and_multiplicative(self):
        group = build_group(GroupId("mathieu", (12,)))
        rep = heart(group)
        for image in rep.images:
            assert rank(image) == rep.dimension
        # the heart map is multiplicative in action order, like the module map
        g0, g1 = group.generators[0], group.generators[1]
        product = compose(g1, g0)
        single = PermGroup([product], degree=group.degree)
        rep_single = heart(single)
        assert rep.images[0] * rep.images[1] == rep_single.images[0]

    def test_sum_zero_is_heart_for_odd_degree(self):
        group = build_group(GroupId("mathieu", (23,)))
        assert sum_zero_module(group).images == heart(group).images

    def test_rejects_tiny_degree(self):
        with pytest.raises(ValueError):
            heart(PermGroup([identity(2)]))


def brute_force_commutant_dimension(rep):
    """Enumerate all 2^(d^2) matrices; only sane for d <= 4."""
    d = rep.dimension
    assert d <= 4
    count = 0
    for bits in range(2 ** (d * d)):
        mask = (1 << d) - 1
        candidate = ModMatrix(d, d, [(bits >> (i * d)) & mask for i in range(d)])
        if all(candidate * a == a * candidate for a in rep.images):
            count += 1
    dim = count.bit_length() - 1
    assert 2**dim == count  # the commutant is a subspace
    return dim


def _spread_bits(mask, stride):
    """Bit k of mask moves to bit k*stride."""
    out = 0
    while mask:
        low = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        out |= 1 << (low * stride)
    return out


def commutation_kernel(rep):
    """Oracle: the kernel of the stacked system X.A - A.X = 0 over all images.

    The unknown X is vectorized row-major into d^2 coordinates.  Returns the
    reduced-echelon basis of that kernel as lists of matrix rows, the form
    endomorphism_algebra promises for its basis.
    """
    d = rep.dimension
    constraints = []
    for a in rep.images:
        col_masks = a.transpose().rows  # col_masks[j] has bit k iff A[k][j] == 1
        spreads = [_spread_bits(r, d) for r in a.rows]
        for i in range(d):
            for j in range(d):
                row = (col_masks[j] << (i * d)) ^ (spreads[i] << j)
                if row:
                    constraints.append(row)
    null = kernel(ModMatrix(len(constraints), d * d, constraints))
    mask = (1 << d) - 1
    return [[(v >> (i * d)) & mask for i in range(d)] for v in null.basis]


ORACLE_GROUPS = [
    "M11", "M12", "M22", "M23", "M24",
    "PSL(3,2)", "PSL(3,3)", "PSL(3,4)", "PSL(4,2)", "PSL(2,8)", "PGL(3,3)",
    "PSL(3,5)", "PSL(4,3)", "PSL(5,2)", "A5", "S6",
    *[f"C{n}" for n in range(5, 13)], "D5", "D10",
]
ORACLE_MODULES = {"heart": heart, "permutation": permutation_module, "sum-zero": sum_zero_module}
SMALL_MODULES = {
    "trivial-group-permutation": lambda: permutation_module(PermGroup([identity(3)])),
    "trivial-group-heart": lambda: heart(PermGroup([identity(4)])),
}


class TestEndomorphismAlgebra:
    @pytest.mark.parametrize("module", ORACLE_MODULES)
    @pytest.mark.parametrize("spec", ORACLE_GROUPS)
    def test_basis_matches_commutation_kernel(self, spec, module):
        rep = ORACLE_MODULES[module](build_group(parse_group_spec(spec)))
        assert rep.dimension <= 40
        assert [b.rows for b in endomorphism_algebra(rep).basis] == commutation_kernel(rep)

    @pytest.mark.parametrize("name", SMALL_MODULES)
    def test_small_basis_matches_commutation_kernel(self, name):
        rep = SMALL_MODULES[name]()
        assert [b.rows for b in endomorphism_algebra(rep).basis] == commutation_kernel(rep)

    def test_trivial_group_full_matrix_algebra(self):
        rep = permutation_module(PermGroup([identity(3)]))
        assert endomorphism_algebra(rep).dimension == 9

    @pytest.mark.parametrize(
        "gid",
        [
            GroupId("mathieu", (11,)),
            GroupId("psl", (3, 4)),
            GroupId("alternating", (5,)),
            GroupId("symmetric", (6,)),
        ],
    )
    def test_scalar_endomorphisms_for_certified_families(self, gid):
        assert endomorphism_algebra(heart(build_group(gid))).dimension == 1

    @pytest.mark.parametrize("n,expect_more_than_one", [(5, True), (6, True)])
    def test_cyclic_controls_against_brute_force(self, n, expect_more_than_one):
        rep = heart(cyclic(n))
        direct = endomorphism_algebra(rep).dimension
        assert direct == brute_force_commutant_dimension(rep)
        assert (direct > 1) == expect_more_than_one

    def test_dihedral_control_against_brute_force(self):
        rep = heart(dihedral(5))
        direct = endomorphism_algebra(rep).dimension
        assert direct == brute_force_commutant_dimension(rep)
        assert direct > 1

    def test_brute_force_agreement_on_2transitive_control(self):
        rep = heart(alternating(5))
        assert endomorphism_algebra(rep).dimension == brute_force_commutant_dimension(rep) == 1

    def test_basis_commutes_and_contains_identity(self):
        rep = heart(cyclic(7))
        endo = endomorphism_algebra(rep)
        for basis_element in endo.basis:
            for image in rep.images:
                assert basis_element * image == image * basis_element
        assert endo.contains_identity()

    def test_cyclic_negative_controls_up_to_12(self):
        for n in range(3, 13):
            assert endomorphism_algebra(heart(cyclic(n))).dimension > 1

    def test_klemm_criterion_through_degree_40(self):
        # whenever (n odd, 2-transitive) or (n even, 3-transitive) holds,
        # the heart endomorphism algebra is exactly the scalars
        for family, params in [
            ("psl", (3, 5)), ("psl", (4, 2)), ("psl", (2, 16)), ("psl", (2, 32)),
            ("mathieu", (23,)), ("mathieu", (24,)),
        ]:
            group = build_group(GroupId(family, params))
            n, t = group.degree, group.transitivity_degree()
            assert (n % 2 == 1 and t >= 2) or (n % 2 == 0 and t >= 3)
            assert endomorphism_algebra(heart(group)).dimension == 1

    def test_permutation_module_commutant_counts_orbitals(self):
        # for a 2-transitive group there are exactly two orbits on pairs,
        # so the full permutation module has a 2-dimensional commutant
        for gid in [GroupId("mathieu", (11,)), GroupId("psl", (3, 2)), GroupId("symmetric", (5,))]:
            rep = permutation_module(build_group(gid))
            assert endomorphism_algebra(rep).dimension == 2
        # C_5 acting regularly: orbits on pairs = 5, matching the group algebra
        rep = permutation_module(cyclic(5))
        assert endomorphism_algebra(rep).dimension == 5


class TestMeatAxe:
    def test_irreducible_hearts(self):
        for gid in [GroupId("mathieu", (11,)), GroupId("mathieu", (12,)), GroupId("psl", (3, 3))]:
            verdict = is_irreducible(heart(build_group(gid)), seed=0)
            assert verdict.status == "irreducible"

    def test_reducible_hearts_with_verified_witness(self):
        for gid in [GroupId("mathieu", (22,)), GroupId("psl", (3, 2)), GroupId("psl", (3, 4))]:
            rep = heart(build_group(gid))
            verdict = is_irreducible(rep, seed=0)
            assert verdict.status == "reducible"
            witness = verdict.witness
            assert witness is not None and 0 < witness.dimension < rep.dimension
            for v in witness.basis:
                for image in rep.images:
                    assert witness.contains(image.act(v))

    def test_deterministic_given_seed(self):
        rep = heart(build_group(GroupId("mathieu", (22,))))
        first = is_irreducible(rep, seed=3)
        second = is_irreducible(rep, seed=3)
        assert first.status == second.status
        assert first.attempts == second.attempts
        assert (first.witness is None) == (second.witness is None)
        if first.witness is not None:
            assert first.witness.basis == second.witness.basis

    def test_one_dimensional_module(self):
        rep = heart(cyclic(3))  # degree 3 odd: dimension 2... use a true 1-dim module
        one_dim = permutation_module(PermGroup([identity(1)]))
        assert is_irreducible(one_dim, seed=0).status == "irreducible"
        assert rep.dimension == 2

    def test_absolute_irreducibility(self):
        assert is_absolutely_irreducible(heart(build_group(GroupId("mathieu", (12,)))))
        assert not is_absolutely_irreducible(heart(build_group(GroupId("mathieu", (22,)))))

    def test_absolute_irreducibility_dimension_38(self):
        assert is_absolutely_irreducible(heart(build_group(GroupId("psl", (4, 3)))))

    def test_reducible_but_scalar_endomorphisms(self):
        # big Mathieu hearts: reducible, yet End = F_2 (so not absolutely irreducible)
        rep = heart(build_group(GroupId("mathieu", (24,))))
        assert endomorphism_algebra(rep).dimension == 1
        assert is_irreducible(rep, seed=0).status == "reducible"


class TestIndecomposability:
    def test_big_mathieu_hearts_indecomposable(self):
        for n in (22, 23, 24):
            verdict = is_indecomposable(heart(build_group(GroupId("mathieu", (n,)))))
            assert verdict.status == "indecomposable"
            assert verdict.endo_dimension == 1

    def test_direct_sum_of_trivial_modules_decomposes(self):
        rep = permutation_module(PermGroup([identity(2)]))
        verdict = is_indecomposable(rep)
        assert verdict.status == "decomposable"
        witness = verdict.witness
        assert witness is not None
        assert witness * witness == witness
        image_rank = rank(witness)
        assert image_rank + kernel(witness.transpose()).dimension == 2
        assert 0 < image_rank < 2

    def test_irreducible_heart_is_indecomposable(self):
        assert is_indecomposable(heart(build_group(GroupId("mathieu", (11,))))).status == (
            "indecomposable"
        )

    def test_cyclic_heart_decomposes_when_idempotent_exists(self):
        # C_5 heart: F_2[x]/(1+x+x^2+x^3+x^4) is a field, so indecomposable;
        # C_7 heart: x^6+...+1 = (x^3+x+1)(x^3+x^2+1) splits, so decomposable
        assert is_indecomposable(heart(cyclic(5))).status == "indecomposable"
        verdict = is_indecomposable(heart(cyclic(7)))
        assert verdict.status == "decomposable"
        assert verdict.witness is not None
