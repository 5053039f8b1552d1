"""Hearts, endomorphism algebras, MeatAxe, indecomposability."""

import hashlib
import random

import pytest

from heartlab import fppoly, reps
from heartlab.linalg import ModMatrix, Subspace, charpoly, kernel, spin
from heartlab.perms import PermGroup, compose, identity
from heartlab.reps import (
    GModuleRep,
    _matrix_poly,
    _orthogonal_complement,
    _random_algebra_element,
    _vec_of_matrix,
    _verify_invariant,
    endomorphism_algebra,
    heart,
    is_indecomposable,
    is_irreducible,
    sum_zero_module,
)
from heartlab.rng import SplitMix64
from heartlab.zoo import (
    GroupId,
    alternating,
    build_group,
    cyclic,
    dihedral,
    parse_group_spec,
    symmetric,
)
import support
from support import (
    drained_spin,
    eager_inverse,
    eager_spin,
    left_kernels,
    permutation_matrix,
    permutation_module,
    rank,
    raw_krylov_charpoly,
    reference_is_irreducible,
    reference_kernel,
    right_horner_matrix_poly,
    spin_and_acted_rows,
)
from test_cli import MEATAXE_PINS


def is_absolutely_irreducible(rep, seed=0):
    """Irreducible with scalar-only endomorphisms: a MeatAxe verdict, then
    the End dimension."""
    verdict = is_irreducible(rep, seed)
    assert verdict.status != "inconclusive"
    return verdict.status == "irreducible" and endomorphism_algebra(rep).dimension == 1


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
        single = PermGroup([product], order=product.order())
        rep_single = heart(single)
        assert rep.images[0] * rep.images[1] == rep_single.images[0]

    def test_sum_zero_is_heart_for_odd_degree(self):
        group = build_group(GroupId("mathieu", (23,)))
        assert sum_zero_module(group).images == heart(group).images

    def test_rejects_tiny_degree(self):
        with pytest.raises(ValueError):
            heart(PermGroup([identity(2)], order=1))


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
    null = kernel(ModMatrix(len(constraints), d * d, constraints).transpose())
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
    "trivial-group-permutation": lambda: permutation_module(PermGroup([identity(3)], order=1)),
    "trivial-group-heart": lambda: heart(PermGroup([identity(4)], order=1)),
}


# (End dimension, sha256 of the basis rows, each row d bits little-endian),
# recorded while the End solve still consumed its relations first to last:
# the order of the relations must not reach the basis.
END_BASIS_DIGESTS = {
    "M22": (1, "0fc389aa7272dd8d177f35981dcb52a5daf47dca48cf546d73fb1235a3dbb5da"),
    "M23": (1, "71f3fc190adb4e1ed20f9ae2908d420ed176463d806e9222753451f993894cf6"),
    "M24": (1, "71f3fc190adb4e1ed20f9ae2908d420ed176463d806e9222753451f993894cf6"),
    "PSL(3,5)": (1, "f088134c93e473e7d7978a2a58c93499766e0eb8c719ee48aa62302d95a0bd8f"),
    "PSL(4,3)": (1, "2469d39036f7f65e47ccbb269f13bf199f104626bc3aa87f9dc275d912ec6d61"),
    "PSL(5,2)": (1, "f088134c93e473e7d7978a2a58c93499766e0eb8c719ee48aa62302d95a0bd8f"),
    "PSL(3,7)": (1, "2ef5a97eeb3b3c68d41fdd147ccda33ae947f9513ed6a6cd47081aee95c1b777"),
    "PSL(2,64)": (1, "b163622b0256b4b0b05f66c2eb1b13e5729c852ceb88adaf82dc99e582bb0df4"),
    "PSL(3,8)": (1, "1f799f1d64a53fc3819772d73313ee756795c03d0df22a2a7073c7dd29fd4c11"),
    "PSL(3,9)": (1, "268fead4e1fb63557c83d373898b199a08f26f90d14e1c6a3e819b7b68723605"),
    "PSL(4,5)": (1, "9ac60775183c63e4c18ddbc198a7265d684f76d8929c08bc04a506a7555c030b"),
    "PSL(2,97)": (2, "b389a097984207a45a93994f96d0ca5d955c33fba4f0a4e9e45221aab19d630b"),
    "PSL(2,11)": (2, "441326a5f80ff89e3b4129ab4549ea8683bfbf2b64f71059e0bce6758b6aacb3"),
}


class TestEndomorphismAlgebra:
    @pytest.mark.parametrize("name", END_BASIS_DIGESTS)
    def test_heart_basis_digest(self, name):
        rep = heart(build_group(parse_group_spec(name)))
        endo = endomorphism_algebra(rep)
        digest = hashlib.sha256()
        for x in endo.basis:
            for row in x.rows:
                digest.update(row.to_bytes((rep.dimension + 7) // 8, "little"))
        assert (endo.dimension, digest.hexdigest()) == END_BASIS_DIGESTS[name]

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
        rep = permutation_module(PermGroup([identity(3)], order=1))
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
        d = rep.dimension
        span = Subspace.from_vectors(d * d, [_vec_of_matrix(b) for b in endo.basis])
        assert span.contains(_vec_of_matrix(ModMatrix.identity(d)))

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
        one_dim = permutation_module(PermGroup([identity(1)], order=1))
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


def heart_of(spec):
    return heart(build_group(parse_group_spec(spec)))


def count_acts(monkeypatch):
    """Patch ``ModMatrix.act`` to count its calls; returns the one-item counter."""
    calls = [0]
    act = ModMatrix.act

    def counted(self, v):
        calls[0] += 1
        return act(self, v)

    monkeypatch.setattr(ModMatrix, "act", counted)
    return calls


class TestMeatAxeSteps:
    """The early-stopping spin and the left-multiplied p(theta) against the
    drained spin and the right-multiplied Horner they replaced."""

    @pytest.mark.parametrize("group", sorted({group for group, _ in MEATAXE_PINS}))
    def test_spin_matches_drained_spin(self, monkeypatch, group):
        rep = heart_of(group)
        d = rep.dimension
        rng = random.Random(11)
        seeds = [1] + [rng.randrange(1, 1 << d) for _ in range(5)]
        calls = count_acts(monkeypatch)
        for actions in (rep.images, rep.transposed_images()):
            for v in seeds:
                expected = drained_spin([v], actions, d)
                start = calls[0]
                got = spin([v], actions, d)
                acts = calls[0] - start
                assert (got.basis, got.pivots) == (expected.basis, expected.pivots)
                # the drained spin acts d * k times on a spin that fills
                if got.dimension == d:
                    assert acts < d * len(actions)

    def test_proper_spin_matches_drained_spin(self):
        rep = heart_of("M24")
        d = rep.dimension
        witness = is_irreducible(rep, seed=0).witness
        assert witness.is_proper_nonzero()
        for seeds in ([witness.basis[0]], [witness.basis[-1]], witness.basis):
            got = spin(seeds, rep.images, d)
            expected = drained_spin(seeds, rep.images, d)
            assert got.is_proper_nonzero()
            assert (got.basis, got.pivots) == (expected.basis, expected.pivots)

    def test_spin_from_e0_makes_at_most_half_the_drained_acts(self, monkeypatch):
        rep = heart_of("PSL(2,128)")
        d, k = rep.dimension, len(rep.images)
        calls = count_acts(monkeypatch)
        assert spin([1], rep.images, d).dimension == d
        assert calls[0] <= d * k // 2

    @pytest.mark.parametrize("group", ["M24", "PSL(3,4)", "PSL(4,3)"])
    def test_matrix_poly_matches_right_horner_at_charpoly_factors(self, group):
        images = heart_of(group).images
        rng = SplitMix64(3)
        for attempt in range(1, 7):
            theta = _random_algebra_element(images, rng, attempt)
            for factor, _ in fppoly.factor(tuple(charpoly(theta)), 2, rng):
                assert _matrix_poly(factor, theta) == right_horner_matrix_poly(factor, theta)

    def test_matrix_poly_matches_right_horner_on_dense_matrices(self):
        rng = random.Random(13)
        for d in (1, 2, 3, 8, 17, 40):
            for _ in range(4):
                m = ModMatrix(d, d, [rng.randrange(1 << d) for _ in range(d)])
                coeffs = [rng.randrange(2) for _ in range(rng.randrange(13))]
                assert _matrix_poly(coeffs, m) == right_horner_matrix_poly(coeffs, m)


# the groups of the MeatAxe and End benchmark workloads: hearts of dimension
# 20-272 whose p(theta) and End systems are sparse
MEATAXE_LARGE_GROUPS = ("PSL(3,13)", "PSL(3,16)", "PSL(2,256)", "PSL(5,3)", "PSL(2,128)")
HEART_DEEP_GROUPS = ("M22", "M24", "PSL(3,5)", "PSL(4,3)", "PSL(5,2)", "PSL(3,7)", "PSL(2,64)")
MEMO_GROUPS = (
    "PSL(3,2)", "PSL(2,8)", "A7", "M11", "M12", "PSL(3,3)", "PSL(3,4)", "PSL(2,16)",
    "PSL(4,2)", "S8", "M22", "PGL(3,3)", "PSL(2,32)", "PSL(3,5)", "D10", "PSL(2,11)",
)


# Set bits of the vectors that ``ModMatrix.act`` walks inside spin and inside
# charpoly during is_irreducible(heart(G), seed).  Acting on the vectors as
# queued and on the raw Krylov vectors, not on the echelon rows, walked
# (191578, 33740) and (300798, 14472).  Charpoly acts on full residues,
# chased on every stored key; the semi-echelon residues it acted on before,
# reduced only until their lowest bit was new, walked 17699 and 9837 bits.
MEATAXE_WORK_PINS = {
    ("PSL(2,256)", 0): (61878, 17105),
    ("PSL(3,16)", 1): (154347, 8214),
}


class TestReducedRows:
    """``spin`` acting on reduced echelon rows and ``charpoly`` on Krylov
    residues, against the drained spin on vectors as queued and the
    raw-Krylov charpoly, on the seeds and elements the MeatAxe really uses;
    and the bits that ``ModMatrix.act`` walks in each."""

    @pytest.mark.parametrize("group", ["PSL(2,256)", "PSL(3,16)"])
    def test_spin_matches_drained_spin_on_meataxe_seeds(self, group):
        # the first p(theta)-kernel vector of every factor in attempts 1-3, the
        # dense seeds the MeatAxe spins, and the dual seed under the transpose
        rep = heart_of(group)
        d = rep.dimension
        transposed = rep.transposed_images()
        rng = SplitMix64(0)
        spins = 0
        for attempt in range(1, 4):
            theta = _random_algebra_element(rep.images, rng, attempt)
            for factor, _ in fppoly.factor(tuple(charpoly(theta)), 2, rng):
                p_of_theta = _matrix_poly(factor, theta)
                null = kernel(p_of_theta)
                if null.dimension == 0:
                    continue
                dual_seed = kernel(p_of_theta.transpose()).basis[0]
                for v, actions in ((null.basis[0], rep.images), (dual_seed, transposed)):
                    got = spin([v], actions, d)
                    expected = drained_spin([v], actions, d)
                    assert (got.basis, got.pivots) == (expected.basis, expected.pivots)
                    spins += 1
        assert spins >= 6

    @pytest.mark.parametrize("group", MEATAXE_LARGE_GROUPS)
    def test_charpoly_matches_raw_krylov_on_meataxe_elements(self, group):
        # theta of attempts 1-10 at MeatAxe seeds 0 and 1: the MeatAxe draws
        # from its generator only for theta and for factoring its charpoly
        images = heart_of(group).images
        for seed in (0, 1):
            rng = SplitMix64(seed)
            for attempt in range(1, 11):
                theta = _random_algebra_element(images, rng, attempt)
                if theta.is_scalar():
                    continue
                poly = charpoly(theta)
                assert poly == raw_krylov_charpoly(theta)
                fppoly.factor(tuple(poly), 2, rng)

    @pytest.mark.parametrize("group,seed", list(MEATAXE_WORK_PINS))
    def test_bits_walked_in_spin_and_charpoly(self, monkeypatch, group, seed):
        rep = heart_of(group)
        walked = {"spin": 0, "charpoly": 0}
        phase = [None]
        act = ModMatrix.act

        def counted(self, v):
            if phase[0] is not None:
                walked[phase[0]] += v.bit_count()
            return act(self, v)

        def within(name, function):
            def run(*args):
                phase[0] = name
                try:
                    return function(*args)
                finally:
                    phase[0] = None

            return run

        monkeypatch.setattr(ModMatrix, "act", counted)
        monkeypatch.setattr(reps, "spin", within("spin", spin))
        monkeypatch.setattr(reps, "charpoly", within("charpoly", charpoly))
        is_irreducible(rep, seed)
        assert (walked["spin"], walked["charpoly"]) == MEATAXE_WORK_PINS[group, seed]


def meataxe_spin_inputs(rep, seed, attempts, per_kernel):
    """(seed vector, actions) for the spins that MeatAxe attempts could ask
    for: the first ``per_kernel`` basis vectors (all for None) of each
    p(theta)-kernel under the module's action, and of each kernel of
    p(theta) under the transposed one."""
    transposed = rep.transposed_images()
    rng = SplitMix64(seed)
    for attempt in attempts:
        theta = _random_algebra_element(rep.images, rng, attempt)
        if theta.is_scalar():
            continue
        for factor, _ in fppoly.factor(tuple(charpoly(theta)), 2, rng):
            p_of_theta = _matrix_poly(factor, theta)
            for v in kernel(p_of_theta).basis[:per_kernel]:
                yield v, rep.images
            for w in kernel(p_of_theta.transpose()).basis[:per_kernel]:
                yield w, transposed


def meataxe_polynomial_matrices(rep, seed, attempts):
    """p(theta) for every factor p of the charpoly of each theta that the
    MeatAxe at ``seed`` draws in ``attempts``."""
    rng = SplitMix64(seed)
    for attempt in attempts:
        theta = _random_algebra_element(rep.images, rng, attempt)
        if theta.is_scalar():
            continue
        for factor, _ in fppoly.factor(tuple(charpoly(theta)), 2, rng):
            yield _matrix_poly(factor, theta)


class TestLeftKernelOnMeatAxeAndEndSystems:
    """``kernel``, the left kernel by row tags, against the right kernel of
    the transpose by bit-sliced back-substitution and by a fully reduced
    echelon, on the matrices the MeatAxe and the End solve pass it."""

    @pytest.mark.parametrize("group", MEATAXE_LARGE_GROUPS)
    def test_p_of_theta(self, group):
        rep = heart_of(group)
        checked = 0
        for seed in (0, 1):
            for p_of_theta in meataxe_polynomial_matrices(rep, seed, range(1, 4)):
                got, bitsliced, reference = left_kernels(p_of_theta)
                assert got == bitsliced == reference
                checked += 1
        assert checked >= 4

    @pytest.mark.parametrize("group", ["A301", "PSL(2,97)"])
    def test_end_conditions(self, monkeypatch, group):
        captured = []

        def capturing(matrix):
            captured.append(matrix)
            return kernel(matrix)

        monkeypatch.setattr(reps, "kernel", capturing)
        endomorphism_algebra(heart_of(group))
        (conditions,) = captured  # the transpose of the reduced echelon conditions
        got, bitsliced, reference = left_kernels(conditions)
        assert got == bitsliced == reference

    def test_dual_witnesses_of_psl_3_16(self):
        # the proper spins of the first kernel vector of each p(theta)
        # transposed under the transposed action, and their complements
        rep = heart_of("PSL(3,16)")
        d = rep.dimension
        transposed = rep.transposed_images()
        witnesses = 0
        for seed in (0, 1):
            for p_of_theta in meataxe_polynomial_matrices(rep, seed, range(1, 4)):
                dual_null = kernel(p_of_theta.transpose())
                if dual_null.dimension == 0:
                    continue
                dual_span = spin([dual_null.basis[0]], transposed, d)
                if not dual_span.is_proper_nonzero():
                    continue
                witness = ModMatrix(dual_span.dimension, d, dual_span.basis)
                got, bitsliced, reference = left_kernels(witness.transpose())
                assert got == bitsliced == reference
                complement = _orthogonal_complement(dual_span, d)
                assert complement.basis == got[1]
                _verify_invariant(complement, rep.images)
                witnesses += 1
        assert witnesses >= 5


class TestResidueSpinAndInverseOnMeatAxeInputs:
    """``spin`` and ``ModMatrix.inverse`` keep residues and back-reduce a row
    once, when it is read; ``support.eager_spin`` and ``eager_inverse``
    back-reduce every stored row at every insert.  On the seeds, closures
    and matrices the MeatAxe and the End solve really meet, both give the
    same basis, pivots and rows acted on, and the same inverse."""

    @pytest.mark.parametrize("group", ["A301", "PSL(2,256)", "PSL(3,16)"])
    def test_spin_matches_eager_spin_on_meataxe_seeds(self, group):
        rep = heart_of(group)
        d = rep.dimension
        spins = 0
        for v, actions in meataxe_spin_inputs(rep, 0, range(1, 4), 1):
            got, got_acted = spin_and_acted_rows(spin, [v], actions, d)
            want, want_acted = spin_and_acted_rows(eager_spin, [v], actions, d)
            assert (got.basis, got.pivots, got.dimension) == (want.basis, want.pivots, want.dimension)
            assert got_acted == want_acted
            spins += 1
        assert spins >= 4

    def test_spin_matches_eager_spin_on_m24_proper_closures(self):
        rep = heart_of("M24")
        d = rep.dimension
        proper = 0
        for v, actions in meataxe_spin_inputs(rep, 0, range(1, 7), None):
            got, got_acted = spin_and_acted_rows(spin, [v], actions, d)
            want, want_acted = spin_and_acted_rows(eager_spin, [v], actions, d)
            assert (got.basis, got.pivots, got.dimension) == (want.basis, want.pivots, want.dimension)
            assert got_acted == want_acted
            proper += got.is_proper_nonzero()
        witness = is_irreducible(rep, 0).witness
        for seeds in ([witness.basis[0]], [witness.basis[-1]], witness.basis):
            got = spin(seeds, rep.images, d)
            assert got.is_proper_nonzero()
            assert got == eager_spin(seeds, rep.images, d)
        assert proper >= 10

    @pytest.mark.parametrize("group", ["A301", "PSL(2,97)"])
    def test_inverse_matches_eager_inverse_on_end_and_meataxe(self, monkeypatch, group):
        inverse = ModMatrix.inverse
        checked = []

        def checking(self):
            got = inverse(self)
            assert got == eager_inverse(self)
            checked.append(self.nrows)
            return got

        monkeypatch.setattr(ModMatrix, "inverse", checking)
        rep = heart_of(group)
        endomorphism_algebra(rep)  # W, the matrix of the spanning-tree vectors
        assert checked == [rep.dimension]
        if group == "A301":
            is_irreducible(rep, 0)  # h of theta = h.g.h^-1 + g' in odd attempts
            assert len(checked) >= 2

    @pytest.mark.parametrize(
        "group,seed,transposes", [("M24", 1, 0), ("M24", 0, 1), ("PSL(3,4)", 0, 0), ("M12", 0, 1)]
    )
    def test_transposes_only_for_the_dual_test(self, monkeypatch, group, seed, transposes):
        calls = []
        transposed_images = GModuleRep.transposed_images
        monkeypatch.setattr(
            GModuleRep, "transposed_images", lambda rep: calls.append(rep) or transposed_images(rep)
        )
        verdict = is_irreducible(heart_of(group), seed)
        assert verdict.status == ("irreducible" if group == "M12" else "reducible")
        assert len(calls) == transposes

    def test_matrix_poly_skips_zero_and_identity_products(self, monkeypatch):
        rng = random.Random(5)
        m = ModMatrix(6, 6, [rng.randrange(64) for _ in range(6)])
        products = [0]
        mul = ModMatrix.__mul__

        def counted(self, other):
            products[0] += 1
            return mul(self, other)

        for coeffs in ([], [0], [0, 0, 0], [1], [1, 0, 0], [0, 1], [1, 1, 0], [0, 0, 1], [1, 0, 1, 1, 0]):
            want = right_horner_matrix_poly(coeffs, m)
            monkeypatch.setattr(ModMatrix, "__mul__", counted)
            products[0] = 0
            got = _matrix_poly(coeffs, m)
            monkeypatch.setattr(ModMatrix, "__mul__", mul)
            assert got == want
            degree = max((k for k, c in enumerate(coeffs) if c), default=0)
            assert products[0] == max(degree - 1, 0)


def record_spins(monkeypatch, module):
    """Patch ``module.spin`` to record (first seed, actions, filled) per call."""
    calls = []

    def recording(seeds, actions, ambient):
        span = spin(seeds, actions, ambient)
        calls.append((seeds[0], actions, span.dimension == ambient))
        return span

    monkeypatch.setattr(module, "spin", recording)
    return calls


def without_repeated_filled_spins(calls, images):
    """The reference's spins less each primal one whose seed filled before."""
    filled = set()
    kept = []
    for v, actions, full in calls:
        if actions is images:
            if v in filled:
                continue
            if full:
                filled.add(v)
        kept.append((v, actions, full))
    return kept


class TestMeatAxeKernelAndMemo:
    """The sparse kernel against the fully reduced one on the systems the
    MeatAxe and the End solve really pass it, and the filled-spin memo
    against the MeatAxe that spins every kernel vector it meets."""

    @pytest.mark.parametrize("group", MEATAXE_LARGE_GROUPS + HEART_DEEP_GROUPS)
    def test_kernel_matches_reference_on_captured_systems(self, monkeypatch, group):
        captured = []

        def capturing(matrix):
            captured.append(matrix)
            return kernel(matrix)

        monkeypatch.setattr(reps, "kernel", capturing)
        rep = heart_of(group)
        for seed in (0, 1):
            is_irreducible(rep, seed)
        if group in HEART_DEEP_GROUPS:
            endomorphism_algebra(rep)
        assert captured
        for matrix in captured:
            got, want = kernel(matrix), reference_kernel(matrix.transpose())
            assert (got.ambient, got.basis, got.pivots) == (want.ambient, want.basis, want.pivots)

    @pytest.mark.parametrize("group", MEMO_GROUPS)
    def test_memo_matches_reference(self, monkeypatch, group):
        rep = heart_of(group)
        spins = record_spins(monkeypatch, reps)
        reference_spins = record_spins(monkeypatch, support)
        for seed in range(30):
            spins.clear()
            reference_spins.clear()
            got, want = is_irreducible(rep, seed), reference_is_irreducible(rep, seed)
            assert (got.status, got.attempts) == (want.status, want.attempts)
            if want.witness is None:
                assert got.witness is None
            else:
                assert got.witness.basis == want.witness.basis
            assert spins == without_repeated_filled_spins(reference_spins, rep.images)

    def test_memo_saves_four_spins_on_psl_3_16(self, monkeypatch):
        rep = heart_of("PSL(3,16)")
        spins = record_spins(monkeypatch, reps)
        reference_spins = record_spins(monkeypatch, support)
        assert is_irreducible(rep, 1).status == "reducible"
        reference_is_irreducible(rep, 1)
        assert (len(spins), len(reference_spins)) == (11, 15)


class TestIndecomposability:
    def test_big_mathieu_hearts_indecomposable(self):
        for n in (22, 23, 24):
            rep = heart(build_group(GroupId("mathieu", (n,))))
            verdict = is_indecomposable(rep, endomorphism_algebra(rep))
            assert verdict.status == "indecomposable"
            assert verdict.endo_dimension == 1

    def test_direct_sum_of_trivial_modules_decomposes(self):
        rep = permutation_module(PermGroup([identity(2)], order=1))
        verdict = is_indecomposable(rep, endomorphism_algebra(rep))
        assert verdict.status == "decomposable"
        witness = verdict.witness
        assert witness is not None
        assert witness * witness == witness
        image_rank = rank(witness)
        assert image_rank + kernel(witness).dimension == 2
        assert 0 < image_rank < 2

    def test_irreducible_heart_is_indecomposable(self):
        rep = heart(build_group(GroupId("mathieu", (11,))))
        assert is_indecomposable(rep, endomorphism_algebra(rep)).status == "indecomposable"

    def test_cyclic_heart_decomposes_when_idempotent_exists(self):
        # C_5 heart: F_2[x]/(1+x+x^2+x^3+x^4) is a field, so indecomposable;
        # C_7 heart: x^6+...+1 = (x^3+x+1)(x^3+x^2+1) splits, so decomposable
        c5, c7 = heart(cyclic(5)), heart(cyclic(7))
        assert is_indecomposable(c5, endomorphism_algebra(c5)).status == "indecomposable"
        verdict = is_indecomposable(c7, endomorphism_algebra(c7))
        assert verdict.status == "decomposable"
        assert verdict.witness is not None
