"""Exact F_2 linear algebra on bitset rows: rank, kernel, solve, spin, charpoly."""

import random

import pytest

from heartlab.linalg import ModMatrix, Subspace, charpoly, kernel, rank, solve, spin
from heartlab.perms import from_cycles
from heartlab.reps import permutation_matrix
from heartlab.zoo import symmetric


def random_matrix(rng, rows, cols):
    return ModMatrix.from_entries([[rng.randrange(2) for _ in range(cols)] for _ in range(rows)])


class TestRankKernelSolve:
    def test_identity(self):
        m = ModMatrix.identity(5)
        assert rank(m) == 5
        assert kernel(m).dimension == 0

    def test_all_ones(self):
        m = ModMatrix.from_entries([[1] * 4] * 4)
        assert rank(m) == 1
        assert kernel(m).dimension == 3

    def test_rank_plus_nullity(self):
        rng = random.Random(5)
        for _ in range(60):
            rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
            m = random_matrix(rng, rows, cols)
            assert rank(m) + kernel(m).dimension == cols

    def test_planted_rank(self):
        rng = random.Random(1)
        while True:
            a = random_matrix(rng, 20, 13)
            b = random_matrix(rng, 13, 20)
            if rank(a) == 13 and rank(b) == 13:
                break
        assert rank(a * b) == 13

    def test_rank_of_product_bounded(self):
        rng = random.Random(9)
        for _ in range(30):
            a = random_matrix(rng, 6, 5)
            b = random_matrix(rng, 5, 7)
            assert rank(a * b) <= min(rank(a), rank(b))

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(3)
        for _ in range(2):
            m = random_matrix(rng, 6, 9)
            for v in kernel(m).basis:
                # v is a length-ncols row vector with M v = 0
                for i in range(m.nrows):
                    acc = 0
                    for j in range(m.ncols):
                        acc ^= m.entry(i, j) & ((v >> j) & 1)
                    assert acc == 0

    def test_solve_consistent_and_inconsistent(self):
        def apply(m, x):  # M x as a bitset of length nrows
            return sum((bin(r & x).count("1") & 1) << i for i, r in enumerate(m.rows))

        m = ModMatrix.from_entries([[1, 1, 0], [1, 1, 0]])
        assert solve(m, [1, 0]) is None
        x = solve(m, [1, 1])
        assert x is not None and apply(m, x) == 0b11
        m2 = ModMatrix.from_entries([[1, 1], [0, 1], [1, 0]])
        assert solve(m2, 0b111) is None  # adding the three equations gives 0 = 1
        x = solve(m2, 0b110)
        assert x is not None and apply(m2, x) == 0b110

    def test_inverse_roundtrip_f2(self):
        rng = random.Random(11)
        found = 0
        while found < 10:
            m = random_matrix(rng, 6, 6)
            if rank(m) < 6:
                continue
            found += 1
            assert (m * m.inverse()).is_identity()
            assert (m.inverse() * m).is_identity()

    def test_inverse_of_singular_raises(self):
        with pytest.raises(ValueError):
            ModMatrix.from_entries([[1, 1], [1, 1]]).inverse()

    def test_is_scalar_degenerate_sizes(self):
        assert ModMatrix.identity(0).is_scalar()
        assert ModMatrix.zeros(0, 0).is_scalar()
        assert ModMatrix.identity(1).is_scalar()
        assert ModMatrix.zeros(1, 1).is_scalar()
        assert not ModMatrix.from_entries([[0, 1], [0, 0]]).is_scalar()
        assert not ModMatrix.zeros(1, 2).is_scalar()


class TestSubspace:
    def test_equality_is_representation_equality(self):
        a = Subspace.from_vectors(4, [0b0011, 0b0110])
        b = Subspace.from_vectors(4, [0b0101, 0b0011])
        assert a == b
        assert a.basis == b.basis

    def test_pivots_strictly_increasing(self):
        s = Subspace.from_vectors(6, [0b110010, 0b000111, 0b101010])
        assert s.pivots == sorted(s.pivots)
        assert len(set(s.pivots)) == len(s.pivots)

    def test_contains(self):
        s = Subspace.from_vectors(4, [0b0011, 0b1100])
        assert s.contains(0b1111)
        assert not s.contains(0b0001)


class TestSpin:
    def test_single_seed_identity_action(self):
        sub = spin([0b1], [ModMatrix.identity(4)], 4)
        assert sub.dimension == 1

    def test_constants_line_is_stable(self):
        actions = [permutation_matrix(g) for g in symmetric(6).generators]
        sub = spin([0b111111], actions, 6)
        assert sub.dimension == 1

    def test_sum_zero_hyperplane_from_pair(self):
        actions = [permutation_matrix(g) for g in symmetric(5).generators]
        sub = spin([0b00011], actions, 5)
        assert sub.dimension == 4
        # brute-force closure over all 32 vectors as an oracle
        vectors = {0b00011}
        changed = True
        while changed:
            changed = False
            for v in list(vectors):
                for a in actions:
                    w = a.act(v)
                    if w not in vectors:
                        vectors.add(w)
                        changed = True
                for w in list(vectors):
                    if v ^ w not in vectors:
                        vectors.add(v ^ w)
                        changed = True
        assert len(vectors) == 2**sub.dimension
        assert all(sub.contains(v) for v in vectors)

    def test_spin_result_invariant_and_idempotent(self):
        rng = random.Random(2)
        actions = [permutation_matrix(g) for g in symmetric(7).generators]
        seeds = [rng.randrange(1, 2**7) for _ in range(3)]
        sub = spin(seeds, actions, 7)
        for v in sub.basis:
            for a in actions:
                assert sub.contains(a.act(v))
        again = spin(list(sub.basis), actions, 7)
        assert again == sub


class TestCharpoly:
    def test_permutation_matrix_charpoly(self):
        p = from_cycles(5, [(0, 1, 2), (3, 4)])
        # (x^3 + 1)(x^2 + 1) = x^5 + x^3 + x^2 + 1 over F_2
        assert charpoly(permutation_matrix(p)) == [1, 0, 1, 1, 0, 1]

    def test_identity_charpoly(self):
        # (x + 1)^4 = x^4 + 1 over F_2
        assert charpoly(ModMatrix.identity(4)) == [1, 0, 0, 0, 1]

    def test_brute_force_cross_check_f2(self):
        # det(xI + M) by cofactor expansion over F_2[x], sizes 1-6: random,
        # zero and strictly upper triangular (nilpotent) matrices
        rng = random.Random(23)

        def polymul(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] ^= x & y
            return out

        def polyadd(a, b):
            size = max(len(a), len(b))
            return [
                (a[i] if i < len(a) else 0) ^ (b[i] if i < len(b) else 0) for i in range(size)
            ]

        def det(entries):
            n = len(entries)
            if n == 1:
                return entries[0][0]
            acc = [0]
            for j in range(n):
                minor = [row[:j] + row[j + 1 :] for row in entries[1:]]
                term = polymul(entries[0][j], det(minor))
                acc = polyadd(acc, term)  # signs vanish mod 2
            return acc

        cases = []
        for n in range(1, 7):
            cases += [random_matrix(rng, n, n) for _ in range(10)]
            cases.append(ModMatrix.zeros(n, n))
            cases.append(ModMatrix(n, n, [rng.randrange(2**n) >> (i + 1) << (i + 1) for i in range(n)]))
        for m in cases:
            n = m.nrows
            entries = [
                [
                    polyadd([m.entry(i, j)], [0, 1] if i == j else [0])
                    for j in range(n)
                ]
                for i in range(n)
            ]
            expected = det(entries)
            expected += [0] * (n + 1 - len(expected))
            assert charpoly(m) == expected
