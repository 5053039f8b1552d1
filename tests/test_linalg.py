"""Exact F_2 linear algebra on bitset rows: transpose, kernel, inverse, spin,
charpoly.

The Krylov ``charpoly`` is cross-checked against ``hessenberg_charpoly``, the
similarity-to-Hessenberg reduction it replaced, kept here as a test oracle,
and against ``support.raw_krylov_charpoly``, which acts on the raw Krylov
vectors instead of the residues;
the byte-block ``ModMatrix.transpose`` against ``support.bitwise_transpose``,
the row-tag left ``kernel`` against ``support.bitsliced_kernel`` and
``support.reference_kernel`` of the transpose, the incremental
``Subspace`` against column-by-column Gauss-Jordan elimination, the
reduction loop ``_chase`` against ``Subspace`` and, on a reduced basis,
against ``support.single_pass_reduce``, and ``spin`` and
``ModMatrix.inverse``, which store residues, against ``support.eager_spin``
and ``support.eager_inverse``, which back-reduce at every insert.
"""

import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from heartlab.linalg import ModMatrix, Subspace, _chase, charpoly, kernel, spin
from heartlab.perms import from_cycles
from heartlab.reps import _random_algebra_element, heart
from heartlab.rng import SplitMix64
from heartlab.zoo import build_group, parse_group_spec, symmetric_generators
from support import (
    bitwise_transpose,
    eager_inverse,
    eager_spin,
    entry,
    left_kernels,
    matrix_from_entries,
    permutation_matrix,
    rank,
    raw_krylov_charpoly,
    reference_kernel,
    single_pass_reduce,
    spin_and_acted_rows,
)


def random_matrix(rng, rows, cols):
    return matrix_from_entries([[rng.randrange(2) for _ in range(cols)] for _ in range(rows)])


def hessenberg_charpoly(matrix: ModMatrix) -> list[int]:
    """Charpoly over F_2, constant term first: reduce to upper Hessenberg form
    by similarity transforms, then expand the determinant recurrence on the
    leading principal minors (every pivot is 1 and every sign + over F_2)."""
    n = matrix.nrows
    if n == 0:
        return [1]
    h = [[entry(matrix, i, j) for j in range(n)] for i in range(n)]
    for col in range(n - 2):
        pivot = None
        for row in range(col + 1, n):
            if h[row][col]:
                pivot = row
                break
        if pivot is None:
            continue
        if pivot != col + 1:
            h[col + 1], h[pivot] = h[pivot], h[col + 1]
            for r in h:
                r[col + 1], r[pivot] = r[pivot], r[col + 1]
        hc = h[col + 1]
        for row in range(col + 2, n):
            if not h[row][col]:
                continue
            h[row] = [a ^ b for a, b in zip(h[row], hc)]
            # paired column operation keeping the transform a similarity
            for rr in h:
                rr[col + 1] ^= rr[row]
    # p_k = (x + h[k-1][k-1]) p_{k-1} + sum_i (prod subdiag) h[i-1][k-1] p_{i-1}
    polys = [[1]]
    for k in range(1, n + 1):
        prev = polys[k - 1]
        term = [0] + prev
        if h[k - 1][k - 1]:
            for idx in range(len(prev)):
                term[idx] ^= prev[idx]
        for i in range(k - 1, 0, -1):
            if not h[i][i - 1]:
                break  # the subdiagonal product is 0 from here on
            if not h[i - 1][k - 1]:
                continue
            pi = polys[i - 1]
            for idx in range(len(pi)):
                term[idx] ^= pi[idx]
        polys.append(term)
    return polys[n]


def sparse_matrix(rng, rows, cols, density):
    return ModMatrix(
        rows, cols, [sum(1 << j for j in range(cols) if rng.random() < density) for _ in range(rows)]
    )


def gauss_jordan(vectors, ncols):
    """Reduced-echelon rows by pivoting on each column in turn, lowest first."""
    rows = [v for v in vectors if v]
    basis = []
    for col in range(ncols):
        bit = 1 << col
        pivot = next((r for r in rows if r & bit), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows = [r ^ pivot if r & bit else r for r in rows]
        basis = [b ^ pivot if b & bit else b for b in basis]
        basis.append(pivot)
    return basis


def companion(coeffs):
    """Companion matrix of the monic x^n + sum c_i x^i (coeffs = c_0..c_{n-1}):
    e_i -> e_{i+1}, e_{n-1} -> sum c_i e_i, so its charpoly is that polynomial."""
    n = len(coeffs)
    last = sum(c << i for i, c in enumerate(coeffs))
    return ModMatrix(n, n, [1 << (i + 1) for i in range(n - 1)] + [last])


def block_diagonal(blocks):
    rows, offset = [], 0
    for b in blocks:
        rows += [r << offset for r in b.rows]
        offset += b.nrows
    return ModMatrix(offset, offset, rows)


@st.composite
def square_matrices(draw):
    """Square matrices of size 0-40: dense ones, and block-diagonal ones with
    repeated blocks, conjugated by a unit upper triangular matrix.  A repeated
    block splits the Krylov chain into several cyclic blocks, and after the
    conjugation a later block's residue carries earlier-block tags."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 40))
        return ModMatrix(n, n, draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
    pieces = []
    for size in draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)):
        rows = draw(st.lists(st.integers(0, (1 << size) - 1), min_size=size, max_size=size))
        pieces.append(ModMatrix(size, size, rows))
    order = draw(st.lists(st.integers(0, len(pieces) - 1), min_size=1, max_size=8))
    blocks = []
    for k in order:
        if sum(b.nrows for b in blocks) + pieces[k].nrows <= 40:
            blocks.append(pieces[k])
    m = block_diagonal(blocks)
    n = m.nrows
    if draw(st.booleans()):
        upper = [(1 << i) | draw(st.integers(0, (1 << n) - 1)) >> (i + 1) << (i + 1) for i in range(n)]
        change = ModMatrix(n, n, upper)
        m = change * m * change.inverse()
    return m


class TestRankKernelSolve:
    def test_identity(self):
        m = ModMatrix.identity(5)
        assert rank(m) == 5
        assert kernel(m).dimension == 0

    def test_all_ones(self):
        m = matrix_from_entries([[1] * 4] * 4)
        assert rank(m) == 1
        assert kernel(m).dimension == 3

    def test_rank_plus_nullity(self):
        rng = random.Random(5)
        for _ in range(60):
            rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
            m = random_matrix(rng, rows, cols)
            assert rank(m) + kernel(m.transpose()).dimension == cols

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
            for v in kernel(m.transpose()).basis:
                # v is a length-ncols row vector with M v = 0
                for i in range(m.nrows):
                    acc = 0
                    for j in range(m.ncols):
                        acc ^= entry(m, i, j) & ((v >> j) & 1)
                    assert acc == 0

    @pytest.mark.parametrize("density", [0.02, 0.1, 0.5])
    def test_kernel_matches_reference_kernel(self, density):
        rng = random.Random(int(density * 100))
        for _ in range(1000):
            m = sparse_matrix(rng, rng.randrange(41), rng.randrange(41), density)
            got, want = kernel(m.transpose()), reference_kernel(m)
            assert (got.ambient, got.basis, got.pivots) == (want.ambient, want.basis, want.pivots)

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
            matrix_from_entries([[1, 1], [1, 1]]).inverse()

    def test_is_scalar_degenerate_sizes(self):
        assert ModMatrix.identity(0).is_scalar()
        assert ModMatrix.zeros(0, 0).is_scalar()
        assert ModMatrix.identity(1).is_scalar()
        assert ModMatrix.zeros(1, 1).is_scalar()
        assert not matrix_from_entries([[0, 1], [0, 0]]).is_scalar()
        assert not ModMatrix.zeros(1, 2).is_scalar()


# the byte and word edges of the byte-block transpose
EDGE_SIZES = (0, 7, 8, 9, 63, 64, 65)


@st.composite
def edge_shaped_matrices(draw):
    """Matrices of 0-70 rows and columns, each often an edge size, from
    empty to full."""
    size = st.one_of(st.sampled_from(EDGE_SIZES), st.integers(0, 70))
    nrows, ncols = draw(size), draw(size)
    density = draw(st.sampled_from((0.0, 0.02, 0.2, 0.5, 0.9, 1.0)))
    return sparse_matrix(random.Random(draw(st.integers(0, 2**32 - 1))), nrows, ncols, density)


def reduced_echelon_matrix(rng, nrows, ncols):
    """A reduced echelon matrix of about ``nrows`` rows, the form of the End
    conditions and of a dual witness."""
    space = Subspace.from_vectors(ncols, [rng.getrandbits(ncols) for _ in range(nrows)])
    return ModMatrix(space.dimension, ncols, space.basis)


def footprint(matrix):
    return sys.getsizeof(matrix.rows) + sum(sys.getsizeof(r) for r in matrix.rows)


class TestByteBlockTranspose:
    """``ModMatrix.transpose`` by byte blocks and delta swaps against the
    per-bit ``support.bitwise_transpose``."""

    @settings(max_examples=500, deadline=None)
    @given(edge_shaped_matrices())
    def test_matches_bitwise_transpose(self, m):
        t = m.transpose()
        assert (t.nrows, t.ncols) == (m.ncols, m.nrows)
        assert t == bitwise_transpose(m)
        assert t.transpose() == m

    @pytest.mark.parametrize(
        "nrows,ncols",
        [(299, 300), (94, 96), (19, 20), (1, 272), (81, 272), (191, 272), (271, 272)],
    )
    def test_matches_bitwise_transpose_on_end_and_complement_shapes(self, nrows, ncols):
        # the End conditions (rank x unknowns) and the dual witnesses whose
        # orthogonal complement the MeatAxe takes (dimension x d)
        m = reduced_echelon_matrix(random.Random(nrows), nrows, ncols)
        assert m.transpose() == bitwise_transpose(m)

    def test_matches_bitwise_transpose_on_seed_slices(self):
        # the End solve's symbolic seed images: d unit rows at an offset of
        # the s * d unknowns
        for d, seeds, k in ((20, 1, 0), (22, 3, 1), (30, 3, 2)):
            m = ModMatrix(d, seeds * d, ModMatrix.identity(seeds * d).rows[k * d : (k + 1) * d])
            assert m.transpose() == bitwise_transpose(m)

    @pytest.mark.parametrize("nrows,ncols,dense", [(1, 50_000, False), (50_000, 1, False), (600, 600, True)])
    def test_memory_is_linear_in_the_matrix(self, nrows, ncols, dense):
        rng = random.Random(ncols)
        rows = [(1 << ncols) - 1 if dense else rng.getrandbits(ncols) for _ in range(nrows)]
        m = ModMatrix(nrows, ncols, rows)
        tracemalloc.start()
        try:
            t = m.transpose()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t == bitwise_transpose(m)
        # no power-of-two square padding: that would hold 50,000^2 bits
        assert peak < 5 * (footprint(m) + footprint(t))


@st.composite
def kernel_inputs(draw):
    """Matrices of 0-40 rows and columns: zero, sparse, dense, and of full
    rank (independent rows with distinct lowest set bits, or the transpose)."""
    nrows, ncols = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("zero", "sparse", "dense", "full rank")))
    if kind != "full rank":
        return sparse_matrix(rng, nrows, ncols, {"zero": 0.0, "sparse": 0.1, "dense": 0.5}[kind])
    short, long = sorted((nrows, ncols))
    rows = [(1 << p) | (rng.getrandbits(long) >> (p + 1) << (p + 1)) for p in rng.sample(range(long), short)]
    m = ModMatrix(short, long, rows)
    return m if nrows <= ncols else bitwise_transpose(m)


class TestLeftKernel:
    """``kernel(M)``, the left kernel by row tags, against the right kernel
    of the transpose by bit-sliced back-substitution and by a fully reduced
    echelon."""

    @settings(max_examples=500, deadline=None)
    @given(kernel_inputs())
    def test_matches_right_kernel_oracles_of_the_transpose(self, m):
        got, bitsliced, reference = left_kernels(m)
        assert got == bitsliced == reference
        assert got[0] == m.nrows
        assert all(m.act(v) == 0 for v in got[1])

    @pytest.mark.parametrize(
        "m",
        [
            ModMatrix(0, 0, []),
            ModMatrix(0, 5, []),
            ModMatrix(5, 0, [0] * 5),
            ModMatrix.zeros(4, 6),
            ModMatrix.identity(7),
            ModMatrix(3, 9, [0b111, 0b111000, 0b111111]),
        ],
        ids=["0x0", "0x5", "5x0", "zero", "identity", "dependent"],
    )
    def test_matches_right_kernel_oracles_on_edge_cases(self, m):
        got, bitsliced, reference = left_kernels(m)
        assert got == bitsliced == reference
        assert len(got[1]) == m.nrows - rank(m)


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


class TestEchelon:
    @pytest.mark.parametrize("ncols", [1, 5, 16, 40])
    def test_invariants_after_every_insert(self, ncols):
        rng = random.Random(ncols)
        for _ in range(40):
            ech = Subspace(ncols)
            inserted = []
            for _ in range(rng.randrange(2 * ncols + 1)):
                # every third vector a sum of earlier ones, so dependent
                if inserted and rng.randrange(3) == 0:
                    v = 0
                    for u in rng.sample(inserted, rng.randrange(1, len(inserted) + 1)):
                        v ^= u
                else:
                    v = rng.randrange(1 << ncols)
                before = ech.dimension
                pivot = ech.insert(v)
                inserted.append(v)
                if pivot is None:
                    assert ech.dimension == before
                else:
                    assert ech.dimension == before + 1
                    row = ech.rows[pivot]
                    assert row & -row == 1 << pivot
                for p, row in ech.rows.items():
                    assert row & -row == 1 << p
                    assert sum(1 for r in ech.rows.values() if r >> p & 1) == 1
                assert ech.basis == Subspace.from_vectors(ncols, inserted).basis
                assert ech.basis == gauss_jordan(inserted, ncols)


@st.composite
def vector_lists(draw):
    ncols = draw(st.integers(0, 24))
    vectors = draw(st.lists(st.integers(0, (1 << ncols) - 1), max_size=2 * ncols + 2))
    return ncols, vectors


class CountingDict(dict):
    """A dict that logs the key of every read of an item."""

    def __init__(self, rows):
        super().__init__(rows)
        self.reads = []

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)


class TestChase:
    @settings(max_examples=300, deadline=None)
    @given(vector_lists())
    def test_keys_rank_and_membership(self, case):
        ncols, vectors = case
        rows: dict = {}
        mask = 0
        for v in vectors:
            r = _chase(rows, mask, v)
            assert not r & mask
            if r:
                rows[(r & -r).bit_length() - 1] = r
                mask |= r & -r
        for key, row in rows.items():
            assert row & -row == 1 << key
        assert len(rows) == Subspace.from_vectors(ncols, vectors).dimension
        stored = dict(rows)
        for v in vectors:
            assert _chase(rows, mask, v) == 0
        assert rows == stored

    @settings(max_examples=300, deadline=None)
    @given(vector_lists())
    def test_masked_rows_carry_their_combination(self, case):
        # the kernel and charpoly use: tag bit ncols + k marks the k-th
        # vector, and only keys among the low ncols bits are chased
        ncols, vectors = case
        low = (1 << ncols) - 1
        rows: dict = {}
        mask = 0
        for k, v in enumerate(vectors):
            r = _chase(rows, mask, v | (1 << (ncols + k)))
            combination = 0
            for j, u in enumerate(vectors):
                if r >> (ncols + j) & 1:
                    combination ^= u
            assert r & low == combination
            if r & low:
                rows[(r & -r).bit_length() - 1] = r
                mask |= r & -r
        assert all(row & -row == 1 << key and key < ncols for key, row in rows.items())
        assert len(rows) == Subspace.from_vectors(ncols, vectors).dimension

    @settings(max_examples=300, deadline=None)
    @given(vector_lists(), st.integers(0, (1 << 24) - 1))
    def test_reduced_basis_reads_one_row_per_pivot_hit(self, case, v):
        # Subspace.reduce is a chase over a mutually reduced basis: it reads
        # the row of each pivot hit of v once, lowest first, as the single
        # pass did, and returns the same residue
        ncols, vectors = case
        v &= (1 << ncols) - 1
        space = Subspace.from_vectors(ncols, vectors)
        rows = CountingDict(space.rows)
        residue = single_pass_reduce(space, v)
        assert _chase(rows, space._pivot_mask, v) == residue
        assert len(rows.reads) == (v & space._pivot_mask).bit_count()
        assert rows.reads == [p for p in space.pivots if v >> p & 1]
        assert space.reduce(v) == residue


class TestSpin:
    def test_single_seed_identity_action(self):
        sub = spin([0b1], [ModMatrix.identity(4)], 4)
        assert sub.dimension == 1

    def test_constants_line_is_stable(self):
        actions = [permutation_matrix(g) for g in symmetric_generators(6)]
        sub = spin([0b111111], actions, 6)
        assert sub.dimension == 1

    def test_sum_zero_hyperplane_from_pair(self):
        actions = [permutation_matrix(g) for g in symmetric_generators(5)]
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
        actions = [permutation_matrix(g) for g in symmetric_generators(7)]
        seeds = [rng.randrange(1, 2**7) for _ in range(3)]
        sub = spin(seeds, actions, 7)
        for v in sub.basis:
            for a in actions:
                assert sub.contains(a.act(v))
        again = spin(list(sub.basis), actions, 7)
        assert again == sub

    @pytest.mark.parametrize("seed", [-1, -0b101, 1 << 4, 0b10011, 1 << 70])
    def test_seed_outside_ambient_rejected(self, seed):
        # an out-of-range bit would add a pivot and stop the spin one vector early
        actions = [permutation_matrix(g) for g in symmetric_generators(4)]
        with pytest.raises(ValueError, match="F_2\\^ambient"):
            spin([0b0011, seed], actions, 4)


@st.composite
def spin_inputs(draw):
    """1-3 square actions of size 0-40, each dense, triangular (so with
    proper invariant subspaces) or one bit a row, and 1-6 seeds among which
    zero, repeated and dependent vectors."""
    n = draw(st.integers(0, 40))
    vector = st.integers(0, (1 << n) - 1)
    actions = []
    for _ in range(draw(st.integers(1, 3))):
        rows = draw(st.lists(vector, min_size=n, max_size=n))
        shape = draw(st.sampled_from(["dense", "upper", "lower", "one bit"]))
        if shape == "upper":
            rows = [r >> i << i for i, r in enumerate(rows)]
        elif shape == "lower":
            rows = [r & ((2 << i) - 1) for i, r in enumerate(rows)]
        elif shape == "one bit":
            rows = [1 << (r % n) for r in rows]
        actions.append(ModMatrix(n, n, rows))
    seeds = []
    for kind in draw(st.lists(st.sampled_from(["new", "zero", "repeat", "sum"]), min_size=1, max_size=6)):
        if kind == "zero":
            seeds.append(0)
        elif kind == "new" or not seeds:
            seeds.append(draw(vector))
        elif kind == "repeat":
            seeds.append(draw(st.sampled_from(seeds)))
        else:
            seeds.append(draw(st.sampled_from(seeds)) ^ draw(st.sampled_from(seeds)))
    return seeds, actions, n


def invertible_matrix(rng, n, density):
    """L.U.P with L and U unit triangular and each off-diagonal entry set with
    probability ``density``, so invertible and as sparse as asked."""
    lower = ModMatrix(n, n, [(1 << i) | sparse_matrix(rng, 1, i, density).rows[0] for i in range(n)])
    upper = ModMatrix(
        n, n, [(1 << i) | sparse_matrix(rng, 1, n, density).rows[0] >> (i + 1) << (i + 1) for i in range(n)]
    )
    points = list(range(n))
    rng.shuffle(points)
    return lower * upper * ModMatrix(n, n, [1 << j for j in points])


class TestResidueSpinAndInverse:
    """``spin`` and ``ModMatrix.inverse`` store residues and reduce a row in
    full only when it is read; the eager oracles back-reduce every stored
    row at every insert.  Both must give the same basis, pivots and rows
    acted on, and the same inverse."""

    @settings(max_examples=400, deadline=None)
    @given(spin_inputs())
    def test_spin_matches_eager_spin(self, inputs):
        seeds, actions, n = inputs
        got, got_acted = spin_and_acted_rows(spin, seeds, actions, n)
        want, want_acted = spin_and_acted_rows(eager_spin, seeds, actions, n)
        assert (got.basis, got.pivots, got.dimension) == (want.basis, want.pivots, want.dimension)
        assert got_acted == want_acted
        assert got == Subspace.from_vectors(n, got.basis)

    @pytest.mark.parametrize("density", [0.03, 0.2, 0.5])
    def test_inverse_matches_eager_inverse(self, density):
        rng = random.Random(int(density * 100))
        for n in [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 64] + [rng.randrange(65) for _ in range(20)]:
            m = invertible_matrix(rng, n, density)
            assert m.inverse() == eager_inverse(m)
            assert (m * m.inverse()).is_identity()

    def test_inverse_of_random_matrices_matches_eager_inverse(self):
        # dense uniform matrices: about 29 % invertible, the rest must raise
        rng = random.Random(17)
        counts = {True: 0, False: 0}
        for _ in range(300):
            m = random_matrix(rng, *(2 * [rng.randrange(1, 65)]))
            try:
                want = eager_inverse(m)
            except ValueError:
                with pytest.raises(ValueError, match="singular"):
                    m.inverse()
                counts[False] += 1
                continue
            assert m.inverse() == want
            counts[True] += 1
        assert min(counts.values()) >= 30

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 64])
    def test_singular_matrices_raise(self, n):
        rng = random.Random(n)
        m = invertible_matrix(rng, n, 0.2)
        i = rng.randrange(n)
        rows = list(m.rows)
        rows[i] = 0 if n == 1 else rows[(i + 1) % n] ^ (rows[(i + 2) % n] if n > 2 else 0)
        singular = ModMatrix(n, n, rows)
        for invert in (eager_inverse, ModMatrix.inverse):
            with pytest.raises(ValueError, match="singular"):
                invert(singular)


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
                    polyadd([entry(m, i, j)], [0, 1] if i == j else [0])
                    for j in range(n)
                ]
                for i in range(n)
            ]
            expected = det(entries)
            expected += [0] * (n + 1 - len(expected))
            assert charpoly(m) == expected

    def test_krylov_matches_hessenberg_random(self):
        rng = random.Random(31)
        for n in range(65):
            for _ in range(3 if n <= 16 else 1):
                m = random_matrix(rng, n, n)
                assert charpoly(m) == hessenberg_charpoly(m)

    def test_krylov_matches_hessenberg_structured(self):
        rng = random.Random(37)
        cases = []
        for n in (0, 1, 2, 5, 17, 40):
            cases += [ModMatrix.zeros(n, n), ModMatrix.identity(n)]
            # strictly upper triangular: nilpotent, charpoly x^n
            cases.append(ModMatrix(n, n, [rng.randrange(2**n) >> (i + 1) << (i + 1) for i in range(n)]))
        for n in (3, 8, 24, 33):
            perm = list(range(n))
            rng.shuffle(perm)
            cases.append(ModMatrix(n, n, [1 << perm[i] for i in range(n)]))
        for coeffs in ([1], [0, 1], [1, 1, 0, 1], [rng.randrange(2) for _ in range(30)]):
            m = companion(coeffs)
            assert charpoly(m) == coeffs + [1]
            cases.append(m)
        for m in cases:
            assert len(charpoly(m)) == m.nrows + 1
            assert charpoly(m) == hessenberg_charpoly(m)
        assert charpoly(ModMatrix.zeros(6, 6)) == [0] * 6 + [1]

    def test_krylov_matches_hessenberg_repeated_blocks(self):
        # repeated diagonal blocks give several cyclic blocks whose
        # polynomials are multiplied together
        rng = random.Random(41)
        pieces = [
            ModMatrix.identity(1),
            ModMatrix.zeros(1, 1),
            companion([1, 1]),
            companion([1, 0, 1]),
            random_matrix(rng, 3, 3),
            random_matrix(rng, 4, 4),
        ]
        for _ in range(40):
            blocks = [rng.choice(pieces) for _ in range(rng.randrange(1, 7))]
            blocks += blocks[: rng.randrange(len(blocks) + 1)]
            rng.shuffle(blocks)
            m = block_diagonal(blocks)
            assert charpoly(m) == hessenberg_charpoly(m)

    @settings(max_examples=300, deadline=None)
    @given(square_matrices())
    def test_residue_krylov_matches_raw_krylov(self, m):
        assert charpoly(m) == raw_krylov_charpoly(m)

    @pytest.mark.parametrize("name", ["M24", "PSL(3,4)"])
    def test_krylov_matches_hessenberg_meataxe_elements(self, name):
        images = heart(build_group(parse_group_spec(name))).images
        rng = SplitMix64(5)
        for attempt in range(1, 21):
            theta = _random_algebra_element(images, rng, attempt)
            assert charpoly(theta) == hessenberg_charpoly(theta)
