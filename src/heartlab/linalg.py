"""Exact dense linear algebra over F_2, rows as int bitsets.

A row vector is a plain Python int used as a bitset (bit j = column j), so a
row operation is a single word-level XOR.  Every vector is reduced by one
loop, ``_chase``: each bit of the vector under a mask of keys is cleared,
lowest first, by the row keyed by that bit.  It serves two elimination
forms:

- ``Subspace``, the fully reduced echelon form (pivot entries 1, zeros above
  and below), which makes subspace equality plain representation equality;
  its rows are mutually reduced, so a chase reads one row per pivot hit.
- Residues keyed by their lowest set bit, no other row touched at an insert,
  in ``spin``, ``ModMatrix.inverse``, ``kernel`` and ``charpoly``.  The last
  two chase rows that carry tag bits above the columns: ``kernel`` is the
  left kernel {v : v.M = 0}, the orientation of ``ModMatrix.act``, read off
  the tags of the rows that vanish, and ``charpoly`` reads only each Krylov
  block's relation.

``ModMatrix.transpose`` moves 8 x 8 bit blocks, so its Python steps follow
the shape of the matrix, not its ones.

``ModMatrix.act`` costs one step per set bit of the vector acted on, so
``spin`` and ``charpoly`` act on echelon rows, not on raw vectors:

- ``spin`` stores each new vector as its residue and leaves the other rows
  alone; a queued row is reduced in full only at its turn, when it is the
  row an eagerly back-reduced basis would hold, so the rows acted on and the
  closure are unchanged.  ``ModMatrix.inverse`` stores residues alike.
- ``charpoly`` acts on the low part of the residue just inserted and carries
  its current-block tags one power up.  That candidate equals the next raw
  Krylov vector, tagged alike, modulo the span of the earlier blocks, which
  is invariant under the matrix, so every block relation is unchanged.
"""

from __future__ import annotations

from .fppoly import clmul


class Subspace:
    """A subspace of F_2^ambient held as an incremental reduced-echelon basis.

    Rows are kept mutually reduced: a pivot column has a 1 in its own row and
    zeros in every other basis row, so a chase reads each row at most once.
    """

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.rows: dict[int, int] = {}  # pivot column -> reduced row
        self._pivot_mask = 0  # union of pivot bits

    @classmethod
    def from_vectors(cls, ambient: int, vectors) -> "Subspace":
        space = cls(ambient)
        for v in vectors:
            space.insert(v)
        return space

    def reduce(self, v: int) -> int:
        """Residue of v modulo the current row space: a ``_chase``, which
        reads one row per pivot hit of v, since no row carries another
        pivot bit."""
        return _chase(self.rows, self._pivot_mask, v)

    def insert(self, v: int) -> int | None:
        """Reduce v and add the residue to the basis.

        Returns the new pivot column, or None if v was dependent.
        """
        v = self.reduce(v)
        if v == 0:
            return None
        bit = v & -v
        pivot = bit.bit_length() - 1
        rows = self.rows
        for p, r in rows.items():  # value stores only: the dict keeps its size
            if r & bit:
                rows[p] = r ^ v
        self._pivot_mask |= bit
        rows[pivot] = v
        return pivot

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    @property
    def pivots(self) -> list[int]:
        return sorted(self.rows)

    @property
    def basis(self) -> list[int]:
        return [self.rows[p] for p in self.pivots]

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def is_proper_nonzero(self) -> bool:
        return 0 < self.dimension < self.ambient

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and (self.ambient, self.basis) == (other.ambient, other.basis)
        )

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dimension}, ambient={self.ambient})"


def _chase(rows: dict[int, int], mask: int, v: int) -> int:
    """v with every bit under ``mask``, a union of keys of ``rows``,
    cleared, lowest hit first, by the row keyed by that bit: the one
    reduction loop of this module.  A stored row has no set bit below its
    key, so each step changes only bits above the hit and the chase ends; a
    row with no other key bit, as in a ``Subspace``, is read once per hit."""
    hits = v & mask
    while hits:
        v ^= rows[(hits & -hits).bit_length() - 1]
        hits = v & mask
    return v


def _residue(rows: dict[int, int], mask: int, v: int) -> int:
    """``_chase`` of v, once the row of its lowest hit is stored back reduced
    in full: in a Krylov-like spin (an A_n heart) most chases read that row,
    and a stale copy would make each of them repeat its cascade."""
    hits = v & mask
    if not hits:
        return v
    low = hits & -hits
    p = low.bit_length() - 1
    row = rows[p] = _chase(rows, mask ^ low, rows[p])
    return _chase(rows, mask, v ^ row)


def _back_reduce(rows: dict[int, int], mask: int) -> None:
    """Reduce ``rows`` in full, highest key first: each chase then reads only
    rows that already are, so it XORs each hit once."""
    for p in sorted(rows, reverse=True):
        rows[p] = _chase(rows, mask ^ (1 << p), rows[p])


class ModMatrix:
    """Dense matrix over F_2; row i is an int bitset of its entries."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: list[int]):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "ModMatrix":
        return cls(nrows, ncols, [0] * nrows)

    @classmethod
    def identity(cls, n: int) -> "ModMatrix":
        return cls(n, n, [1 << i for i in range(n)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModMatrix)
            and (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and self.rows == other.rows
        )

    def __add__(self, other: "ModMatrix") -> "ModMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in addition")
        return ModMatrix(self.nrows, self.ncols, [a ^ b for a, b in zip(self.rows, other.rows)])

    def __mul__(self, other: "ModMatrix") -> "ModMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        return ModMatrix(self.nrows, other.ncols, [other.act(r) for r in self.rows])

    def act(self, v: int) -> int:
        """Right action on a row vector: returns v . M (v has length nrows)."""
        acc = 0
        rows = self.rows
        while v:
            low = v & -v
            acc ^= rows[low.bit_length() - 1]
            v ^= low
        return acc

    def transpose(self) -> "ModMatrix":
        """Byte-block transpose (Warren, *Hacker's Delight*, 7-3), whatever
        the density: O(nrows + ncols) Python steps, memory linear in the
        matrix.

        1. Each row becomes ``width`` little-endian bytes, the rows padded
           with zero rows to a multiple of 8; the strided slices
           ``buf[j::width]`` gather byte column j, so every 8 x 8 bit block
           lies in 8 consecutive bytes, bit 8k + c being entry (row k,
           column c) of the block.
        2. Three delta swaps on one int, with masks repeated over its
           length, transpose every block at once.
        3. Byte c of each block now holds column c of the block, so strided
           slices of step 8 over byte column j read out the new rows.
        """
        nrows, ncols = self.nrows, self.ncols
        width = (ncols + 7) // 8  # bytes per row
        height = (nrows + 7) // 8 * 8  # rows padded to whole blocks
        buf = b"".join([r.to_bytes(width, "little") for r in self.rows])
        buf += bytes((height - nrows) * width)
        size = width * height
        x = int.from_bytes(b"".join([buf[j::width] for j in range(width)]), "little")
        del buf
        for shift, pattern in ((7, b"\xaa\x00"), (14, b"\xcc\xcc\x00\x00"), (28, b"\xf0" * 4 + bytes(4))):
            t = ((x >> shift) ^ x) & int.from_bytes(pattern * (size // len(pattern)), "little")
            x ^= t ^ (t << shift)
        out = x.to_bytes(size, "little")
        del x, t
        rows = [
            int.from_bytes(out[j * height + c : (j + 1) * height : 8], "little")
            for j in range(width)
            for c in range(8)
        ]
        del rows[ncols:]
        return ModMatrix(ncols, nrows, rows)

    def is_zero(self) -> bool:
        return not any(self.rows)

    def is_identity(self) -> bool:
        return self.nrows == self.ncols and self.rows == ModMatrix.identity(self.nrows).rows

    def is_scalar(self) -> bool:
        """Over F_2 the scalar matrices are zero and the identity."""
        return self.nrows == self.ncols and (self.is_zero() or self.is_identity())

    def inverse(self) -> "ModMatrix":
        """Exact inverse: the rows of [M | I], the last first, are stored as
        residues, and one ``_back_reduce`` leaves [I | M^-1]; raises if singular."""
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        rows: dict[int, int] = {}
        mask = 0
        for i in range(n - 1, -1, -1):
            r = _residue(rows, mask, self.rows[i] | (1 << (n + i)))  # [M | I]
            bit = r & -r
            if bit >> n:  # no bit left in the M half
                raise ValueError("matrix is singular")
            rows[bit.bit_length() - 1] = r
            mask |= bit
        _back_reduce(rows, mask)
        return ModMatrix(n, n, [rows[i] >> n for i in range(n)])

    def __repr__(self) -> str:
        return f"ModMatrix({self.nrows}x{self.ncols})"


def kernel(matrix: ModMatrix) -> Subspace:
    """Left kernel {v : v.M = 0} as row vectors of length nrows, the
    orientation of ``ModMatrix.act``.

    Row i of M carries the tag bit ncols + i and is ``_chase``d by the rows
    stored so far on their keys, all among the low ncols bits, as in
    ``charpoly``.  A row that keeps a low bit is stored under its lowest.  A
    row whose low part vanishes leaves its tag part, the combination of rows
    of M that sums to 0: a kernel vector, whose highest tag is its own, so
    the vanishing rows give a basis of the kernel.
    ``Subspace.from_vectors`` puts it in reduced-echelon form.
    """
    n = matrix.ncols
    rows: dict[int, int] = {}  # lowest set bit -> residue of a tagged row
    mask = 0  # union of the keys
    vectors = []
    for i, r in enumerate(matrix.rows):
        r = _chase(rows, mask, r | (1 << (n + i)))
        bit = r & -r
        if bit >> n:  # no bit left in the low part
            vectors.append(r >> n)
        else:
            rows[bit.bit_length() - 1] = r
            mask |= bit
    return Subspace.from_vectors(matrix.nrows, vectors)


def spin(seed_vectors, actions: list[ModMatrix], ambient: int) -> Subspace:
    """Smallest subspace containing the seeds and closed under every action.

    Worklist closure: each new vector is stored as its residue under its
    pivot and the pivot is queued; no other row is touched.  At its turn the
    queued row is reduced in full, the row that an eager basis, back-reduced
    at every insert, would hold then, and hit with every action: the rows
    acted on, the pivots and the closure are the eager spin's.  The spin
    stops once the pivots fill the space, even between the actions on one
    row, since a full reduced echelon basis is the identity; a proper
    closure is back-reduced once into its canonical basis.
    """
    for a in actions:
        if a.nrows != a.ncols or a.nrows != ambient:
            raise ValueError("actions must be square of the ambient dimension")
    rows: dict[int, int] = {}  # pivot -> residue as inserted, or row at its turn
    mask = 0  # union of pivot bits
    worklist = []  # pivot bits
    for v in seed_vectors:
        # the early stop counts pivots, so every vector must lie in F_2^ambient
        if v < 0 or v >> ambient:
            raise ValueError("seed vectors must lie in F_2^ambient")
        v = _residue(rows, mask, v)
        if v:
            rows[(v & -v).bit_length() - 1] = v
            mask |= v & -v
            worklist.append(v & -v)
    head = 0
    while head < len(worklist) and len(rows) < ambient:
        bit = worklist[head]
        head += 1
        p = bit.bit_length() - 1
        v = rows[p] = _residue(rows, mask ^ bit, rows[p])  # reduced in full
        for a in actions:
            w = _residue(rows, mask, a.act(v))
            if w:
                bit = w & -w
                rows[bit.bit_length() - 1] = w
                mask |= bit
                worklist.append(bit)
                if len(rows) == ambient:
                    break
    if len(rows) == ambient:
        rows = {i: 1 << i for i in range(ambient)}
    else:
        _back_reduce(rows, mask)
    space = Subspace(ambient)
    space.rows, space._pivot_mask = rows, mask
    return space


def charpoly(matrix: ModMatrix) -> list[int]:
    """Characteristic polynomial coefficients over F_2, constant term first.

    Krylov spinning through a chain of cyclic subspaces (Keller-Gehrig 1985;
    Holt, Eick and O'Brien ch. 7): each standard vector not yet in the span
    is pushed as v, v.M, v.M^2, ..., the k-th Krylov vector carrying the tag
    bit n + k; each push is ``_chase``d on the keys stored so far, all among
    the low n bits, and a residue that keeps a low bit is stored under its
    lowest, as in ``kernel``.  When a push reduces to 0 in the low n bits,
    its tags from the current block on are the block's monic relation, the
    charpoly of M on that cyclic quotient; tags of earlier blocks only
    record vectors already in the earlier span.  The charpoly is the product
    of the block polynomials.

    The next push is not the raw v.M^(k+1) but the residue r just stored
    acted on, (r & low).M, with r's current-block tags shifted one power up.
    Modulo the span of the earlier blocks, which M maps into itself, that is
    the same vector with the same tag polynomial, and ``r >> start`` drops
    the earlier-block tags; so each block relation, and their product, is
    the same polynomial, at a fraction of the bits acted on.
    """
    if matrix.nrows != matrix.ncols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = matrix.nrows
    low = (1 << n) - 1
    rows: dict[int, int] = {}  # lowest set bit -> residue of a tagged push
    mask = 0  # union of the keys
    result = 1
    tag = n
    for i in range(n):
        if len(rows) == n:
            break
        start = tag
        v = (1 << i) | (1 << tag)
        while True:
            r = _chase(rows, mask, v)
            tag += 1
            bit = r & -r
            if bit >> n:  # no bit left in the low part
                break
            rows[bit.bit_length() - 1] = r
            mask |= bit
            # M on the residue, its block's tags one power up
            v = matrix.act(r & low) | ((r >> start) << (start + 1))
        result = clmul(result, r >> start)
    return [(result >> k) & 1 for k in range(n + 1)]
