"""Exact dense linear algebra over F_2, rows as int bitsets.

A row vector is a plain Python int used as a bitset (bit j = column j), so a
row operation is a single word-level XOR.  Echelon forms are fully reduced
(pivot entries 1, zeros above and below), which makes subspace equality plain
representation equality.
"""

from __future__ import annotations


def _low_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


class _Echelon:
    """Incremental reduced-echelon row basis.

    Rows are kept mutually reduced: a pivot column has a 1 in its own row and
    zeros in every other basis row, so reducing an incoming vector is a single
    pass over the pivot table in any order.
    """

    def __init__(self):
        self.rows: dict[int, int] = {}  # pivot column -> reduced row
        self._pivot_mask = 0  # union of pivot bits

    def reduce(self, v: int) -> int:
        """Residue of v modulo the current row space."""
        # mutual reduction means each basis row carries no foreign pivot bits,
        # so one pass over the actual pivot hits suffices
        hits = v & self._pivot_mask
        rows = self.rows
        while hits:
            low = (hits & -hits).bit_length() - 1
            hits &= hits - 1
            v ^= rows[low]
        return v

    def insert(self, v: int) -> int | None:
        """Reduce v and add the residue to the basis.

        Returns the new pivot column, or None if v was dependent.
        """
        v = self.reduce(v)
        if v == 0:
            return None
        pivot = _low_bit(v)
        bit = 1 << pivot
        for p in list(self.rows):
            if self.rows[p] & bit:
                self.rows[p] ^= v
        self._pivot_mask |= bit
        self.rows[pivot] = v
        return pivot

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def basis_rows(self) -> list[int]:
        return [self.rows[p] for p in sorted(self.rows)]

    @property
    def dimension(self) -> int:
        return len(self.rows)


class Subspace:
    """A subspace of F_2^ambient held as a reduced-echelon row basis."""

    def __init__(self, ambient: int, echelon: _Echelon):
        self.ambient = ambient
        self._echelon = echelon
        self.basis = echelon.basis_rows()
        self.pivots = sorted(echelon.rows)

    @classmethod
    def from_vectors(cls, ambient: int, vectors) -> "Subspace":
        ech = _Echelon()
        for v in vectors:
            ech.insert(v)
        return cls(ambient, ech)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def contains(self, v: int) -> bool:
        return self._echelon.contains(v)

    def is_proper_nonzero(self) -> bool:
        return 0 < self.dimension < self.ambient

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and (self.ambient, self.basis) == (other.ambient, other.basis)
        )

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dimension}, ambient={self.ambient})"


class ModMatrix:
    """Dense matrix over F_2; row i is an int bitset of its entries."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: list[int]):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def from_entries(cls, entries) -> "ModMatrix":
        entries = [list(r) for r in entries]
        nrows = len(entries)
        ncols = len(entries[0]) if entries else 0
        if any(len(r) != ncols for r in entries):
            raise ValueError("ragged rows")
        rows = [sum((e & 1) << j for j, e in enumerate(r)) for r in entries]
        return cls(nrows, ncols, rows)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "ModMatrix":
        return cls(nrows, ncols, [0] * nrows)

    @classmethod
    def identity(cls, n: int) -> "ModMatrix":
        return cls(n, n, [1 << i for i in range(n)])

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

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
            k = _low_bit(v)
            v &= v - 1
            acc ^= rows[k]
        return acc

    def transpose(self) -> "ModMatrix":
        rows = [0] * self.ncols
        for i, r in enumerate(self.rows):
            while r:
                j = _low_bit(r)
                r &= r - 1
                rows[j] |= 1 << i
        return ModMatrix(self.ncols, self.nrows, rows)

    def is_zero(self) -> bool:
        return not any(self.rows)

    def is_identity(self) -> bool:
        return self.nrows == self.ncols and self.rows == ModMatrix.identity(self.nrows).rows

    def is_scalar(self) -> bool:
        """Over F_2 the scalar matrices are zero and the identity."""
        return self.nrows == self.ncols and (self.is_zero() or self.is_identity())

    def inverse(self) -> "ModMatrix":
        """Exact inverse via row reduction of [M | I]; raises if singular."""
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        ech = _Echelon()
        for i in range(n):
            ech.insert(self.rows[i] | (1 << (n + i)))
        mask = (1 << n) - 1
        if any(ech.rows.get(i, 0) & mask != (1 << i) for i in range(n)):
            raise ValueError("matrix is singular")
        return ModMatrix(n, n, [ech.rows[i] >> n for i in range(n)])

    def __repr__(self) -> str:
        return f"ModMatrix({self.nrows}x{self.ncols})"


def rank(matrix: ModMatrix) -> int:
    ech = _Echelon()
    for r in matrix.rows:
        ech.insert(r)
    return ech.dimension


def kernel(matrix: ModMatrix) -> Subspace:
    """Right kernel {x : M x = 0} as row vectors of length ncols."""
    ech = _Echelon()
    for r in matrix.rows:
        ech.insert(r)
    vectors = []
    for free in range(matrix.ncols):
        if free in ech.rows:
            continue
        v = 1 << free
        for p, row in ech.rows.items():
            if (row >> free) & 1:
                v |= 1 << p
        vectors.append(v)
    return Subspace.from_vectors(matrix.ncols, vectors)


def solve(matrix: ModMatrix, rhs) -> int | None:
    """Any x with M x = rhs, or None if inconsistent.

    rhs is a bitset of length nrows, or a sequence of nrows bits.
    """
    n, c = matrix.nrows, matrix.ncols
    if isinstance(rhs, (list, tuple)):
        rhs = sum((int(b) & 1) << i for i, b in enumerate(rhs))
    ech = _Echelon()
    for i in range(n):
        ech.insert(matrix.rows[i] | (((rhs >> i) & 1) << c))
    if c in ech.rows:
        return None
    x = 0
    for p, row in ech.rows.items():
        if (row >> c) & 1:
            x |= 1 << p
    return x


def spin(seed_vectors, actions: list[ModMatrix], ambient: int) -> Subspace:
    """Smallest subspace containing the seeds and closed under every action.

    Worklist closure: each newly independent residue is queued and hit with
    every action; candidates are sifted against the current echelon basis
    before insertion.
    """
    for a in actions:
        if a.nrows != a.ncols or a.nrows != ambient:
            raise ValueError("actions must be square of the ambient dimension")
    ech = _Echelon()
    worklist = []
    for v in seed_vectors:
        pivot = ech.insert(v)
        if pivot is not None:
            worklist.append(ech.rows[pivot])
    head = 0
    while head < len(worklist):
        v = worklist[head]
        head += 1
        for a in actions:
            pivot = ech.insert(a.act(v))
            if pivot is not None:
                worklist.append(ech.rows[pivot])
    return Subspace(ambient, ech)


def charpoly(matrix: ModMatrix) -> list[int]:
    """Characteristic polynomial coefficients over F_2, constant term first.

    Reduces to upper Hessenberg form by exact similarity transforms, then
    expands the determinant recurrence on leading principal minors.  Over F_2
    every pivot is 1 and every sign is +, so the arithmetic is XOR and AND.
    """
    if matrix.nrows != matrix.ncols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = matrix.nrows
    if n == 0:
        return [1]
    h = [[matrix.entry(i, j) for j in range(n)] for i in range(n)]
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
    # determinant recurrence for Hessenberg matrices: p_k = charpoly of leading k x k block
    polys = [[1]]  # p_0 = 1
    for k in range(1, n + 1):
        # p_k = (x + h[k-1][k-1]) p_{k-1} + sum_i (prod subdiag) h[i-1][k-1] p_{i-1}
        prev = polys[k - 1]
        term = [0] + prev  # x * p_{k-1}
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
