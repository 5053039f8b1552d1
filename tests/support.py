"""Code the tests build on that the package itself does not need.

- Coefficient-tuple F_p[x] arithmetic: the straightforward algorithms that
  the int paths of ``fppoly`` and ``probe`` are checked against.
- F_2 matrices from entry lists, their entries and rank.
- Permutation matrices and the permutation module, a test input for the
  End solver and the MeatAxe next to the heart.
- The oracles of the MeatAxe steps: ``Subspace.reduce`` as one pass over
  the pivot hits, the right kernel from a fully reduced
  echelon and by bit-sliced back-substitution, the transpose one set bit at
  a time, the spin that drains its whole worklist, the spin and the
  inverse on an eagerly back-reduced ``Subspace`` (and a matrix that logs
  the rows a spin acts on), the Krylov charpoly
  that acts on the raw Krylov vectors, the polynomial evaluated
  at a matrix by right-multiplied Horner, and the MeatAxe that spins every
  kernel vector it meets, also one whose spin filled the space before.
- GF(p^r) on coefficient tuples with ``FieldElement`` objects, canonical
  projective points and the PSL/PGL generator construction over them: the
  oracle that the integer-coded fields of ``fields`` and the generator images
  of ``zoo`` are checked against.
- The deterministic Schreier-Sims chain, the oracle that the known-order
  chain of ``perms`` and the zoo's order formulas are checked against, and
  the base points and basic orbit sizes of a stabilizer chain, skipping the
  levels whose point the stabilizer fixes.
- The evidence of an A_n or S_n audit from stabilizer chains, the
  oracle of the Jordan certificate that the audit reads instead.
- The ``type_sets`` argument of ``probe``, built as the ``probe`` command
  builds it.
- The reader of a fact record's printed selector text, the oracle that the
  record's ``matches`` is checked against.
"""

import itertools
import re
from operator import itemgetter

from heartlab import fppoly, zoo
from heartlab.audit import AuditEvidence
from heartlab.fields import make_field
from heartlab.fppoly import clmul, degree, monic, normalize
from heartlab.linalg import ModMatrix, Subspace, _chase, charpoly, kernel, spin
from heartlab.perms import _StabilizerChain
from heartlab.probe import SAMPLE_BUDGET, group_cycle_types
from heartlab.reps import (
    MEATAXE_ATTEMPT_CAP,
    GModuleRep,
    IrreducibilityVerdict,
    _matrix_poly,
    _orthogonal_complement,
    _random_algebra_element,
    _verify_invariant,
)
from heartlab.rng import SplitMix64
from heartlab.zoo import prime_power_decomposition

# -- F_p[x] on coefficient tuples ----------------------------------------------


def add(f, g, p):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % p
    return normalize(out, p)


def sub(f, g, p):
    out = list(f) + [0] * max(0, len(g) - len(f))
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return normalize(out, p)


def mul(f, g, p):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return normalize(out, p)


def poly_divmod(f, g, p):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    dg = degree(g)
    inv_lead = pow(g[-1], p - 2, p)
    quot = [0] * max(0, len(f) - dg)
    while len(rem) - 1 >= dg and rem:
        c = (rem[-1] * inv_lead) % p
        shift = len(rem) - 1 - dg
        quot[shift] = c
        for i, b in enumerate(g):
            rem[shift + i] = (rem[shift + i] - c * b) % p
        while rem and rem[-1] == 0:
            rem.pop()
    return normalize(quot, p), normalize(rem, p)


def poly_mod(f, g, p):
    return poly_divmod(f, g, p)[1]


def gcd(f, g, p):
    while g:
        f, g = g, poly_mod(f, g, p)
    return monic(f, p)


def derivative(f, p):
    return normalize([(i * c) % p for i, c in enumerate(f)][1:], p)


def pow_mod(base, exponent, modulus, p):
    result = (1,)
    base = poly_mod(base, modulus, p)
    while exponent:
        if exponent & 1:
            result = poly_mod(mul(result, base, p), modulus, p)
        base = poly_mod(mul(base, base, p), modulus, p)
        exponent >>= 1
    return result


def random_poly(max_degree, p, rng):
    """Coefficients drawn from a SplitMix64 stream, constant term first,
    redrawn whole until the degree is at least 1."""
    while True:
        f = normalize([rng.below(p) for _ in range(max_degree + 1)], p)
        if degree(f) >= 1:
            return f


def brute_force_irreducible(f, p):
    d = degree(f)
    for dd in range(1, d // 2 + 1):
        for tail in itertools.product(range(p), repeat=dd):
            if not poly_divmod(f, tail + (1,), p)[1]:
                return False
    return True


def tuple_distinct_degree_split(f, p):
    """distinct_degree_split as one pow_mod per degree on tuples."""
    x = (0, 1)
    f = monic(f, p)
    out = []
    h = poly_mod(x, f, p)
    k = 0
    while degree(f) > 0 and 2 * (k + 1) <= degree(f):
        k += 1
        h = pow_mod(h, p, f, p)
        g = gcd(sub(h, x, p), f, p)
        if degree(g) > 0:
            out.append((k, g))
            f = poly_divmod(f, g, p)[0]
            h = poly_mod(h, f, p)
    if degree(f) > 0:
        out.append((degree(f), f))
    return out


# -- GF(p^r) on coefficient tuples and the projective groups over it -----------


class TupleField:
    """GF(p^r) on coefficient tuples (constant term first), reduced modulo
    the modulus of ``make_field(p, r)``."""

    def __init__(self, p, r):
        self.p = p
        self.r = r
        self.q = p**r
        self.modulus = make_field(p, r).modulus

    def zero(self):
        return FieldElement(self, (0,) * self.r)

    def one(self):
        return FieldElement(self, (1,) + (0,) * (self.r - 1))

    def from_int(self, value):
        """Element with index ``value`` in base-p digit order (constant digit first)."""
        coeffs = []
        for _ in range(self.r):
            coeffs.append(value % self.p)
            value //= self.p
        return FieldElement(self, tuple(coeffs))

    def elements(self):
        return [self.from_int(i) for i in range(self.q)]

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        p, r = self.p, self.r
        prod = [0] * (2 * r - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for k in range(2 * r - 2, r - 1, -1):  # reduce modulo the monic modulus
            c = prod[k]
            prod[k] = 0
            for i in range(r):
                prod[k - r + i] = (prod[k - r + i] - c * self.modulus[i]) % p
        return tuple(prod[:r])

    def inv(self, a):
        if not any(a):
            raise ZeroDivisionError("inversion of zero field element")
        result, base, k = self.one().coeffs, a, self.q - 2  # a^(q-2)
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result


class FieldElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def __add__(self, other):
        return FieldElement(self.field, self.field.add(self.coeffs, other.coeffs))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.coeffs))

    def __mul__(self, other):
        return FieldElement(self.field, self.field.mul(self.coeffs, other.coeffs))

    def inverse(self):
        return FieldElement(self.field, self.field.inv(self.coeffs))

    def is_zero(self):
        return not any(self.coeffs)

    def index(self):
        """Base-p digit encoding; inverse of ``TupleField.from_int``."""
        value = 0
        for c in reversed(self.coeffs):
            value = value * self.field.p + c
        return value

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)


class ProjPoint:
    """Point of P^(m-1)(F_q): coordinates whose first nonzero entry is 1."""

    def __init__(self, coords):
        self.coords = coords

    def key(self):
        return tuple(c.index() for c in self.coords)

    def __eq__(self, other):
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def canonicalize(coords):
    """Scale a nonzero vector so its first nonzero coordinate is 1."""
    pivot = next((c for c in coords if not c.is_zero()), None)
    if pivot is None:
        raise ValueError("cannot canonicalize the zero vector")
    scale = pivot.inverse()
    return ProjPoint(tuple(scale * c for c in coords))


def reference_projective_points(field, m):
    """Every point of P^(m-1)(F_q), sorted by ``ProjPoint.key``."""
    points = []
    for chart in range(m):
        for tail in itertools.product(field.elements(), repeat=m - chart - 1):
            points.append(ProjPoint((field.zero(),) * chart + (field.one(),) + tail))
    points.sort(key=ProjPoint.key)
    return points


def reference_primitive_element(field):
    """The smallest-index element of multiplicative order q - 1, found by
    taking powers of each candidate in turn (O(q^2))."""
    if field.q == 2:
        return field.one()
    for a in field.elements()[2:]:
        order, b = 1, a
        while b != field.one():
            b = b * a
            order += 1
        if order == field.q - 1:
            return a
    raise AssertionError("multiplicative group of a finite field is cyclic")


def reference_linear_generators(m, field, include_pgl):
    """The generator matrices of ``zoo._linear_generators`` over ``FieldElement``."""
    zero, one = field.zero(), field.one()
    omega = reference_primitive_element(field)

    def identity():
        return [[one if i == j else zero for j in range(m)] for i in range(m)]

    mats = []
    scale = one
    for _ in range(field.r):
        transvection = identity()
        transvection[0][1] = scale
        mats.append(transvection)
        scale = scale * omega
    cycle = [[zero] * m for _ in range(m)]
    for i in range(m - 1):
        cycle[i + 1][i] = one
    cycle[0][m - 1] = one if (m - 1) % 2 == 0 else -one
    mats.append(cycle)
    if include_pgl:
        diag = identity()
        diag[0][0] = omega
        mats.append(diag)
    return mats


def reference_projective_generators(m, q, include_pgl):
    """The image lists of the PSL_m(q) (or PGL_m(q)) generators on the points
    of ``reference_projective_points``: every coordinate of every image
    summed and multiplied as a ``FieldElement``, then canonicalized."""
    field = TupleField(*prime_power_decomposition(q))
    points = reference_projective_points(field, m)
    index_of = {pt.key(): i for i, pt in enumerate(points)}
    images = []
    for mat in reference_linear_generators(m, field, include_pgl):
        image = []
        for pt in points:
            vector = []
            for row in mat:
                acc = field.zero()
                for a, c in zip(row, pt.coords):
                    if not a.is_zero():  # a zero entry adds zero
                        acc = acc + a * c
                vector.append(acc)
            image.append(index_of[canonicalize(vector).key()])
        images.append(tuple(image))
    return images


# -- F_2 matrices and permutation modules ----------------------------------------


def matrix_from_entries(entries):
    rows = [sum((e & 1) << j for j, e in enumerate(r)) for r in entries]
    return ModMatrix(len(entries), len(entries[0]) if entries else 0, rows)


def entry(matrix, i, j):
    return (matrix.rows[i] >> j) & 1


def rank(matrix):
    return Subspace.from_vectors(matrix.ncols, matrix.rows).dimension


def permutation_matrix(p):
    n = p.degree
    return ModMatrix(n, n, [1 << p.images[i] for i in range(n)])


def permutation_module(group):
    return GModuleRep(group.degree, [permutation_matrix(g) for g in group.generators])


def drained_spin(seed_vectors, actions, ambient):
    """``linalg.spin`` without its early stop, acting on each residue as it
    was queued rather than on its row as later pivots reduced it: every
    queued vector is hit with every action, also after the basis has filled
    the space."""
    space = Subspace(ambient)
    worklist = []
    for v in seed_vectors:
        pivot = space.insert(v)
        if pivot is not None:
            worklist.append(space.rows[pivot])
    head = 0
    while head < len(worklist):
        v = worklist[head]
        head += 1
        for a in actions:
            pivot = space.insert(a.act(v))
            if pivot is not None:
                worklist.append(space.rows[pivot])
    return space


def eager_spin(seed_vectors, actions, ambient):
    """``linalg.spin`` on an eager ``Subspace``, whose ``insert`` back-reduces
    every stored row at every new pivot: the rows it acts on are the rows
    that ``spin`` reduces in full at their turn."""
    for a in actions:
        if a.nrows != a.ncols or a.nrows != ambient:
            raise ValueError("actions must be square of the ambient dimension")
    space = Subspace(ambient)
    worklist = []
    for v in seed_vectors:
        # the early stop counts pivots, so every vector must lie in F_2^ambient
        if v < 0 or v >> ambient:
            raise ValueError("seed vectors must lie in F_2^ambient")
        pivot = space.insert(v)
        if pivot is not None:
            worklist.append(pivot)
    head = 0
    while head < len(worklist) and space.dimension < ambient:
        v = space.rows[worklist[head]]  # the row as later pivots reduced it
        head += 1
        for a in actions:
            pivot = space.insert(a.act(v))
            if pivot is not None:
                worklist.append(pivot)
                if space.dimension == ambient:
                    break
    return space


def eager_inverse(matrix):
    """``ModMatrix.inverse`` by an eager ``Subspace`` of the rows of [M | I]."""
    if matrix.nrows != matrix.ncols:
        raise ValueError("inverse of a non-square matrix")
    n = matrix.nrows
    augmented = (r | (1 << (n + i)) for i, r in enumerate(matrix.rows))  # [M | I]
    rows = Subspace.from_vectors(2 * n, augmented).rows
    mask = (1 << n) - 1
    if any(rows.get(i, 0) & mask != (1 << i) for i in range(n)):
        raise ValueError("matrix is singular")
    return ModMatrix(n, n, [rows[i] >> n for i in range(n)])


class RecordingMatrix(ModMatrix):
    """A matrix that appends every vector it acts on to a shared log."""

    __slots__ = ("log",)

    def __init__(self, matrix, log):
        super().__init__(matrix.nrows, matrix.ncols, matrix.rows)
        self.log = log

    def act(self, v):
        self.log.append(v)
        return super().act(v)


def spin_and_acted_rows(spin_function, seeds, actions, ambient):
    """The closure ``spin_function`` returns, and every row it acted on, in order."""
    log = []
    space = spin_function(seeds, [RecordingMatrix(a, log) for a in actions], ambient)
    return space, log


def raw_krylov_charpoly(matrix):
    """``linalg.charpoly`` acting on the raw Krylov vector v.M^k instead of
    on the reduced residue: each push is v | (1 << tag), and v.M the next."""
    if matrix.nrows != matrix.ncols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = matrix.nrows
    low = (1 << n) - 1
    tagged = Subspace(3 * n)  # n columns, then at most 2n Krylov tags
    result = 1
    tag = n
    for i in range(n):
        if tagged.dimension == n:
            break
        v = 1 << i
        start = tag
        while True:
            r = tagged.reduce(v | (1 << tag))
            tag += 1
            if not r & low:
                break
            tagged.insert(r)
            v = matrix.act(v)
        result = clmul(result, r >> start)
    return [(result >> k) & 1 for k in range(n + 1)]


def reference_kernel(matrix):
    """Right kernel {x : M x = 0}, so ``linalg.kernel`` of the transpose, by a
    fully reduced echelon of the rows and a rank x nullity bit test per
    kernel vector, put in echelon form again."""
    echelon = Subspace.from_vectors(matrix.ncols, matrix.rows)
    vectors = []
    for free in range(matrix.ncols):
        if free in echelon.rows:
            continue
        v = 1 << free
        for p, row in echelon.rows.items():
            if (row >> free) & 1:
                v |= 1 << p
        vectors.append(v)
    return Subspace.from_vectors(matrix.ncols, vectors)


def bitsliced_kernel(matrix):
    """Right kernel {x : M x = 0}, so ``linalg.kernel`` of the transpose, as
    ``linalg.kernel`` computed it before it took left kernels by row tags:
    rows keyed by their lowest bit, then a bit-sliced back-substitution in
    which ``coords[j]`` holds coordinate j of every kernel vector at once,
    bit k for the k-th free column, each pivot solved from the highest down."""
    n = matrix.ncols
    rows = {}
    mask = 0
    for r in matrix.rows:
        r = _chase(rows, mask, r)
        if r:
            bit = r & -r
            rows[bit.bit_length() - 1] = r
            mask |= bit
    coords = [0] * n
    nullity = 0
    for j in range(n):
        if j not in rows:
            coords[j] = 1 << nullity
            nullity += 1
    for p in sorted(rows, reverse=True):
        rest = rows[p] & (rows[p] - 1)  # the row without its pivot bit
        acc = 0
        while rest:
            low = rest & -rest
            acc ^= coords[low.bit_length() - 1]
            rest ^= low
        coords[p] = acc
    vectors = [0] * nullity
    for j, c in enumerate(coords):
        while c:
            low = c & -c
            vectors[low.bit_length() - 1] |= 1 << j
            c ^= low
    return Subspace.from_vectors(n, vectors)


def single_pass_reduce(space, v):
    """``Subspace.reduce`` as one pass over the pivot hits of v, each read
    once: a reduced-echelon row carries no other pivot bit, so XORing it in
    adds no hit."""
    hits = v & space._pivot_mask
    while hits:
        low = (hits & -hits).bit_length() - 1
        hits &= hits - 1
        v ^= space.rows[low]
    return v


def bitwise_transpose(matrix):
    """``ModMatrix.transpose`` one set bit at a time."""
    rows = [0] * matrix.ncols
    for i, r in enumerate(matrix.rows):
        while r:
            j = (r & -r).bit_length() - 1
            r &= r - 1
            rows[j] |= 1 << i
    return ModMatrix(matrix.ncols, matrix.nrows, rows)


def left_kernels(matrix):
    """``linalg.kernel(matrix)``, and ``bitsliced_kernel`` and
    ``reference_kernel`` of its ``bitwise_transpose``, each as (ambient,
    basis, pivots)."""
    transposed = bitwise_transpose(matrix)
    spaces = (kernel(matrix), bitsliced_kernel(transposed), reference_kernel(transposed))
    return [(s.ambient, s.basis, s.pivots) for s in spaces]


def right_horner_matrix_poly(coeffs, m):
    """``reps._matrix_poly`` with the Horner step acc * m instead of m * acc."""
    d = m.nrows
    identity = ModMatrix.identity(d)
    acc = ModMatrix.zeros(d, d)
    for c in reversed(coeffs):
        acc = acc * m
        if c:
            acc = acc + identity
    return acc


def reference_is_irreducible(rep, seed=0):
    """``reps.is_irreducible`` that spins the first p(theta)-kernel vector of
    every factor, even one whose spin filled the space in an earlier attempt."""
    d = rep.dimension
    if d == 0:
        raise ValueError("empty module")
    rng = SplitMix64(seed)
    images = rep.images
    if d == 1:
        return IrreducibilityVerdict("irreducible", attempts=0)
    transposed = rep.transposed_images()
    for attempt in range(1, MEATAXE_ATTEMPT_CAP + 1):
        theta = _random_algebra_element(images, rng, attempt)
        if theta.is_scalar():
            continue
        for poly_factor, _multiplicity in fppoly.factor(tuple(charpoly(theta)), 2, rng):
            p_of_theta = _matrix_poly(poly_factor, theta)
            null = kernel(p_of_theta)
            if null.dimension == 0:
                continue
            span = spin([null.basis[0]], images, d)
            if span.is_proper_nonzero():
                _verify_invariant(span, images)
                return IrreducibilityVerdict("reducible", span, attempt)
            if null.dimension != fppoly.degree(poly_factor):
                continue
            dual_span = spin([kernel(p_of_theta.transpose()).basis[0]], transposed, d)
            if dual_span.is_proper_nonzero():
                complement = _orthogonal_complement(dual_span, d)
                _verify_invariant(complement, images)
                return IrreducibilityVerdict("reducible", complement, attempt)
            return IrreducibilityVerdict("irreducible", attempts=attempt)
    return IrreducibilityVerdict("inconclusive", attempts=MEATAXE_ATTEMPT_CAP)


# -- stabilizer chains ------------------------------------------------------------


def orbit_sizes(chain):
    return [(lvl.point, len(lvl.orbit_list)) for lvl in chain.levels if len(lvl.orbit_list) > 1]


def base_points(chain):
    return [point for point, _ in orbit_sizes(chain)]


def chain_snapshot(chain):
    return [(level.point, tuple(level.orbit_list), [g.images for g in level.gens])
            for level in chain.levels]


class CachedInverses:
    """Strips a ``perms`` chain with cached representatives: ``inverses[i]``
    holds the image tuples u_beta^-1 of level i made so far (a
    representative never changes once made), and ``_strip`` applies each as
    one gather a level, where the production strip walks the Schreier tree
    edge by edge (``_Level.coset_inverse``).  The representatives, and so the
    residues, are the same; oracles that sift thousands of elements, or walk
    A_n's deep trees, stay as fast as with stored transversals."""

    def u_inverse(self, i, beta):
        """The image tuple of u_beta^-1 at level i, cached: with k the
        Schreier label of beta and alpha = gens[k]^-1(beta),
        u_beta^-1 = u_alpha^-1 gens[k]^-1, one gather from alpha's."""
        while len(self.inverses) <= i:
            self.inverses.append({})
        cache = self.inverses[i]
        inverse = cache.get(beta)
        if inverse is None:
            level = self.levels[i]
            k = level.schreier[beta]
            if k < 0:
                inverse = self._id
            else:
                g_inverse = level.gen_inverses[k]
                inverse = itemgetter(*g_inverse)(self.u_inverse(i, g_inverse[beta]))
            cache[beta] = inverse
        return inverse

    def _strip(self, p):
        levels = self.levels
        for i in range(len(levels)):
            level = levels[i]
            beta = p[level.point]
            if beta == level.point:
                continue
            if beta not in level.schreier:
                return p, i
            p = itemgetter(*p)(self.u_inverse(i, beta))
        return p, len(levels)


class KnownOrderChain(CachedInverses, _StabilizerChain):
    """The known-order chain of a group, built by the production loop, with
    cached representatives."""

    def __init__(self, group):
        self.inverses = []
        super().__init__(group)


class DeterministicChain(CachedInverses, _StabilizerChain):
    """The chain of ``perms`` closed by deterministic Schreier-Sims, with no
    order given: each generator is stripped, then every Schreier generator is
    drained (``_process``) until the chain is closed.  It reuses the
    production ``_place`` and keeps its own watermarks: ``sifted[i][k]``
    counts the orbit positions of level i whose Schreier generator for
    ``levels[i].gens[k]`` has been sifted.
    """

    def __init__(self, degree, generators):
        self.degree = degree
        self.levels = []
        self._id = tuple(range(degree))
        self.sifted = []
        self.inverses = []
        for g in generators:
            if g.images != self._id:
                residue, j = self._strip(g.images)
                if residue != self._id:
                    self._place(j, residue)
                    self._process()

    def _place(self, j, residue):
        super()._place(j, residue)
        while len(self.sifted) < len(self.levels):
            self.sifted.append([])
        for i in range(j + 1):
            self.sifted[i].append(0)

    def _process(self):
        """Drain unprocessed Schreier generators until the chain is closed."""
        identity_images = self._id
        degree = self.degree
        progress = True
        while progress:
            progress = False
            i = 0
            while i < len(self.levels):
                level = self.levels[i]
                orbit = level.orbit_list
                sifted = self.sifted[i]
                k = 0
                while k < len(level.gens):
                    s = level.gens[k].images
                    while sifted[k] < len(orbit):
                        beta = orbit[sifted[k]]
                        sifted[k] += 1
                        # the Schreier generator v^-1 s u (u = u_beta, v = u_s(beta))
                        # sends u^-1(y) to v^-1(s(y)); it fixes the points of
                        # levels 0..i, so stripping passes over those levels
                        v_inverse = self.u_inverse(i, s[beta])
                        schreier = [0] * degree
                        for x, y in zip(self.u_inverse(i, beta), s):
                            schreier[x] = v_inverse[y]
                        schreier = tuple(schreier)
                        if schreier == identity_images:
                            continue
                        residue, j = self._strip(schreier)
                        if residue != identity_images:
                            self._place(j, residue)
                            progress = True
                    k += 1
                i += 1


def chain_evidence(group_id):
    """An A_n or S_n audit's evidence as the audit computed it from
    stabilizer chains: A_n's ``transitivity_degree()`` and, for S_n, whether
    S_n ``contains`` A_n's generators.  The groups are built afresh, outside
    the ``build_group`` cache, and their chains strip with cached
    representatives (``KnownOrderChain``)."""
    n = group_id.parameters[0]
    simple = zoo.alternating(n)
    evidence = AuditEvidence(transitivity_degree=KnownOrderChain(simple).transitivity_degree())
    if group_id.family == "symmetric":
        audited = KnownOrderChain(zoo.symmetric(n))
        evidence.containment_verified = all(audited.contains(g) for g in simple.generators)
    return evidence


def type_sets(candidates, budget=SAMPLE_BUDGET, seed=0):
    """The ``type_sets`` argument of ``probe`` for these candidates, as the
    ``probe`` command builds it from its --budget and --seed."""
    return {c: group_cycle_types(c, budget=budget, seed=seed) for c in candidates}


# -- the fact table's selector text ----------------------------------------------

_COND_RE = re.compile(r"^(m|q|n)(>=|=|>)(\d+)$")


def _selector_matches(selector: str, context: dict[str, int]) -> bool:
    for cond in selector.split("&"):
        if cond == "q_even":
            if context.get("q", 1) % 2 != 0:
                return False
        elif cond == "q_odd":
            if context.get("q", 0) % 2 != 1:
                return False
        elif cond.startswith("except:"):
            pairs = cond[len("except:") :].split(";")
            mq = f"({context.get('m')},{context.get('q')})"
            if mq in pairs:
                return False
        else:
            match = _COND_RE.match(cond)
            if not match:
                raise ValueError(f"bad selector condition {cond!r}")
            name, op, value = match.group(1), match.group(2), int(match.group(3))
            have = context.get(name)
            if have is None:
                return False
            if op == "=" and have != value:
                return False
            if op == ">" and not have > value:
                return False
            if op == ">=" and not have >= value:
                return False
    return True
