"""G-modules over F_2: heart, endomorphism algebra, MeatAxe irreducibility,
indecomposability.

Modules are spaces of row vectors with generators acting on the right
(v -> v.A), so the matrix of a permutation g has row i equal to e_{g(i)}.
The heart of the permutation action on n points over F_2 is the sum-zero
hyperplane for odd n and the sum-zero hyperplane modulo the constants line
for even n; its basis is the reduced-echelon basis of the sum-zero space
(echelon representatives modulo the constants line in the even case).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iter_product

from . import fppoly
from .linalg import ModMatrix, Subspace, charpoly, kernel, spin
from .perms import PermGroup, Permutation
from .rng import SplitMix64


@dataclass
class GModuleRep:
    """A representation given by generator images (parallel to group generators)."""

    dimension: int
    images: list[ModMatrix]

    def transposed_images(self) -> list[ModMatrix]:
        return [a.transpose() for a in self.images]


def _sum_zero_image(g: Permutation) -> ModMatrix:
    """Action on the sum-zero hyperplane in its echelon basis b_i = e_i + e_{n-1}."""
    n = g.degree
    mask = (1 << (n - 1)) - 1
    rows = []
    for i in range(n - 1):
        ambient = (1 << g.images[i]) ^ (1 << g.images[n - 1])
        rows.append(ambient & mask)
    return ModMatrix(n - 1, n - 1, rows)


def sum_zero_module(group: PermGroup) -> GModuleRep:
    """The stable hyperplane of coordinate-sum-zero vectors in F_2^n."""
    images = [_sum_zero_image(g) for g in group.generators]
    return GModuleRep(group.degree - 1, images)


def heart(group: PermGroup) -> GModuleRep:
    """Heart of the permutation action over F_2: dim n-1 (n odd) or n-2 (n even)."""
    n = group.degree
    if n < 3:
        raise ValueError("heart needs degree >= 3")
    if n % 2 == 1:
        return sum_zero_module(group)
    ones = (1 << (n - 1)) - 1
    images = []
    for g in group.generators:
        sz = _sum_zero_image(g)
        rows = []
        for j in range(1, n - 1):
            u = sz.rows[j]
            if u & 1:
                u ^= ones
            rows.append(u >> 1)
        images.append(ModMatrix(n - 2, n - 2, rows))
    return GModuleRep(n - 2, images)


# -- endomorphism algebra ------------------------------------------------------


@dataclass
class EndoAlgebra:
    """Basis of all matrices commuting with every generator image."""

    dimension: int
    basis: list[ModMatrix] = field(repr=False)


def _vec_of_matrix(m: ModMatrix) -> int:
    d = m.ncols
    v = 0
    for i, r in enumerate(m.rows):
        v |= r << (i * d)
    return v


def _matrix_of_vec(v: int, d: int) -> ModMatrix:
    mask = (1 << d) - 1
    return ModMatrix(d, d, [(v >> (i * d)) & mask for i in range(d)])


def endomorphism_algebra(rep: GModuleRep) -> EndoAlgebra:
    """All matrices X with X.A = A.X for every generator image A.

    Spin-and-relations method for module homomorphisms (Holt, Eick and
    O'Brien, *Handbook of Computational Group Theory*, 2005, ch. 7):

    1. Spin seeds e_0, e_1, ... (each standard basis vector not yet in the
       span) until they span the module, recording the spanning tree
       w_child = w_parent.A_g and, for each non-tree edge (k, g), the relation
       w_k.A_g = sum_l c_l w_l.
    2. An endomorphism is fixed by the images of the s seeds: s*d unknowns.
    3. Each tree vector's image is pushed symbolically through the tree, and
       each relation becomes d linear conditions on the unknowns.  The
       scalars always commute, so once the conditions reach rank s*d - 1 the
       solution space is the scalar line and the remaining relations hold.
    4. Each solution maps back to the standard basis as X = W^-1.Y, where W
       has rows w_k and Y rows the images of the w_k.
    5. The basis returned is the reduced-echelon basis of the row-major
       d^2-vectorisation, so it does not depend on the seeds or the tree.

    Every basis element is checked against every generator before returning.
    """
    d = rep.dimension
    transposed = rep.transposed_images()

    # 1. spanning tree: tree[k] is (parent, g) with w_k = w_parent.A_g, or None
    # for a seed; roots lists the seeds' tree indices in seed order
    reached = Subspace(d)
    vectors: list = []
    tree: list[tuple[int, int] | None] = []
    roots: list[int] = []
    relations: list[tuple[int, int]] = []
    for e in ModMatrix.identity(d).rows:
        if reached.dimension == d:
            break
        if reached.insert(e) is None:
            continue
        head = len(vectors)
        roots.append(head)
        vectors.append(e)
        tree.append(None)
        while head < len(vectors):
            for g, a in enumerate(rep.images):
                image = a.act(vectors[head])
                if reached.insert(image) is None:
                    relations.append((head, g))
                else:
                    vectors.append(image)
                    tree.append((head, g))
            head += 1
    unknowns = len(roots) * d
    w_inverse = ModMatrix(d, d, vectors).inverse()

    # 2-3. symbolic images: row m of images[k] is coordinate m of phi(w_k) as
    # a linear form in the unknowns (the seed images, d per seed)
    free = ModMatrix.identity(unknowns).rows
    images: list[ModMatrix] = []
    for k, edge in enumerate(tree):
        if edge is None:
            j = roots.index(k)
            images.append(ModMatrix(d, unknowns, free[j * d : (j + 1) * d]))
        else:
            parent, g = edge
            images.append(transposed[g] * images[parent])
    # the last relations first: the BFS lists those of the first tree vectors
    # first, and they are often group identities that give no condition.  The
    # scalars solve every condition, so the stop rule holds in any order.
    conditions = Subspace(unknowns)
    for k, g in reversed(relations):
        if conditions.dimension == unknowns - 1:
            break
        # phi(w_k).A_g = sum_l c_l phi(w_l), coordinate by coordinate
        c = w_inverse.act(rep.images[g].act(vectors[k]))
        rows = (transposed[g] * images[k]).rows
        while c:
            image = images[(c & -c).bit_length() - 1]
            rows = [x ^ y for x, y in zip(rows, image.rows)]
            c &= c - 1
        for row in rows:
            conditions.insert(row)
    # a reduced echelon matrix, so its transpose is unit rows and nullity rows
    null = kernel(ModMatrix(conditions.dimension, unknowns, conditions.basis).transpose())

    # 4. back to the standard basis: X = W^-1 . (phi(w_k))_k, the image of
    # the j-th seed being the j-th d-bit slice of the solution y
    low = (1 << d) - 1
    solutions = []
    for y in null.basis:
        phi: list = []
        for k, edge in enumerate(tree):
            if edge is None:
                phi.append((y >> (roots.index(k) * d)) & low)
            else:
                parent, g = edge
                phi.append(rep.images[g].act(phi[parent]))
        solutions.append(_vec_of_matrix(w_inverse * ModMatrix(d, d, phi)))

    # 5. canonical basis, then the soundness check
    span = Subspace.from_vectors(d * d, solutions)
    basis = [_matrix_of_vec(v, d) for v in span.basis]
    for x in basis:
        for a in rep.images:
            if x * a != a * x:
                raise AssertionError("endomorphism basis element does not commute")
    return EndoAlgebra(len(basis), basis)


# -- MeatAxe -------------------------------------------------------------------


@dataclass
class IrreducibilityVerdict:
    status: str  # "irreducible" | "reducible" | "inconclusive"
    witness: Subspace | None = None
    attempts: int = 0


MEATAXE_ATTEMPT_CAP = 200


def _random_word(images: list[ModMatrix], rng: SplitMix64, max_length: int) -> ModMatrix:
    length = 1 + rng.below(max_length)
    m = images[rng.below(len(images))]
    for _ in range(length - 1):
        m = m * images[rng.below(len(images))]
    return m


def _random_algebra_element(images: list[ModMatrix], rng: SplitMix64, attempt: int) -> ModMatrix:
    """Sums of up to three words of length <= 4 (each kept on a coin flip),
    alternating with sums of two conjugated generators; both widen the
    spectrum of the sampled element."""
    d = images[0].nrows
    if attempt % 2 == 0:
        theta = ModMatrix.zeros(d, d)
        for _ in range(3):
            c = rng.below(2)
            word = _random_word(images, rng, 4)
            if c:
                theta = theta + word
    else:
        g = images[rng.below(len(images))]
        h = _random_word(images, rng, 3)
        theta = (h * g) * h.inverse() + images[rng.below(len(images))]
    return theta


def _verify_invariant(witness: Subspace, images: list[ModMatrix]) -> None:
    for v in witness.basis:
        for a in images:
            if not witness.contains(a.act(v)):
                raise AssertionError("witness subspace is not invariant")


def _orthogonal_complement(dual_witness: Subspace, d: int) -> Subspace:
    return kernel(ModMatrix(len(dual_witness.basis), d, list(dual_witness.basis)).transpose())


def _matrix_poly(coeffs, m: ModMatrix) -> ModMatrix:
    """Evaluate a polynomial (constant term first) at a square matrix by
    Horner's rule, with no product by a zero or identity accumulator."""
    identity = ModMatrix.identity(m.nrows)
    acc = None  # the zero matrix
    for c in reversed(coeffs):
        if acc is not None:
            # = acc * m; each act then walks a sparse row of m, not a dense one of acc
            acc = m if acc is identity else m * acc
        if c:
            acc = identity if acc is None else acc + identity
    return ModMatrix.zeros(m.nrows, m.nrows) if acc is None else acc


def is_irreducible(rep: GModuleRep, seed: int) -> IrreducibilityVerdict:
    """Norton/Parker MeatAxe.

    For random algebra elements theta, each irreducible factor p of the
    characteristic polynomial gives kernel vectors of p(theta) to spin.  A
    proper spin (on either the module or its transpose, whose witness is
    carried back through the orthogonal complement) proves reducibility; both
    spins filling certifies irreducibility by Norton's criterion, applied
    only when the p(theta)-kernel has the minimal dimension deg(p).
    """
    d = rep.dimension
    if d == 0:
        raise ValueError("empty module")
    rng = SplitMix64(seed)
    images = rep.images
    if d == 1:
        return IrreducibilityVerdict("irreducible", attempts=0)
    # seeds whose spin filled the space: it would fill again, so it is not
    # repeated (a proper spin ends the search, so it is never met twice)
    filled: set[int] = set()
    for attempt in range(1, MEATAXE_ATTEMPT_CAP + 1):
        theta = _random_algebra_element(images, rng, attempt)
        if theta.is_scalar():  # zero or the identity
            continue
        factors = fppoly.factor(tuple(charpoly(theta)), 2, rng)
        for poly_factor, _multiplicity in factors:
            p_of_theta = _matrix_poly(poly_factor, theta)
            null = kernel(p_of_theta)  # vectors v with v.p(theta) = 0
            if null.dimension == 0:
                continue
            v = null.basis[0]
            if v not in filled:
                span = spin([v], images, d)
                if span.is_proper_nonzero():
                    _verify_invariant(span, images)
                    return IrreducibilityVerdict("reducible", span, attempt)
                filled.add(v)
            if null.dimension != fppoly.degree(poly_factor):
                continue
            dual_null = kernel(p_of_theta.transpose())  # kernel under the transposed action
            w = dual_null.basis[0]
            dual_span = spin([w], rep.transposed_images(), d)  # ends the search: built once
            if dual_span.is_proper_nonzero():
                complement = _orthogonal_complement(dual_span, d)
                _verify_invariant(complement, images)
                return IrreducibilityVerdict("reducible", complement, attempt)
            return IrreducibilityVerdict("irreducible", attempts=attempt)
    return IrreducibilityVerdict("inconclusive", attempts=MEATAXE_ATTEMPT_CAP)


# -- indecomposability ---------------------------------------------------------


@dataclass
class IndecomposabilityVerdict:
    status: str  # "indecomposable" | "decomposable" | "inconclusive"
    witness: ModMatrix | None = None  # a nontrivial idempotent
    endo_dimension: int = 0


IDEMPOTENT_ENUM_CAP = 20


def is_indecomposable(rep: GModuleRep, endo: EndoAlgebra) -> IndecomposabilityVerdict:
    """Exhaustive idempotent search in ``endo``, which must be
    ``endomorphism_algebra(rep)``: the caller solves End once and shares it.

    The module decomposes iff End contains an idempotent other than 0 and the
    identity; the witness idempotent's image and kernel are the complementary
    invariant summands.  Dimensions above the enumeration cap return
    inconclusive rather than guessing.
    """
    k = endo.dimension
    if k > IDEMPOTENT_ENUM_CAP:
        return IndecomposabilityVerdict("inconclusive", endo_dimension=k)
    d = rep.dimension
    zero = ModMatrix.zeros(d, d)
    identity = ModMatrix.identity(d)
    for coeffs in iter_product(range(2), repeat=k):
        x = zero
        for c, b in zip(coeffs, endo.basis):
            if c:
                x = x + b
        if x == zero or x == identity:
            continue
        if x * x == x:
            _verify_idempotent_witness(x, rep)
            return IndecomposabilityVerdict("decomposable", x, k)
    return IndecomposabilityVerdict("indecomposable", endo_dimension=k)


def _verify_idempotent_witness(x: ModMatrix, rep: GModuleRep) -> None:
    d = rep.dimension
    image = Subspace.from_vectors(d, list(x.rows))
    null = kernel(x)  # vectors with v.x = 0
    if image.dimension + null.dimension != d:
        raise AssertionError("idempotent image and kernel do not sum to the space")
    _verify_invariant(image, rep.images)
    _verify_invariant(null, rep.images)
