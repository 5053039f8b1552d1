"""Permutations and generator-presented permutation groups.

Points are the integers 0..n-1.  The composition convention, fixed once for
the whole package, is ``compose(p, q)(x) == p(q(x))`` (apply q first).

Groups carry a stabilizer chain with the forced base 0, 1, 2, ... (a point
fixed by the respective stabilizer has an orbit of length 1 and contributes
nothing).  Every group is built with its order (every ``zoo`` constructor
passes its family's), and the chain has one build loop, random
Schreier-Sims: it sifts product-replacement elements until the product of
the basic orbit lengths equals that order, which proves the chain complete.
The loop draws from a sampler seeded by a fixed module constant, never a
user seed, so the chain is reproducible bit-for-bit, and a complete chain's
orbit sizes along the forced base are invariants of the group: order,
membership and transitivity do not depend on how it was built.  Each level
keeps a Schreier vector, one generator index per orbit point, so a chain of
degree N holds O(N) cells per level beside its strong generators (Seress,
*Permutation Group Algorithms*, 2003, sec. 4.1); no coset representative is
stored.  The chain sifts raw image tuples, so its inner loops never build a
``Permutation`` or invert one.

Beside the chain, ``jordan_certificate`` proves from generators alone that
they generate A_n or Sym(n) (Jordan's theorem), with O(n) memory and no
chain: the evidence an A_n or S_n audit prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import gcd
from operator import itemgetter

from .rng import SplitMix64


class DegreeMismatchError(ValueError):
    """Raised when permutations of different degrees are combined."""


class ClosureLimitError(RuntimeError):
    """Raised when a breadth-first closure grows past ``CLOSURE_LIMIT``."""


CLOSURE_LIMIT = 10**6  # elements ``PermGroup.enumerate_elements`` may list


class ChainOrderError(AssertionError):
    """Raised when a chain overshoots the given order or runs out of draws
    before reaching it: the order is not that of the generators."""


# The chain's sampler seed and draw budget, max(1000, 20 * degree).
# They are constants, not parameters, so the chain never depends on a user
# seed.  The budget is far above need: A60 reaches its order in 67 draws and
# A100 in 106.
KNOWN_ORDER_SEED = 0x5EED
KNOWN_ORDER_MIN_DRAWS = 1000
KNOWN_ORDER_DRAWS_PER_POINT = 20


class Permutation:
    """A bijection of {0..n-1}, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images, _checked: bool = False):
        images = tuple(images)
        if not _checked:
            n = len(images)
            seen = [False] * n
            for i in images:
                if not isinstance(i, int) or not 0 <= i < n or seen[i]:
                    raise ValueError("images do not define a bijection of 0..n-1")
                seen[i] = True
        self.images = images

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv, _checked=True)

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        result = 1
        for length in cycle_type(self).lengths:
            result = result * length // gcd(result, length)
        return result

    def __repr__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return f"Permutation(identity, degree={self.degree})"
        text = "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)
        return f"Permutation({text}, degree={self.degree})"


def identity(degree: int) -> Permutation:
    return Permutation(range(degree), _checked=True)


def compose(p: Permutation, q: Permutation) -> Permutation:
    """compose(p, q)(x) == p(q(x)); q is applied first."""
    if p.degree != q.degree:
        raise DegreeMismatchError(f"degree {p.degree} != {q.degree}")
    pi = p.images
    return Permutation([pi[j] for j in q.images], _checked=True)


def from_cycles(degree: int, cycles, shift: int = 0) -> Permutation:
    """Build a permutation from disjoint cycles.

    ``shift`` is added to every point, so published 1-indexed cycle data can
    be transcribed verbatim with shift=-1.
    """
    images = list(range(degree))
    touched = set()
    for cyc in cycles:
        cyc = [c + shift for c in cyc]
        for a in cyc:
            if a in touched:
                raise ValueError("cycles are not disjoint")
            touched.add(a)
        for a, b in zip(cyc, cyc[1:]):
            images[a] = b
        images[cyc[-1]] = cyc[0]
    return Permutation(images)


@dataclass(frozen=True)
class CycleType:
    """Multiset of cycle lengths (fixed points included as 1s)."""

    lengths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(sorted(self.lengths, reverse=True)))

    @property
    def degree(self) -> int:
        return sum(self.lengths)


def cycle_type(p: Permutation) -> CycleType:
    seen = [False] * p.degree
    lengths = []
    for start in range(p.degree):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            length += 1
            j = p.images[j]
        lengths.append(length)
    return CycleType(tuple(lengths))


class JordanCertificateError(AssertionError):
    """Raised when generators do not carry Jordan's evidence that they
    generate the alternating or symmetric group claimed for them."""


def _breaks_residues(images, moved, position, d: int) -> bool:
    """True iff the permutation (``moved`` its moved points) maps two points
    whose positions agree mod d to points whose positions do not.  A class
    holding a fixed point must map onto itself; only moved points are read."""
    image_class: dict[int, int] = {}
    moved_in: dict[int, int] = {}
    for x in moved:
        c, t = position[x] % d, position[images[x]] % d
        if image_class.setdefault(c, t) != t:
            return True
        moved_in[c] = moved_in.get(c, 0) + 1
    size = len(images) // d
    return any(k < size and image_class[c] != c for c, k in moved_in.items())


def jordan_certificate(generators, alternating: bool) -> int:
    """Prove that ``generators`` generate A_n (``alternating``) or Sym(n), and
    return that group's transitivity degree: n - 2 for A_n, n for Sym(n).

    Jordan's theorem: a primitive group of degree n that contains a 3-cycle
    contains A_n, and one that contains a transposition is Sym(n) (Jordan,
    1873; Dixon-Mortimer, *Permutation Groups*, 1996, Thm 3.3A).  Among the
    generators the certificate finds a 3-cycle or a transposition and a long
    cycle c, and proves G primitive from c:

    - c an (n-1)-cycle with fixed point z, and a generator that moves z:
      <c> is transitive on the other points and fixes z, so G is
      2-transitive, hence primitive.
    - c an n-cycle: G is transitive, and a block system of G is one of the
      regular group <c>, whose block systems are the residue classes of the
      positions along c modulo a divisor d of n.  For each d with 1 < d < n
      some generator must map two points of one class into two classes.

    So G contains A_n, and G = A_n when every generator is even, Sym(n)
    otherwise; that must be the claim.  Nothing about the generators is
    assumed: each step is checked and a failed one raises
    ``JordanCertificateError``.  The work is O(n) per generator plus, per
    divisor d, the moved points of each generator other than c: O(n tau(n))
    at worst, O(n) for a 3-cycle or a transposition beside c.  No group order
    is formed and no chain is built.
    """
    gens = list(generators)
    if not gens:
        raise JordanCertificateError("no generators")
    n = gens[0].degree
    if any(g.degree != n for g in gens):
        raise JordanCertificateError("generators have mixed degrees")
    moved = [[x for x, y in enumerate(g.images) if x != y] for g in gens]
    if not any(len(m) in (2, 3) for m in moved):
        # two or three moved points: a transposition or a 3-cycle
        raise JordanCertificateError("no 3-cycle or transposition among the generators")

    lengths = [cycle_type(g).lengths for g in gens]  # longest cycle first
    long = next((k for k, m in enumerate(moved)
                 if len(m) >= n - 1 and lengths[k][0] == len(m)), None)
    if long is None:
        raise JordanCertificateError(f"no {n}-cycle or {n - 1}-cycle among the generators")
    if len(moved[long]) == n - 1:
        (z,) = set(range(n)).difference(moved[long])
        if all(g.images[z] == z for g in gens):
            raise JordanCertificateError(f"point {z} is fixed by every generator")
    else:
        c = gens[long].images
        position = [0] * n
        x = 0
        for k in range(1, n):
            x = c[x]
            position[x] = k
        for d in range(2, n):
            if n % d == 0 and not any(
                k != long and _breaks_residues(g.images, moved[k], position, d)
                for k, g in enumerate(gens)
            ):
                raise JordanCertificateError(
                    f"the residue classes mod {d} along the {n}-cycle are blocks"
                )

    even = all(sum(length - 1 for length in cycle) % 2 == 0 for cycle in lengths)
    if even != alternating:
        claimed, found = ("Alt", "Sym") if alternating else ("Sym", "Alt")
        raise JordanCertificateError(f"the generators generate {found}({n}), not {claimed}({n})")
    return n - 2 if alternating else n


class _Level:
    """One stabilizer-chain level: base point, strong generators, Schreier
    vector.

    ``schreier[gamma]`` is the index k of the generator that first reached
    gamma, from alpha = gens[k]^-1(gamma), and -1 at the base point; the
    points it holds are the orbit.  The coset representative of gamma is
    u_gamma = gens[k] u_alpha, so u_gamma^-1 = u_alpha^-1 gens[k]^-1, and
    ``coset_inverse`` applies it by walking the tree back to the base point,
    one gather per edge; no representative is stored.  ``gen_inverses[k]``
    is the image tuple of ``gens[k]``^-1, the same tuple object at every
    level the generator is listed at.  The tree is only ever extended, never
    rebuilt, so coset representatives stay stable while the chain grows, and
    a level keeps O(orbit) cells beside its generators.
    """

    __slots__ = ("point", "gens", "gen_inverses", "orbit_list", "schreier", "expanded")

    def __init__(self, point: int):
        self.point = point
        self.gens: list[Permutation] = []
        self.gen_inverses: list[tuple[int, ...]] = []
        self.orbit_list: list[int] = [point]
        self.schreier: dict[int, int] = {point: -1}
        self.expanded: list[int] = []  # orbit positions already expanded per gen

    def add_generator(self, g: Permutation, g_inverse: tuple[int, ...]) -> None:
        self.gens.append(g)
        self.gen_inverses.append(g_inverse)
        self.expanded.append(0)
        self._extend_orbit()

    def _extend_orbit(self) -> None:
        schreier = self.schreier
        orbit = self.orbit_list
        gens = self.gens
        expanded = self.expanded
        # every older generator is already expanded over the whole orbit, so
        # the first sweep starts at the new one; a sweep that grows the orbit
        # is followed by a full one.  A list iterator reads the points
        # appended behind it, so one loop expands generator k to the end.
        first = len(gens) - 1
        size = 0
        while size < len(orbit):
            size = len(orbit)
            for k in range(first, len(gens)):
                for gamma in map(gens[k].images.__getitem__, islice(orbit, expanded[k], None)):
                    if gamma not in schreier:
                        schreier[gamma] = k
                        orbit.append(gamma)
                expanded[k] = len(orbit)
            first = 0

    def coset_inverse(self, beta: int, p: tuple[int, ...]) -> tuple[int, ...]:
        """The image tuple of u_beta^-1 p, for beta in the orbit;
        ``itemgetter(*p)(t)`` is the image tuple of t∘p."""
        schreier = self.schreier
        gen_inverses = self.gen_inverses
        k = schreier[beta]
        while k >= 0:
            g_inverse = gen_inverses[k]
            p = itemgetter(*p)(g_inverse)
            beta = g_inverse[beta]
            k = schreier[beta]
        return p


class _StabilizerChain:
    """Schreier-Sims chain with base forced to 0, 1, 2, ...

    Level i always has base point i; levels whose subgroup fixes their point
    sit in the chain with a singleton orbit, which adds nothing to the order
    or the transitivity degree.  A strong generator is listed at every level it stabilizes
    through, so each level's generator list generates the corresponding
    pointwise stabilizer once construction finishes.

    The one build loop sifts the generators and then elements drawn from
    ``ElementSampler(group, KNOWN_ORDER_SEED)``, placing each nontrivial
    residue at the first base point it moves, and stops when ``order()``
    equals the group's order (Seress 2003, ch. 4, random Schreier-Sims with
    known order; Holt-Eick-O'Brien ch. 4).  The orbit-length product never
    exceeds the order of the group the strong generators generate, so
    equality proves the chain complete.  A product above the given order, or
    an exhausted draw budget, raises ``ChainOrderError``.  The seed is a
    fixed constant, so the loop is deterministic.

    Sifting runs on raw image tuples: each level applies the inverse coset
    representative u_beta^-1 by walking its Schreier tree from beta back to
    the base point, one tuple gather with a stored generator inverse per
    edge (``_Level.coset_inverse``), and the identity test compares with one
    cached identity tuple, so sifting inverts nothing.  Only a residue that
    becomes a strong generator is wrapped as a ``Permutation``, and its
    inverse is computed once, there.  A gather is only ever made with a
    nontrivial permutation, so the degree is at least 2 and ``itemgetter``
    returns a tuple.
    """

    def __init__(self, group: "PermGroup"):
        self.degree = group.degree
        self.levels: list[_Level] = []
        self._id = tuple(range(self.degree))
        self.draws = 0  # sampled elements drawn
        self._sift_to_order(group, group.known_order)

    def _strip(self, p: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        levels = self.levels
        for i in range(len(levels)):
            level = levels[i]
            beta = p[level.point]
            if beta == level.point:
                continue
            if beta not in level.schreier:
                return p, i
            p = level.coset_inverse(beta, p)
        return p, len(levels)

    def _place(self, j: int, residue: tuple[int, ...]) -> None:
        while len(self.levels) <= j:
            self.levels.append(_Level(len(self.levels)))
        g = Permutation(residue, _checked=True)
        g_inverse = g.inverse().images
        for i in range(j + 1):
            self.levels[i].add_generator(g, g_inverse)

    def _sift_to_order(self, group: "PermGroup", order: int) -> None:
        """The build loop: generators first, then sampled elements."""
        if any(self._sift_reaches(g.images, order) for g in group.generators):
            return
        sampler = ElementSampler(group, KNOWN_ORDER_SEED)
        budget = max(KNOWN_ORDER_MIN_DRAWS, KNOWN_ORDER_DRAWS_PER_POINT * self.degree)
        while self.draws < budget:
            self.draws += 1
            if self._sift_reaches(sampler.sample().images, order):
                return
        raise ChainOrderError(
            f"chain order {self.order()} is still below the given order {order} "
            f"after {budget} sampled elements"
        )

    def _sift_reaches(self, p: tuple[int, ...], order: int) -> bool:
        """Sift p, place a nontrivial residue, and report whether the chain
        order has reached ``order``."""
        residue, j = self._strip(p)
        if residue != self._id:
            # the residue fixes the points of levels 0..j-1; singleton levels
            # are inserted for the points it also fixes beyond them
            while residue[j] == j:
                j += 1
            self._place(j, residue)
        reached = self.order()
        if reached > order:
            raise ChainOrderError(f"chain order {reached} exceeds the given order {order}")
        return reached == order

    def order(self) -> int:
        result = 1
        for level in self.levels:
            result *= len(level.orbit_list)
        return result

    def contains(self, p: Permutation) -> bool:
        residue, _ = self._strip(p.images)
        return residue == self._id

    def transitivity_degree(self) -> int:
        """Largest t with orbit sizes n, n-1, ..., n-t+1 along base 0, 1, ..."""
        n = self.degree
        t = 0
        for i in range(n):
            if i < len(self.levels):
                size = len(self.levels[i].orbit_list)
            else:
                size = 1
            if size != n - i:
                break
            t += 1
        # a group transitive on each of the first n-1 points is all of Sym(n)
        if t == n - 1:
            t = n
        return t


class PermGroup:
    """A permutation group given by a nonempty list of generators of one
    degree and its order, with a lazy stabilizer chain.

    ``order`` must be the order of the group the generators generate; the
    chain raises ``ChainOrderError`` when its orbit-length product overshoots
    that order or never reaches it.
    """

    def __init__(self, generators, *, order: int):
        gens = [g if isinstance(g, Permutation) else Permutation(g) for g in generators]
        degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise DegreeMismatchError("generators have mixed degrees")
        self.degree = degree
        self.generators: tuple[Permutation, ...] = tuple(gens)
        self.known_order = order
        self._chain: _StabilizerChain | None = None

    def chain(self) -> _StabilizerChain:
        if self._chain is None:
            self._chain = _StabilizerChain(self)
        return self._chain

    def order(self) -> int:
        return self.chain().order()

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatchError(f"degree {p.degree} != {self.degree}")
        return self.chain().contains(p)

    def transitivity_degree(self) -> int:
        return self.chain().transitivity_degree()

    def enumerate_elements(self) -> list[Permutation]:
        """All elements by breadth-first closure; independent of the chain.

        Intended as an oracle for small groups; raises ``ClosureLimitError``
        if the group has more than ``CLOSURE_LIMIT`` elements.
        """
        seen = {identity(self.degree).images}
        queue = [identity(self.degree)]
        head = 0
        while head < len(queue):
            current = queue[head]
            head += 1
            for g in self.generators:
                nxt = compose(g, current)
                if nxt.images not in seen:
                    if len(seen) >= CLOSURE_LIMIT:
                        raise ClosureLimitError(f"closure exceeds limit {CLOSURE_LIMIT}")
                    seen.add(nxt.images)
                    queue.append(nxt)
        return queue

    def sampler(self, seed: int) -> "ElementSampler":
        return ElementSampler(self, seed)

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"


class ElementSampler:
    """Product-replacement ("rattle") stream of pseudo-random group elements.

    A reservoir of generator copies is stirred by splitmix64-driven
    multiplications, with an accumulator multiplied on every step; ten mixing
    rounds run before the first sample.  Every output is a product of
    generators and their inverses, so membership is guaranteed.
    """

    _MIN_SLOTS = 8
    _MIXING_ROUNDS = 10

    def __init__(self, group: PermGroup, seed: int):
        gens = group.generators
        nslots = max(self._MIN_SLOTS, len(gens))
        self._slots = [gens[i % len(gens)] for i in range(nslots)]
        self._acc = identity(group.degree)
        self._rng = SplitMix64(seed)
        for _ in range(self._MIXING_ROUNDS):
            self.sample()

    def sample(self) -> Permutation:
        rng = self._rng
        slots = self._slots
        i = rng.below(len(slots))
        j = rng.below(len(slots) - 1)
        if j >= i:
            j += 1
        t = slots[j] if rng.bit() else slots[j].inverse()
        slots[i] = compose(slots[i], t)
        if rng.bit():
            self._acc = compose(self._acc, slots[i])
        else:
            self._acc = compose(slots[i], self._acc)
        return self._acc
