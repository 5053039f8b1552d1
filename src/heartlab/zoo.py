"""Constructors for the group families under study.

Every constructor validates its parameters through ``GroupId`` and returns a
plain PermGroup on 0-indexed points, built with ``GroupId.order``, the
family's closed-form order, which the stabilizer chain of ``perms`` needs.
Each formula's source is cited at ``GroupId.order``, ``psl_order`` and
``pgl_order``; the test suite checks every formula against the deterministic
Schreier-Sims oracle in ``tests/support.py``.  Mathieu groups ship with
classical hard-coded generator permutations (transcribed 1-indexed from the
literature); the test suite certifies their orders, degrees and transitivity
rather than taking the transcription on faith.
PSL/PGL act on the points of ``fields.projective_points``, index tuples over
the integer-coded F_q, through standard SL/GL generator matrices of field
indices: each image vector is mapped to its point's index by
``fields.point_ranks``, a closed form in the vector's coordinates, so
point i is ``projective_points(field, m)[i]``.  The tests check every
generator image against the coefficient-tuple construction of
``tests/support.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, gcd
import re

from .fields import FieldSpec, make_field, point_ranks, projective_points
from .perms import PermGroup, Permutation, from_cycles

# Conway et al., ATLAS of Finite Groups (1985): |M11|, |M12|, |M22|, |M23|, |M24|
MATHIEU_ORDERS = {11: 7920, 12: 95040, 22: 443520, 23: 10200960, 24: 244823040}
MATHIEU_DEGREES = tuple(MATHIEU_ORDERS)

# The largest n of S_n and A_n, and the largest q^m of PSL_m(q) and PGL_m(q).
SUPPORTED_SCALE = 10**5

# Classical generator cycles, 1-indexed as published.
_MATHIEU_CYCLES = {
    11: [
        [(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)],
        [(3, 7, 11, 8), (4, 10, 5, 6)],
    ],
    12: [
        [(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)],
        [(3, 7, 11, 8), (4, 10, 5, 6)],
        [(1, 12), (2, 11), (3, 6), (4, 8), (5, 9), (7, 10)],
    ],
    22: [
        [(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11), (12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22)],
        [(1, 4, 5, 9, 3), (2, 8, 10, 7, 6), (12, 15, 16, 20, 14), (13, 19, 21, 18, 17)],
        [(1, 21), (2, 10, 8, 6), (3, 13, 4, 17), (5, 19, 9, 18), (11, 22), (12, 14, 16, 20)],
    ],
    23: [
        [tuple(range(1, 24))],
        [(3, 17, 10, 7, 9), (4, 13, 14, 19, 5), (8, 18, 11, 12, 23), (15, 20, 22, 21, 16)],
    ],
    24: [
        [tuple(range(1, 24))],
        [(3, 17, 10, 7, 9), (4, 13, 14, 19, 5), (8, 18, 11, 12, 23), (15, 20, 22, 21, 16)],
        [(1, 24), (2, 23), (3, 12), (4, 16), (5, 18), (6, 10), (7, 20), (8, 14), (9, 21),
         (11, 17), (13, 22), (15, 19)],
    ],
}


class GroupSpecError(ValueError):
    """Raised for invalid group parameters or unparsable group names."""


@dataclass(frozen=True)
class GroupId:
    """Identifier for a supported group: family plus parameters.

    parameters: (n,) for symmetric/alternating/mathieu/cyclic/dihedral,
    (m, q) for psl/pgl.
    """

    family: str
    parameters: tuple[int, ...]

    def __post_init__(self):
        fam, params = self.family, self.parameters
        if fam in ("symmetric", "alternating", "cyclic", "dihedral"):
            if len(params) != 1 or params[0] < (3 if fam in ("alternating", "dihedral") else 2):
                raise GroupSpecError(f"bad parameters {params} for {fam}")
            # an audit holds O(n) cells (the Jordan certificate); --deep and
            # heart still form n x n matrices over F_2.  Cyclic and dihedral
            # audits build nothing
            if fam in ("symmetric", "alternating") and params[0] > SUPPORTED_SCALE:
                raise GroupSpecError(
                    f"{fam} degree n={params[0]} exceeds the supported scale n <= 1e5"
                )
        elif fam == "mathieu":
            if len(params) != 1 or params[0] not in MATHIEU_DEGREES:
                raise GroupSpecError(f"no Mathieu group of degree {params}")
        elif fam in ("psl", "pgl"):
            if len(params) != 2:
                raise GroupSpecError(f"{fam} needs (m, q)")
            m, q = params
            if m < 2 or q < 2:
                raise GroupSpecError(f"bad {fam} parameters (m={m}, q={q})")
            # before the prime-power test, which trial-divides up to sqrt(q);
            # q >= 2 and m > 16 give q^m > 1e5 without forming q^m
            if m > 16 or q**m > SUPPORTED_SCALE:
                raise GroupSpecError(f"(m={m}, q={q}) exceeds the supported scale q^m <= 1e5")
            if prime_power_decomposition(q) is None:
                raise GroupSpecError(f"bad {fam} parameters (m={m}, q={q})")
        else:
            raise GroupSpecError(f"unknown family {fam!r}")

    @property
    def order(self) -> int:
        """The group's order from its family's closed form, with no group
        built: the order each zoo constructor passes to its ``PermGroup``.
        S_n has order n!, A_n (index 2 in S_n) n!/2, C_n n and D_n 2n; the
        Mathieu orders are ``MATHIEU_ORDERS``."""
        fam, params = self.family, self.parameters
        if fam in ("psl", "pgl"):
            return (psl_order if fam == "psl" else pgl_order)(*params)
        n = params[0]
        if fam in ("symmetric", "alternating"):
            return factorial(n) // (1 if fam == "symmetric" else 2)
        if fam == "mathieu":
            return MATHIEU_ORDERS[n]
        return n if fam == "cyclic" else 2 * n

    @property
    def natural_degree(self) -> int:
        if self.family in ("psl", "pgl"):
            m, q = self.parameters
            return (q**m - 1) // (q - 1)
        return self.parameters[0]

    def name(self) -> str:
        if self.family in ("psl", "pgl"):
            return f"{self.family.upper()}({self.parameters[0]},{self.parameters[1]})"
        letter = {"symmetric": "S", "alternating": "A", "mathieu": "M",
                  "cyclic": "C", "dihedral": "D"}[self.family]
        return f"{letter}{self.parameters[0]}"


def prime_power_decomposition(q: int) -> tuple[int, int] | None:
    """(p, r) with q == p^r, or None if q is not a prime power."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            break
        if q % p == 0:
            r = 0
            rest = q
            while rest % p == 0:
                rest //= p
                r += 1
            return (p, r) if rest == 1 else None
    return (q, 1)  # q itself is prime


def symmetric_generators(n: int) -> list[Permutation]:
    """(0 1) and the n-cycle (0 1 ... n-1): the generators of ``symmetric(n)``
    and of the Jordan certificate in an S_n audit."""
    gens = [from_cycles(n, [(0, 1)])]
    if n > 2:
        gens.append(from_cycles(n, [tuple(range(n))]))
    return gens


def alternating_generators(n: int) -> list[Permutation]:
    """(0 1 2) and an (n or n-1)-cycle of odd length, (0 1 ... n-1) or
    (1 2 ... n-1): the generators of ``alternating(n)`` and of the Jordan
    certificate in an A_n or S_n audit."""
    gens = [from_cycles(n, [(0, 1, 2)])]
    if n > 3:
        long = tuple(range(n)) if n % 2 == 1 else tuple(range(1, n))
        gens.append(from_cycles(n, [long]))
    return gens


def symmetric(n: int) -> PermGroup:
    """S_n, generated by ``symmetric_generators(n)``."""
    group_id = GroupId("symmetric", (n,))  # validates n
    return PermGroup(symmetric_generators(n), order=group_id.order)


def alternating(n: int) -> PermGroup:
    """A_n, generated by ``alternating_generators(n)``."""
    group_id = GroupId("alternating", (n,))  # validates n
    return PermGroup(alternating_generators(n), order=group_id.order)


def cyclic(n: int) -> PermGroup:
    """C_n, generated by the n-cycle."""
    group_id = GroupId("cyclic", (n,))  # validates n
    return PermGroup([from_cycles(n, [tuple(range(n))])], order=group_id.order)


def dihedral(n: int) -> PermGroup:
    """Dihedral group acting on the n vertices of a cycle: the n rotations
    and the n reflections."""
    group_id = GroupId("dihedral", (n,))  # validates n
    rotation = from_cycles(n, [tuple(range(n))])
    reflection = Permutation([(-i) % n for i in range(n)])
    return PermGroup([rotation, reflection], order=group_id.order)


def mathieu(n: int) -> PermGroup:
    """M_n on n points, from classical generator cycles."""
    group_id = GroupId("mathieu", (n,))  # validates n
    gens = [from_cycles(n, cycles, shift=-1) for cycles in _MATHIEU_CYCLES[n]]
    return PermGroup(gens, order=group_id.order)


# -- projective linear groups -------------------------------------------------


def _projective_permutation(mat, points, field: FieldSpec) -> Permutation:
    """The permutation of the points that the matrix induces: each row, kept
    as (column, log of entry) pairs, is applied in log space, and each image
    vector is ranked by ``point_ranks``."""
    exp, log, add = field.exp, field.log, field.add
    rows = [[(j, log[a]) for j, a in enumerate(row) if a] for row in mat]
    images = []
    for pt in points:
        image = []
        for row in rows:
            acc = 0
            for j, la in row:
                x = pt[j]
                if x:
                    acc = add(acc, exp[la + log[x]])
            image.append(acc)
        images.append(image)
    return Permutation(point_ranks(field, len(mat), images))


def _linear_generators(m: int, field: FieldSpec, include_pgl: bool):
    """Standard generator matrices of field indices: transvections plus a
    signed basis cycle, and (for PGL) a diagonal matrix with
    primitive-element determinant.

    Over a proper extension field a single transvection is not enough (its
    entries only span a subfield), so one transvection x_{12}(w^k) is emitted
    per F_p-basis power w^k of the primitive element w.
    """

    def identity():
        return [[int(i == j) for j in range(m)] for i in range(m)]

    mats = []
    for k in range(field.r):
        transvection = identity()
        transvection[0][1] = field.exp[k]
        mats.append(transvection)

    cycle = [[0] * m for _ in range(m)]
    for i in range(m - 1):
        cycle[i + 1][i] = 1
    cycle[0][m - 1] = 1 if (m - 1) % 2 == 0 else field.p - 1  # -1 is index p - 1
    mats.append(cycle)

    if include_pgl:
        diag = identity()
        diag[0][0] = field.primitive
        mats.append(diag)
    return mats


def _projective_group(m: int, q: int, include_pgl: bool) -> PermGroup:
    group_id = GroupId("pgl" if include_pgl else "psl", (m, q))  # validates (m, q)
    p, r = prime_power_decomposition(q)
    field = make_field(p, r)
    points = projective_points(field, m)
    mats = _linear_generators(m, field, include_pgl)
    gens = [_projective_permutation(mat, points, field) for mat in mats]
    return PermGroup(gens, order=group_id.order)


def psl(m: int, q: int) -> PermGroup:
    """PSL_m(F_q) acting on the (q^m-1)/(q-1) projective points, of order
    ``psl_order(m, q)``."""
    return _projective_group(m, q, include_pgl=False)


def pgl(m: int, q: int) -> PermGroup:
    """PGL_m(F_q) on the same points, of order ``pgl_order(m, q)``; equals
    psl(m, q) iff gcd(m, q-1) == 1."""
    return _projective_group(m, q, include_pgl=True)


def psl_order(m: int, q: int) -> int:
    """|PSL_m(q)| = q^(m(m-1)/2) (q^2-1)(q^3-1)...(q^m-1) / gcd(m, q-1)
    (Dickson, Linear Groups, 1901; Artin, Geometric Algebra, 1957, ch. IV):
    |SL_m(q)| is that product without the divisor, and the centre of SL_m(q)
    is the gcd(m, q-1) scalar matrices of determinant 1."""
    order = q ** (m * (m - 1) // 2)
    for i in range(2, m + 1):
        order *= q**i - 1
    return order // gcd(m, q - 1)


def pgl_order(m: int, q: int) -> int:
    """|PGL_m(q)| = |GL_m(q)|/(q-1) = |SL_m(q)| = gcd(m, q-1) |PSL_m(q)|
    (Artin, Geometric Algebra, 1957, ch. IV)."""
    return gcd(m, q - 1) * psl_order(m, q)


@lru_cache(maxsize=None)
def build_group(group_id: GroupId) -> PermGroup:
    builder = {
        "symmetric": symmetric,
        "alternating": alternating,
        "mathieu": mathieu,
        "cyclic": cyclic,
        "dihedral": dihedral,
        "psl": psl,
        "pgl": pgl,
    }[group_id.family]
    return builder(*group_id.parameters)


_NAME_RE = re.compile(r"^([A-Z])(\d+)$")
_PROJ_RE = re.compile(r"^(PSL|PGL)\((\d+),(\d+)\)$")


def parse_group_spec(text: str) -> GroupId:
    """Parse names like M11, S7, A9, C5, D6, PSL(3,4), PGL(3,3).

    Case-insensitive; whitespace is ignored.
    """
    compact = re.sub(r"\s+", "", text).upper()
    match = _PROJ_RE.match(compact)
    if match:
        family = match.group(1).lower()
        return GroupId(family, (int(match.group(2)), int(match.group(3))))
    match = _NAME_RE.match(compact)
    if match:
        families = {"M": "mathieu", "S": "symmetric", "A": "alternating",
                    "C": "cyclic", "D": "dihedral"}
        family = families.get(match.group(1))
        if family is not None:
            return GroupId(family, (int(match.group(2)),))
    raise GroupSpecError(f"cannot parse group name {text!r}")
