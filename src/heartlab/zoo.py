"""Constructors for the group families under study.

Every constructor returns a plain PermGroup on 0-indexed points, built with
the family's closed-form order so that its stabilizer chain comes from the
known-order loop of ``perms`` (each formula's source is cited in its
constructor's docstring; the test suite checks every formula against the
deterministic chain).  Mathieu groups ship with classical hard-coded
generator permutations (transcribed 1-indexed from the literature); the test
suite certifies their orders,
degrees and transitivity rather than taking the transcription on faith.
PSL/PGL act on the canonical projective points of ``fields.projective_points``
via images of standard SL/GL generator matrices; the point labeling table is
attached to the returned group as ``point_labels``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, gcd
import re

from .fields import FieldElement, FieldSpec, make_field, projective_points, canonicalize
from .perms import PermGroup, Permutation, from_cycles

MATHIEU_DEGREES = (11, 12, 22, 23, 24)

# Conway et al., ATLAS of Finite Groups (1985): |M11|, |M12|, |M22|, |M23|, |M24|
MATHIEU_ORDERS = {11: 7920, 12: 95040, 22: 443520, 23: 10200960, 24: 244823040}

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
        elif fam == "mathieu":
            if len(params) != 1 or params[0] not in MATHIEU_DEGREES:
                raise GroupSpecError(f"no Mathieu group of degree {params}")
        elif fam in ("psl", "pgl"):
            if len(params) != 2:
                raise GroupSpecError(f"{fam} needs (m, q)")
            m, q = params
            if m < 2 or prime_power_decomposition(q) is None:
                raise GroupSpecError(f"bad {fam} parameters (m={m}, q={q})")
            if q**m > 10**5:
                raise GroupSpecError(f"(m={m}, q={q}) exceeds the supported scale q^m <= 1e5")
        else:
            raise GroupSpecError(f"unknown family {fam!r}")

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

    def build(self) -> PermGroup:
        return build_group(self)


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


def symmetric(n: int) -> PermGroup:
    """S_n, of order n!, generated by (0 1) and the n-cycle."""
    if n < 2:
        raise GroupSpecError("symmetric group needs n >= 2")
    gens = [from_cycles(n, [(0, 1)])]
    if n > 2:
        gens.append(from_cycles(n, [tuple(range(n))]))
    return PermGroup(gens, order=factorial(n))


def alternating(n: int) -> PermGroup:
    """A_n, of order n!/2 (the even permutations, index 2 in S_n), generated
    by (0 1 2) and an (n or n-1)-cycle of odd length."""
    if n < 3:
        raise GroupSpecError("alternating group needs n >= 3")
    gens = [from_cycles(n, [(0, 1, 2)])]
    if n > 3:
        long = tuple(range(n)) if n % 2 == 1 else tuple(range(1, n))
        gens.append(from_cycles(n, [long]))
    return PermGroup(gens, order=factorial(n) // 2)


def cyclic(n: int) -> PermGroup:
    """C_n, of order n, generated by the n-cycle."""
    if n < 2:
        raise GroupSpecError("cyclic group needs n >= 2")
    return PermGroup([from_cycles(n, [tuple(range(n))])], order=n)


def dihedral(n: int) -> PermGroup:
    """Dihedral group of order 2n acting on the n vertices of a cycle: the n
    rotations and the n reflections."""
    if n < 3:
        raise GroupSpecError("dihedral group needs n >= 3")
    rotation = from_cycles(n, [tuple(range(n))])
    reflection = Permutation([(-i) % n for i in range(n)])
    return PermGroup([rotation, reflection], order=2 * n)


def mathieu(n: int) -> PermGroup:
    """M_n with the order of ``MATHIEU_ORDERS`` (ATLAS of Finite Groups)."""
    if n not in MATHIEU_DEGREES:
        raise GroupSpecError(f"no Mathieu group of degree {n}")
    gens = [from_cycles(n, cycles, shift=-1) for cycles in _MATHIEU_CYCLES[n]]
    return PermGroup(gens, order=MATHIEU_ORDERS[n])


# -- projective linear groups -------------------------------------------------


def _primitive_element(field: FieldSpec) -> FieldElement:
    """Smallest-index generator of the multiplicative group."""
    if field.q == 2:
        return field.one()
    target = field.q - 1
    for idx in range(2, field.q):
        a = field.from_int(idx)
        order, b = 1, a
        while b != field.one():
            b = b * a
            order += 1
        if order == target:
            return a
    raise AssertionError("multiplicative group of a finite field is cyclic")


def _mat_vec(mat, vec, field: FieldSpec):
    m = len(vec)
    out = []
    for i in range(m):
        acc = field.zero()
        for j in range(m):
            acc = acc + mat[i][j] * vec[j]
        out.append(acc)
    return tuple(out)


def _projective_permutation(mat, points, index_of, field: FieldSpec) -> Permutation:
    images = []
    for pt in points:
        image = canonicalize(_mat_vec(mat, pt.coords, field))
        images.append(index_of[image.key()])
    return Permutation(images)


def _linear_generators(m: int, field: FieldSpec, include_pgl: bool):
    """Standard generator matrices: transvections plus a signed basis cycle,
    and (for PGL) a diagonal matrix with primitive-element determinant.

    Over a proper extension field a single transvection is not enough (its
    entries only span a subfield), so one transvection x_{12}(w^k) is emitted
    per F_p-basis power w^k of the primitive element w.
    """
    zero, one = field.zero(), field.one()
    omega = _primitive_element(field)

    mats = []
    scale = one
    for _ in range(field.r):
        transvection = [[one if i == j else zero for j in range(m)] for i in range(m)]
        transvection[0][1] = scale
        mats.append(transvection)
        scale = scale * omega

    cycle = [[zero] * m for _ in range(m)]
    for i in range(m - 1):
        cycle[i + 1][i] = one
    sign = one if (m - 1) % 2 == 0 else -one
    cycle[0][m - 1] = sign
    mats.append(cycle)

    if include_pgl:
        diag = [[one if i == j else zero for j in range(m)] for i in range(m)]
        diag[0][0] = omega
        mats.append(diag)
    return mats


def _projective_group(m: int, q: int, include_pgl: bool) -> PermGroup:
    decomposition = prime_power_decomposition(q)
    if decomposition is None:
        raise GroupSpecError(f"{q} is not a prime power")
    if m < 2:
        raise GroupSpecError("projective groups need m >= 2")
    if q**m > 10**5:
        raise GroupSpecError(f"(m={m}, q={q}) exceeds the supported scale q^m <= 1e5")
    p, r = decomposition
    field = make_field(p, r)
    points = projective_points(field, m)
    index_of = {pt.key(): i for i, pt in enumerate(points)}
    mats = _linear_generators(m, field, include_pgl)
    gens = [_projective_permutation(mat, points, index_of, field) for mat in mats]
    order = pgl_order(m, q) if include_pgl else psl_order(m, q)
    group = PermGroup(gens, order=order)
    group.point_labels = points
    return group


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
