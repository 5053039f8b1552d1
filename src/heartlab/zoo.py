"""The group families under study, built by one constructor.

``build_group(group_id)`` is the one way to build a group: it returns a plain
PermGroup on 0-indexed points, with the generators of ``group_id``'s family
and ``GroupId.order``, the family's closed-form order, which the stabilizer
chain of ``perms`` needs.  ``GroupId`` validates the parameters once, when it
is made.  Each formula's source is cited at ``GroupId.order``; the test suite
checks every formula against the deterministic Schreier-Sims oracle in
``tests/support.py``.  Mathieu groups ship with classical hard-coded
generator permutations (transcribed 1-indexed from the literature); the test
suite certifies their orders, degrees and transitivity rather than taking
the transcription on faith.
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

from .fields import FieldSpec, make_field, point_ranks, prime_power_decomposition, projective_points
from .perms import PermGroup, Permutation, from_cycles

# Conway et al., ATLAS of Finite Groups (1985): |M11|, |M12|, |M22|, |M23|, |M24|
MATHIEU_ORDERS = {11: 7920, 12: 95040, 22: 443520, 23: 10200960, 24: 244823040}
MATHIEU_DEGREES = tuple(MATHIEU_ORDERS)

# The largest n of S_n and A_n, and the largest q^m of PSL_m(q) and PGL_m(q).
SUPPORTED_SCALE = 10**5

_FAMILY_LETTERS = {"symmetric": "S", "alternating": "A", "mathieu": "M",
                   "cyclic": "C", "dihedral": "D"}

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
        built: the order ``build_group`` passes to its ``PermGroup``.
        S_n has order n!, A_n (index 2 in S_n) n!/2, C_n n and D_n 2n; the
        Mathieu orders are ``MATHIEU_ORDERS``.

        |SL_m(q)| = q^(m(m-1)/2) (q^2-1)(q^3-1)...(q^m-1) (Dickson, Linear
        Groups, 1901; Artin, Geometric Algebra, 1957, ch. IV).
        |PGL_m(q)| = |GL_m(q)|/(q-1) = |SL_m(q)|, and |PSL_m(q)| =
        |SL_m(q)|/gcd(m, q-1), since the centre of SL_m(q) is the gcd(m, q-1)
        scalar matrices of determinant 1 (Artin, ch. IV)."""
        fam, params = self.family, self.parameters
        if fam in ("psl", "pgl"):
            m, q = params
            order = q ** (m * (m - 1) // 2)
            for i in range(2, m + 1):
                order *= q**i - 1
            return order if fam == "pgl" else order // gcd(m, q - 1)
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
        return f"{_FAMILY_LETTERS[self.family]}{self.parameters[0]}"


def symmetric_generators(n: int) -> list[Permutation]:
    """(0 1) and the n-cycle (0 1 ... n-1): the generators of S_n in
    ``build_group`` and of the Jordan certificate in an S_n audit."""
    gens = [from_cycles(n, [(0, 1)])]
    if n > 2:
        gens.append(from_cycles(n, [tuple(range(n))]))
    return gens


def alternating_generators(n: int) -> list[Permutation]:
    """(0 1 2) and an (n or n-1)-cycle of odd length, (0 1 ... n-1) or
    (1 2 ... n-1): the generators of A_n in ``build_group`` and of the
    Jordan certificate in an A_n or S_n audit."""
    gens = [from_cycles(n, [(0, 1, 2)])]
    if n > 3:
        long = tuple(range(n)) if n % 2 == 1 else tuple(range(1, n))
        gens.append(from_cycles(n, [long]))
    return gens


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


def _generators(group_id: GroupId) -> list[Permutation]:
    """The generators of the group ``group_id`` names, one dispatch on its
    family: the n-cycle generates C_n, and with the reflection i -> -i, D_n."""
    fam, params = group_id.family, group_id.parameters
    if fam in ("psl", "pgl"):
        m, q = params
        field = make_field(*prime_power_decomposition(q))
        points = projective_points(field, m)
        return [_projective_permutation(mat, points, field)
                for mat in _linear_generators(m, field, include_pgl=fam == "pgl")]
    n = params[0]
    if fam == "symmetric":
        return symmetric_generators(n)
    if fam == "alternating":
        return alternating_generators(n)
    if fam == "mathieu":
        return [from_cycles(n, cycles, shift=-1) for cycles in _MATHIEU_CYCLES[n]]
    rotation = from_cycles(n, [tuple(range(n))])
    if fam == "cyclic":
        return [rotation]
    return [rotation, Permutation([(-i) % n for i in range(n)])]


@lru_cache(maxsize=None)
def build_group(group_id: GroupId) -> PermGroup:
    """The one group constructor: the group ``group_id`` names, on 0-indexed
    points, with its closed-form order ``group_id.order``."""
    return PermGroup(_generators(group_id), order=group_id.order)


# CPython's default int/str conversion limit, checked by the group-name and
# polynomial parsers on every interpreter, before any int()
MAX_DIGITS = 4300
# Regex sources, compiled and cached by re at the first parse rather than at
# import.  A character outside the name grammar's alphabet:
_UNREADABLE = r"[^A-Za-z0-9(), \t\n\r\f\v]"
_NAME = r"([MSACD])([0-9]+)|(PSL|PGL)\(([0-9]+),([0-9]+)\)"


def parse_group_spec(text: str) -> GroupId:
    """Parse names like M11, S7, A9, C5, D6, PSL(3,4), PGL(3,3).

    ASCII only and case-insensitive; ASCII whitespace is ignored.  A number
    of more than ``MAX_DIGITS`` digits is refused before it is read.
    """
    bad = re.search(_UNREADABLE, text)
    if bad:
        raise GroupSpecError(
            f"cannot parse group name {text!r}: unexpected character {bad.group()!r} "
            f"(at position {bad.start()})"
        )
    compact = re.sub(r"\s+", "", text).upper()
    if re.search(f"[0-9]{{{MAX_DIGITS + 1}}}", compact):
        raise GroupSpecError(f"cannot parse group name: a number has more than {MAX_DIGITS} digits")
    match = re.fullmatch(_NAME, compact)
    if match is None:
        raise GroupSpecError(f"cannot parse group name {text!r}")
    letter, n, projective, m, q = match.groups()
    if projective:
        return GroupId(projective.lower(), (int(m), int(q)))
    family = next(f for f, f_letter in _FAMILY_LETTERS.items() if f_letter == letter)
    return GroupId(family, (int(n),))
