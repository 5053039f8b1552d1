"""Arithmetic in GF(p^r) and enumeration of projective space points.

Elements are coefficient vectors over F_p modulo a fixed monic irreducible
polynomial.  The modulus is the lexicographically smallest monic irreducible
of the requested degree (coefficients compared constant term first), which is
reproducible without any lookup table; anyone comparing against a system that
uses Conway polynomials has to re-map elements.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from . import fppoly


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FieldSpec:
    """GF(p^r) with a fixed monic irreducible modulus of degree r."""

    def __init__(self, p: int, r: int, modulus: tuple[int, ...]):
        self.p = p
        self.r = r
        self.q = p**r
        self.modulus = modulus  # length r+1, monic
        self._inv_cache: dict[tuple[int, ...], tuple[int, ...]] = {}

    def __repr__(self) -> str:
        return f"FieldSpec(GF({self.p}^{self.r}))"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.r, self.modulus) == (other.p, other.r, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.r, self.modulus))

    # -- element construction ------------------------------------------------

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.r)

    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.r - 1))

    def from_int(self, value: int) -> "FieldElement":
        """Element with index ``value`` in base-p digit order (constant digit first)."""
        if not 0 <= value < self.q:
            raise ValueError("index out of range")
        coeffs = []
        for _ in range(self.r):
            coeffs.append(value % self.p)
            value //= self.p
        return FieldElement(self, tuple(coeffs))

    # -- arithmetic on coefficient tuples -------------------------------------

    def _add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def _mul(self, a, b):
        p, r = self.p, self.r
        prod = [0] * (2 * r - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce modulo the monic modulus
        for k in range(2 * r - 2, r - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for i in range(r):
                    prod[k - r + i] = (prod[k - r + i] - c * self.modulus[i]) % p
        return tuple(prod[:r])

    def _inv(self, a):
        if all(c == 0 for c in a):
            raise ZeroDivisionError("inversion of zero field element")
        cached = self._inv_cache.get(a)
        if cached is None:
            # a^(q-2) by square and multiply
            result = (1,) + (0,) * (self.r - 1)
            base, k = a, self.q - 2
            while k:
                if k & 1:
                    result = self._mul(result, base)
                base = self._mul(base, base)
                k >>= 1
            self._inv_cache[a] = cached = result
        return cached


class FieldElement:
    """An element of GF(p^r) as a coefficient vector (constant term first)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other: "FieldElement") -> None:
        if self.field != other.field:
            raise ValueError("elements of different fields")

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.field, self.field._add(self.coeffs, other.coeffs))

    def __neg__(self):
        return FieldElement(self.field, self.field._neg(self.coeffs))

    def __mul__(self, other):
        self._check(other)
        return FieldElement(self.field, self.field._mul(self.coeffs, other.coeffs))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field._inv(self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def index(self) -> int:
        """Base-p digit encoding; inverse of FieldSpec.from_int."""
        value = 0
        for c in reversed(self.coeffs):
            value = value * self.field.p + c
        return value

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"FieldElement{self.coeffs}"


@lru_cache(maxsize=None)
def make_field(p: int, r: int) -> FieldSpec:
    """GF(p^r) with the lexicographically smallest monic irreducible modulus.

    Candidate moduli x^r + c_{r-1} x^{r-1} + ... + c_0 are compared by the
    tuple (c_0, ..., c_{r-1}), low-degree coefficient first.  A candidate is
    irreducible iff it is squarefree with one factor of degree r; c_0 = 0
    means x divides it, which rules it out before any factoring.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 1 <= r <= 8:
        raise ValueError("extension degree must be in 1..8")
    if r == 1:
        return FieldSpec(p, 1, (0, 1))  # modulus x, i.e. the prime field
    for tail in product(range(p), repeat=r):
        modulus = tail + (1,)
        if tail[0] and fppoly.is_squarefree(modulus, p) and fppoly.factor_degrees(modulus, p) == [r]:
            return FieldSpec(p, r, modulus)
    raise AssertionError("no irreducible polynomial found")  # cannot happen


class ProjPoint:
    """Point of P^(m-1)(F_q): canonical coordinates, first nonzero entry 1."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[FieldElement, ...]):
        self.coords = coords

    def key(self) -> tuple[int, ...]:
        return tuple(c.index() for c in self.coords)

    def __eq__(self, other) -> bool:
        return isinstance(other, ProjPoint) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"ProjPoint{self.key()}"


def canonicalize(coords) -> ProjPoint:
    """Scale a nonzero vector so its first nonzero coordinate is 1."""
    coords = tuple(coords)
    pivot = None
    for c in coords:
        if not c.is_zero():
            pivot = c
            break
    if pivot is None:
        raise ValueError("cannot canonicalize the zero vector")
    scale = pivot.inverse()
    return ProjPoint(tuple(scale * c for c in coords))


def projective_points(field: FieldSpec, m: int) -> list[ProjPoint]:
    """All points of P^(m-1)(F_q), sorted by coordinate key; length (q^m-1)/(q-1)."""
    if m < 2:
        raise ValueError("projective space needs m >= 2")
    points = []
    one = field.one()
    zero = field.zero()
    for chart in range(m):
        # first nonzero coordinate at position `chart`, normalized to 1
        free = m - chart - 1
        for tail_idx in product(range(field.q), repeat=free):
            tail = tuple(field.from_int(i) for i in tail_idx)
            points.append(ProjPoint((zero,) * chart + (one,) + tail))
    points.sort(key=ProjPoint.key)
    return points
