"""Arithmetic in GF(p^r) on integer-coded elements, and projective points.

The element c_0 + c_1 x + ... + c_{r-1} x^(r-1), a coefficient vector over
F_p modulo a fixed monic irreducible polynomial, is coded as its index
c_0 + c_1 p + ... + c_{r-1} p^(r-1), an int in [0, q).  The modulus is the
lexicographically smallest monic irreducible of the requested degree
(coefficients compared constant term first), which is reproducible without
any lookup table; anyone comparing against a system that uses Conway
polynomials has to re-map elements.

Addition is XOR when p = 2, addition mod p when r = 1, and digit by digit
otherwise.  Multiplication and inversion read log/antilog tables to the base
of the field's smallest-index primitive element, built from coefficient
vectors multiplied modulo the modulus (for p = 2, a carry-less product of the
indices' bits).  A ``FieldSpec`` builds its tables on first use, so
``make_field`` stays cheap and every table hangs off the ``FieldSpec`` it
returns.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product
import operator

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
    """GF(p^r) with a fixed monic irreducible modulus of degree r; its
    elements are the indices 0..q-1 of the module docstring."""

    def __init__(self, p: int, r: int, modulus: tuple[int, ...]):
        self.p = p
        self.r = r
        self.q = p**r
        self.modulus = modulus  # length r+1, monic
        if p == 2:
            self.add = operator.xor
            self._modulus_bits = sum(c << i for i, c in enumerate(modulus))
        elif r == 1:
            self.add = lambda a, b: (a + b) % p
        else:
            self.add = self._add_digits

    def __repr__(self) -> str:
        return f"FieldSpec(GF({self.p}^{self.r}))"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.r, self.modulus) == (other.p, other.r, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.r, self.modulus))

    def digits(self, a: int) -> tuple[int, ...]:
        """The coefficient vector (c_0, ..., c_{r-1}) of index ``a``."""
        out = []
        for _ in range(self.r):
            a, c = divmod(a, self.p)
            out.append(c)
        return tuple(out)

    def _add_digits(self, a: int, b: int) -> int:
        p, total, place = self.p, 0, 1
        while a or b:
            a, x = divmod(a, p)
            b, y = divmod(b, p)
            total += (x + y) % p * place
            place *= p
        return total

    def _poly_mul(self, a: int, b: int) -> int:
        """a * b as coefficient vectors multiplied modulo the modulus: the
        product the tables are built from."""
        p, r = self.p, self.r
        if r == 1:
            return a * b % p
        if p == 2:  # F_2[x] on ints: the index's bits are the coefficients
            return fppoly._mod2(fppoly.clmul(a, b), self._modulus_bits)
        prod = [0] * (2 * r - 1)
        db = self.digits(b)
        for i, x in enumerate(self.digits(a)):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] += x * y
        for k in range(2 * r - 2, r - 1, -1):
            c = prod[k] % p
            if c:
                for i in range(r):
                    prod[k - r + i] -= c * self.modulus[i]
        value = 0
        for c in reversed(prod[:r]):
            value = value * p + c % p
        return value

    @cached_property
    def primitive(self) -> int:
        """The smallest index a >= 2 with a^((q-1)/l) != 1 for every prime
        l dividing q - 1, a generator of the multiplicative group (1 in F_2)."""
        n = self.q - 1
        if n == 1:
            return 1
        primes = [ell for ell in range(2, n + 1) if n % ell == 0 and is_prime(ell)]
        for a in range(2, self.q):
            if all(self._power(a, n // ell) != 1 for ell in primes):
                return a
        raise AssertionError("multiplicative group of a finite field is cyclic")

    def _power(self, a: int, k: int) -> int:
        result = 1
        while k:
            if k & 1:
                result = self._poly_mul(result, a)
            a = self._poly_mul(a, a)
            k >>= 1
        return result

    @cached_property
    def exp(self) -> list[int]:
        """exp[k] = w^k for the primitive element w and 0 <= k < 2(q - 1),
        so that a sum of two logs indexes it without reduction."""
        w, table = self.primitive, [1]
        for _ in range(self.q - 2):
            table.append(self._poly_mul(table[-1], w))
        return table * 2

    @cached_property
    def log(self) -> list[int | None]:
        """log[a] = k with w^k = a for a != 0; log[0] is None."""
        table: list[int | None] = [None] * self.q
        for k, a in enumerate(self.exp[: self.q - 1]):
            table[a] = k
        return table

    def mul(self, a: int, b: int) -> int:
        if a and b:
            log = self.log
            return self.exp[log[a] + log[b]]
        return 0

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inversion of zero field element")
        return self.exp[self.q - 1 - self.log[a]]


@lru_cache(maxsize=None)
def make_field(p: int, r: int) -> FieldSpec:
    """GF(p^r) with the lexicographically smallest monic irreducible modulus.

    Candidate moduli x^r + c_{r-1} x^{r-1} + ... + c_0 are compared by the
    tuple (c_0, ..., c_{r-1}), low-degree coefficient first.  A candidate is
    irreducible iff ``factor_degrees`` gives one factor of degree r, also
    when it is not squarefree (``distinct_degree_split``); c_0 = 0 means x
    divides it, which rules it out before any factoring.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 1 <= r <= 8:
        raise ValueError("extension degree must be in 1..8")
    if r == 1:
        return FieldSpec(p, 1, (0, 1))  # modulus x, i.e. the prime field
    for tail in product(range(p), repeat=r):
        modulus = tail + (1,)
        if tail[0] and fppoly.factor_degrees(modulus, p) == [r]:
            return FieldSpec(p, r, modulus)
    raise AssertionError("no irreducible polynomial found")  # cannot happen


def projective_points(field: FieldSpec, m: int) -> list[tuple[int, ...]]:
    """All points of P^(m-1)(F_q) as index tuples whose first nonzero
    coordinate is 1, sorted; (q^m-1)/(q-1) of them."""
    if m < 2:
        raise ValueError("projective space needs m >= 2")
    points = []
    # a later first nonzero coordinate sorts first; tails come in order
    for chart in reversed(range(m)):
        head = (0,) * chart + (1,)
        points.extend(head + tail for tail in product(range(field.q), repeat=m - chart - 1))
    return points


def point_ranks(field: FieldSpec, m: int, vectors) -> list[int]:
    """The index in ``projective_points(field, m)`` of the point of each
    nonzero vector of length m, with no point list or lookup.

    Let a be the first nonzero coordinate of a vector, at position c.  The
    vector is scaled by 1/a in log space, exp[q - 1 - log a + log x] for each
    coordinate x.  Its index is the number of points whose first nonzero
    coordinate comes later, sum q^(m-1-c') over c' > c, plus the scaled
    coordinates after c read as the base-q digits of one number.
    """
    q, exp, log = field.q, field.exp, field.log
    top = q - 1
    offsets = [(q ** (m - 1 - c) - 1) // top for c in range(m)]  # charts after c
    ranks = []
    for vector in vectors:
        c = 0
        for a in vector:
            if a:
                break
            c += 1
        else:
            raise ValueError("a zero vector has no projective point")
        s = top - log[a]
        rank = 0
        for x in vector[c + 1:]:
            rank = rank * q + (exp[s + log[x]] if x else 0)
        ranks.append(offsets[c] + rank)
    return ranks
