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


def is_prime(n: int) -> bool:
    return prime_power_decomposition(n) == (n, 1)


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
        """The primitive element w = exp[1]."""
        return self.exp[1]

    @cached_property
    def exp(self) -> list[int]:
        """exp[k] = w^k for 0 <= k < 2(q - 1), so that a sum of two logs
        indexes it without reduction.  w is the first index a >= 2 (1 in F_2)
        whose powers, taken until they return to 1 but at most q - 1 times,
        fill the multiplicative group; a reducible modulus has none."""
        n = self.q - 1
        for a in range(2 if n > 1 else 1, self.q):
            table, x = [1], a
            while x != 1 and len(table) < n:
                table.append(x)
                x = self._poly_mul(x, a)
            if x == 1 and len(table) == n:
                return table * 2
        raise AssertionError(f"no element of order {n}: the modulus is reducible")

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
    tuple (c_0, ..., c_{r-1}), low-degree coefficient first; c_0 = 0 means x
    divides the candidate, which rules it out before any factoring.  The
    others are read up to the first nontrivial step of
    ``fppoly.distinct_degree_steps``, which is step r exactly when the
    candidate is irreducible, also when it is not squarefree: a reducible
    candidate has an irreducible factor of degree at most r/2, and at k the
    least such degree the rest is still the whole candidate (no factor of
    smaller degree exists), so gcd(x^(p^k) - x, candidate) is a proper
    factor and step k is nontrivial.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 1 <= r <= 8:
        raise ValueError("extension degree must be in 1..8")
    if r == 1:
        return FieldSpec(p, 1, (0, 1))  # modulus x, i.e. the prime field
    for tail in product(range(p), repeat=r):
        modulus = tail + (1,)
        if tail[0] and next(k for k, g in fppoly.distinct_degree_steps(modulus, p)
                            if len(g) > 1) == r:
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
