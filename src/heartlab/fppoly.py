"""Polynomial arithmetic and factorization over prime fields F_p.

Polynomials are tuples of coefficients in [0, p), constant term first, with
no trailing zeros (the zero polynomial is the empty tuple).  Factorization
runs distinct-degree splitting first and then Cantor-Zassenhaus equal-degree
splitting, whose randomness comes from an explicit SplitMix64 stream.

Over F_2 (the MeatAxe's characteristic polynomials) ``factor`` works on
Python ints instead, bit i the coefficient of x^i: carry-less multiply,
divmod by shifts, squaring by spreading bits, and the trace map for
equal-degree splitting.  It draws the same stream and returns the same tuples
as the coefficient-tuple algorithm would.

For every other p (and for ``factor_degrees`` at p = 2, which the probe
calls), ``distinct_degree_split`` computes x^p mod f once on unreduced int
lists and gets each further Frobenius power as a product with the matrix of
x^(ip) mod f; it takes and returns tuples, and the gcds, the divisions and
the equal-degree splitting stay on tuples.
"""

from __future__ import annotations

from .rng import SplitMix64

Poly = tuple[int, ...]


def normalize(coeffs, p: int) -> Poly:
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def degree(f: Poly) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(f) - 1


def add(f: Poly, g: Poly, p: int) -> Poly:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % p
    return normalize(out, p)


def sub(f: Poly, g: Poly, p: int) -> Poly:
    out = list(f) + [0] * max(0, len(g) - len(f))
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return normalize(out, p)


def mul(f: Poly, g: Poly, p: int) -> Poly:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return normalize(out, p)


def poly_divmod(f: Poly, g: Poly, p: int) -> tuple[Poly, Poly]:
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


def poly_mod(f: Poly, g: Poly, p: int) -> Poly:
    return poly_divmod(f, g, p)[1]


def monic(f: Poly, p: int) -> Poly:
    if not f or f[-1] == 1:
        return f
    inv = pow(f[-1], p - 2, p)
    return normalize([c * inv for c in f], p)


def gcd(f: Poly, g: Poly, p: int) -> Poly:
    while g:
        f, g = g, poly_mod(f, g, p)
    return monic(f, p)


def derivative(f: Poly, p: int) -> Poly:
    return normalize([(i * c) % p for i, c in enumerate(f)][1:], p)


def pow_mod(base: Poly, exponent: int, modulus: Poly, p: int) -> Poly:
    result: Poly = (1,)
    base = poly_mod(base, modulus, p)
    while exponent:
        if exponent & 1:
            result = poly_mod(mul(result, base, p), modulus, p)
        base = poly_mod(mul(base, base, p), modulus, p)
        exponent >>= 1
    return result


_X: Poly = (0, 1)


def _combine(acc: list[int], coeffs, rows) -> list[int]:
    """acc plus the sum of c * row over zip(coeffs, rows), unreduced."""
    for c, row in zip(coeffs, rows):
        if c:
            for i, b in enumerate(row):
                acc[i] += c * b
    return acc


def _mulmod(a: list[int], b: list[int], table: list[list[int]], p: int) -> list[int]:
    """a * b mod f for coefficient lists of length n = deg f, where table[j]
    is x^(n + j) mod f: the product's high coefficients fold onto the table
    rows, with one % p per coefficient at the end."""
    n = len(a)
    prod = [0] * (2 * n - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                prod[i + j] += c * d
    return [c % p for c in _combine(prod[:n], prod[n:], table)]


def distinct_degree_split(f: Poly, p: int) -> list[tuple[int, Poly]]:
    """[(k, product of degree-k irreducible factors)] for squarefree monic f.

    x^p mod f costs one square-and-multiply; after that h -> h^p is F_p-linear
    modulo f, so each further Frobenius power is one product with the rows
    x^(ip) mod f (Berlekamp's Q-matrix; von zur Gathen and Gerhard, Modern
    Computer Algebra, ch. 14).  h stays reduced modulo the original f and is
    reduced modulo the shrinking remainder only before each gcd, which is
    valid because the remainder divides f.
    """
    f = monic(f, p)
    out = []
    n = degree(f)
    if n >= 2:
        top = [-c % p for c in f[:n]]  # x^n mod f

        def times_x(h: list[int]) -> list[int]:
            return [(a + h[-1] * b) % p for a, b in zip([0] + h[:-1], top)]

        table = [top]
        for _ in range(n - 2):
            table.append(times_x(table[-1]))
        # x^p mod f, left to right: square, then multiply by x for a 1 bit
        h = [0, 1] + [0] * (n - 2)
        for bit in bin(p)[3:]:
            h = _mulmod(h, h, table, p)
            if bit == "1":
                h = times_x(h)
        rows = [[1] + [0] * (n - 1), h]
        for _ in range(n - 2):
            rows.append(_mulmod(rows[-1], h, table, p))

        k = 1
        while 2 * k <= degree(f):
            g = gcd(sub(poly_mod(normalize(h, p), f, p), _X, p), f, p)
            if degree(g) > 0:
                out.append((k, g))
                f = poly_divmod(f, g, p)[0]
            k += 1
            if 2 * k <= degree(f):
                h = [c % p for c in _combine([0] * n, h, rows)]
    if degree(f) > 0:
        out.append((degree(f), f))
    return out


def factor_degrees(f: Poly, p: int) -> list[int]:
    """Degrees (with multiplicity) of the irreducible factors of squarefree f."""
    out = []
    for k, product in distinct_degree_split(f, p):
        out.extend([k] * (degree(product) // k))
    return sorted(out)


def _random_poly(max_degree: int, p: int, rng: SplitMix64) -> Poly:
    while True:
        coeffs = [rng.below(p) for _ in range(max_degree + 1)]
        f = normalize(coeffs, p)
        if degree(f) >= 1:
            return f


def _equal_degree_split(f: Poly, k: int, p: int, rng: SplitMix64) -> list[Poly]:
    """Cantor-Zassenhaus for odd p: split a product of distinct degree-k irreducibles."""
    if degree(f) == k:
        return [monic(f, p)]
    while True:
        r = _random_poly(degree(f) - 1, p, rng)
        s = pow_mod(r, (p**k - 1) // 2, f, p)
        candidate = gcd(sub(s, (1,), p), f, p)
        if 0 < degree(candidate) < degree(f):
            cofactor = poly_divmod(f, candidate, p)[0]
            return _equal_degree_split(candidate, k, p, rng) + _equal_degree_split(
                cofactor, k, p, rng
            )


def _pth_root(f: Poly, p: int) -> Poly:
    # f has zero derivative, so f = g(x^p); coefficients are fixed by Frobenius
    return normalize([f[i] for i in range(0, len(f), p)], p)


def factor(f: Poly, p: int, rng: SplitMix64) -> list[tuple[Poly, int]]:
    """Full monic factorization [(irreducible, multiplicity)], sorted.

    Squarefree part f / gcd(f, f'), then distinct-degree and equal-degree
    splitting, and the p-th root when f' = 0.  p = 2 runs on ints (_factor2)
    with the same steps and the same draws from ``rng``.
    """
    if p == 2:
        found2 = _factor2(sum((c & 1) << i for i, c in enumerate(f)), rng)
        return sorted((_poly_of_int(g), m) for g, m in found2.items())
    f = monic(f, p)
    if degree(f) < 1:
        return []
    found: dict[Poly, int] = {}
    while degree(f) > 0:
        deriv = derivative(f, p)
        if not deriv:
            for g, m in factor(_pth_root(f, p), p, rng):
                found[g] = found.get(g, 0) + m * p
            break
        radical = poly_divmod(f, gcd(f, deriv, p), p)[0]
        for k, product in distinct_degree_split(radical, p):
            for g in _equal_degree_split(product, k, p, rng):
                m = 0
                while True:
                    quot, rem = poly_divmod(f, g, p)
                    if rem:
                        break
                    f = quot
                    m += 1
                found[g] = found.get(g, 0) + m
    return sorted(found.items())


# -- F_2[x] on ints: bit i is the coefficient of x^i ------------------------------


def _poly_of_int(f: int) -> Poly:
    return tuple(int(c) for c in reversed(format(f, "b")))


def clmul(a: int, b: int) -> int:
    """Carry-less product: multiplication in F_2[x]."""
    if a.bit_length() > b.bit_length():
        a, b = b, a
    out = 0
    while a:
        low = a & -a
        out ^= b << (low.bit_length() - 1)
        a ^= low
    return out


def _square2(a: int) -> int:
    # squaring over F_2 spreads the coefficients: x^i -> x^(2i)
    return int("0".join(format(a, "b")), 2)


def _divmod2(a: int, m: int) -> tuple[int, int]:
    q = 0
    dm = m.bit_length()
    while True:
        shift = a.bit_length() - dm
        if shift < 0:
            return q, a
        q |= 1 << shift
        a ^= m << shift


def _mod2(a: int, m: int) -> int:
    dm = m.bit_length()
    while True:
        shift = a.bit_length() - dm
        if shift < 0:
            return a
        a ^= m << shift


def _sqrt2(f: int) -> int:
    # f = g(x)^2 = g(x^2) has only even-degree terms; keep every other one
    return int(format(f, "b")[::2], 2)


def _gcd2(a: int, b: int) -> int:
    # every nonzero F_2 polynomial is monic
    while b:
        a, b = b, _mod2(a, b)
    return a


def _distinct_degree_split2(f: int) -> list[tuple[int, int]]:
    """distinct_degree_split for p = 2 on ints."""
    out = []
    h = _mod2(0b10, f)
    k = 0
    while f.bit_length() > 1 and 2 * (k + 1) <= f.bit_length() - 1:
        k += 1
        h = _mod2(_square2(h), f)
        g = _gcd2(h ^ 0b10, f)
        if g.bit_length() > 1:
            out.append((k, g))
            f = _divmod2(f, g)[0]
            h = _mod2(h, f)
    if f.bit_length() > 1:
        out.append((f.bit_length() - 1, f))
    return out


def _equal_degree_split2(f: int, k: int, rng: SplitMix64) -> list[int]:
    """Cantor-Zassenhaus over F_2 with the trace map r + r^2 + ... + r^(2^(k-1)).

    Draws the same stream as _random_poly(deg f - 1, 2, rng): the i-th draw is
    the coefficient of x^i, redrawn whole while the degree is below 1.
    """
    n = f.bit_length() - 1
    if n == k:
        return [f]
    while True:
        r = 0
        while r < 2:
            r = sum(rng.below(2) << i for i in range(n))
        t = 0
        term = _mod2(r, f)
        for _ in range(k):
            t ^= term
            term = _mod2(_square2(term), f)
        candidate = _gcd2(t, f)
        if 1 < candidate.bit_length() <= n:
            cofactor = _divmod2(f, candidate)[0]
            return _equal_degree_split2(candidate, k, rng) + _equal_degree_split2(
                cofactor, k, rng
            )


def _factor2(f: int, rng: SplitMix64) -> dict[int, int]:
    """factor() for p = 2 on ints: {irreducible: multiplicity}."""
    found: dict[int, int] = {}
    while f.bit_length() > 1:
        # f' keeps the odd-degree terms, each moved down one degree
        deriv = (f >> 1) & int("01" * (f.bit_length() // 2 + 1), 2)
        if not deriv:
            for g, m in _factor2(_sqrt2(f), rng).items():
                found[g] = found.get(g, 0) + 2 * m
            break
        radical = _divmod2(f, _gcd2(f, deriv))[0]
        for k, product in _distinct_degree_split2(radical):
            for g in _equal_degree_split2(product, k, rng):
                m = 0
                while True:
                    quot, rem = _divmod2(f, g)
                    if rem:
                        break
                    f = quot
                    m += 1
                found[g] = found.get(g, 0) + m
    return found
