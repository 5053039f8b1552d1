"""Polynomials over prime fields F_p: distinct-degree splitting for any p,
full factorization over F_2 only.

Polynomials are tuples of coefficients in [0, p), constant term first, with
no trailing zeros (the zero polynomial is the empty tuple).

The probe reads only factor degrees of f mod p (Dedekind), for any p, and
learns whether f mod p is squarefree from Res(f, f') over Z (``probe``);
``make_field`` needs no squarefree test, since ``factor_degrees`` tells
irreducible f from every other f.
``distinct_degree_split`` packs each residue modulo f into one int
(Kronecker substitution), its slots kept lazily in [0, 2p) and reduced all
at once by a packed Barrett step, so a product modulo f is one int
multiply, a fold of the high slots and two such steps; it computes x^p mod
f once and gets each further Frobenius power from the rows x^(ip) mod f.
Its gcds and exact divisions run Euclid on int lists of exact residues.

The MeatAxe factors characteristic polynomials over F_2, where ``factor``
works on Python ints, bit i the coefficient of x^i: carry-less multiply,
divmod by shifts, squaring by spreading bits, distinct-degree splitting, and
Cantor-Zassenhaus equal-degree splitting with the trace map, whose randomness
comes from an explicit SplitMix64 stream.
"""

from __future__ import annotations

import operator

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


def monic(f: Poly, p: int) -> Poly:
    if not f or f[-1] == 1:
        return f
    inv = pow(f[-1], p - 2, p)
    return normalize([c * inv for c in f], p)


def _euclid(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of two coefficient lists (entries in [0, p), no trailing
    zeros) by Euclid; both lists are consumed.  Each division step takes one
    inverse of the divisor's leading coefficient, cancels single top terms in
    place, and the last two quotient terms q1 x + q0 in one pass: after the
    first step the dividend is only one degree above the divisor."""
    while b:
        db = len(b) - 1
        if not db:
            return [1]
        inv = pow(b[-1], -1, p)
        while len(a) > db + 2:
            c = a.pop() * inv % p
            if c:
                shift = len(a) - db
                a[shift:] = [(x - c * y) % p for x, y in zip(a[shift:], b)]
        if len(a) > db:
            q1 = a.pop() * inv % p if len(a) > db + 1 else 0
            q0 = (a.pop() - q1 * b[-2]) * inv % p
            a = [(x - q0 * y - q1 * z) % p for x, y, z in zip(a, b, [0] + b)]
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _divide_exact(f: list[int], g: list[int], p: int) -> list[int]:
    """f / g for monic g dividing f."""
    rem = list(f)
    dg = len(g) - 1
    quot = [0] * (len(f) - dg)
    for shift in range(len(quot) - 1, -1, -1):
        c = quot[shift] = rem.pop()
        if c:
            rem[shift:] = [(x - c * y) % p for x, y in zip(rem[shift:], g)]
    return quot


def distinct_degree_split(f: Poly, p: int) -> list[tuple[int, Poly]]:
    """[(k, product of degree-k irreducible factors)] for squarefree monic f.

    For any monic f of degree r, squarefree or not, the split is [(r, f)]
    exactly when f is irreducible: a reducible f has irreducible factors of
    degree at most r/2, and at k the least of these degrees the remainder is
    still f (no factor of smaller degree exists), so gcd(x^(p^k) - x, f) is
    a proper factor and (k, ...) is listed.

    A residue modulo f (degree n) is one int with n slots of w bits, slot i
    the coefficient of x^i (Kronecker substitution; von zur Gathen and
    Gerhard, Modern Computer Algebra, sec. 8.4), so a product is one int
    multiply.  Slots are kept lazily in [0, 2p): ``red`` brings every slot
    of an int below 2p at once by a packed Barrett step, and only the
    coefficients Euclid reads are reduced exactly.  A product modulo f is
    red of the product, then its high slots folded onto the rows x^(n + j)
    mod f, then red again.  x^p mod f costs one square-and-multiply, with
    multiplying by x a shift; after that h -> h^p is F_p-linear modulo f, so
    each further Frobenius power is the sum of h_i times the row x^(ip) mod f
    (Berlekamp's Q-matrix; ibid., ch. 14).  h stays reduced modulo the
    original f; the gcds and divisions run modulo the shrinking remainder,
    which divides f.
    """
    f = monic(f, p)
    out = []
    n = degree(f)
    if n >= 2:
        # every slot red() reads or the Euclid unpacks is below bound: a
        # product of two lazy residues has slots up to n (2p - 1)^2, and a
        # fold adds a lazy low slot to n lazy products
        bound = 2 * p + n * (2 * p - 1) ** 2
        s = bound.bit_length()
        m = (1 << s) // p
        # floor(v m / 2^s) <= v / p sits in the low qbits of a slot, and the
        # fractional bits of the slot above fill the s bits under it
        qbits = (bound * m >> s).bit_length()
        w = s + qbits
        slot = (1 << w) - 1
        low = (1 << (w * n)) - 1
        top = w * (n - 1)
        offsets = range(0, w * n, w)
        qmask = ((1 << qbits) - 1) * sum(1 << o for o in range(0, 2 * w * n, w))

        def red(v: int) -> int:
            """v with every slot below 2p and congruent mod p (Barrett): a
            slot v_i < 2^s loses q_i p, q_i = floor(v_i m / 2^s), which is at
            most v_i and more than v_i - 2p."""
            return v - ((v * m >> s) & qmask) * p

        def fold(h: int) -> int:
            """h mod f, lazy, for h a product of two lazy residues (2n slots)."""
            h = red(h)
            acc = h & low
            h >>= w * n
            for t in table:
                if not h:
                    break
                acc += (h & slot) * t
                h >>= w
            return red(acc)

        def coefficients(h: int) -> list[int]:
            return [(h >> o & slot) % p for o in offsets]

        # table[j] = x^(n + j) mod f for j < n: x times the row before
        t0 = sum(-c % p << o for c, o in zip(f, offsets))
        table = [t0]
        for _ in range(n - 1):
            t = table[-1]
            table.append(red(((t << w) & low) + (t >> top) * t0))

        # x^p mod f, left to right: square, then multiply by x for a 1 bit
        h = 1 << w
        for bit in bin(p)[3:]:
            h *= h
            if bit == "1":
                h <<= w
            h = fold(h)
        rows = [1, h]
        for _ in range(n - 2):
            rows.append(fold(rows[-1] * h))
        power = coefficients(h)  # x^(p^k) mod f

        rem = list(f)
        k = 1
        while 2 * k <= len(rem) - 1:
            diff = list(power)
            diff[1] = (diff[1] - 1) % p
            while diff and not diff[-1]:
                diff.pop()
            g = _euclid(list(rem), diff, p)
            if len(g) > 1:
                out.append((k, tuple(g)))
                rem = _divide_exact(rem, g, p)
            k += 1
            if 2 * k <= len(rem) - 1:
                power = coefficients(sum(map(operator.mul, power, rows)))
        f = tuple(rem)
    if degree(f) > 0:
        out.append((degree(f), f))
    return out


def factor_degrees(f: Poly, p: int) -> list[int]:
    """Degrees (with multiplicity) of the irreducible factors of squarefree f;
    for any f of degree r, [r] exactly when f is irreducible."""
    out = []
    for k, product in distinct_degree_split(f, p):
        out.extend([k] * (degree(product) // k))
    return sorted(out)


def factor(f: Poly, p: int, rng: SplitMix64) -> list[tuple[Poly, int]]:
    """Full monic factorization [(irreducible, multiplicity)] over F_2, sorted.

    Squarefree part f / gcd(f, f'), then distinct-degree and equal-degree
    splitting, and the square root when f' = 0, all on ints (_factor2), with
    draws from ``rng``.  Only p = 2 is supported.
    """
    if p != 2:
        raise ValueError(f"factor supports p = 2 only, got p = {p}")
    found = _factor2(sum((c & 1) << i for i, c in enumerate(f)), rng)
    return sorted((_poly_of_int(g), m) for g, m in found.items())


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

    r has degree below deg f: one draw per coefficient, the i-th draw the
    coefficient of x^i, redrawn whole while the degree is below 1.
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
    """factor() on ints: {irreducible: multiplicity}."""
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
