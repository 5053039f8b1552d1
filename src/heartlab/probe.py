"""Frobenius cycle-type probing of integer polynomials.

Reducing a squarefree integer polynomial modulo an unramified prime p and
reading off the degrees of its irreducible factors samples the cycle type of
a Frobenius element of the Galois group acting on the roots.  Observed types
lying outside a candidate group's exact cycle-type set disprove containment;
agreement is evidence, never proof, and the auditor never consumes it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress
from math import gcd, isqrt, log

from . import fppoly
from .perms import CLOSURE_LIMIT, CycleType, cycle_type, identity
from .zoo import MAX_DIGITS, SUPPORTED_SCALE, GroupId, build_group


class PolyParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients constant term first, degree >= 1."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if len(coeffs) < 2:
            raise ValueError("polynomial must have degree at least 1")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    def derivative(self) -> tuple[int, ...]:
        return tuple(i * c for i, c in enumerate(self.coeffs))[1:]


_COEFFICIENT_BOUND = 10**MAX_DIGITS  # the least integer of MAX_DIGITS + 1 digits
# Regex sources, compiled and cached by re at the first parse rather than at
# import, so a command that parses no polynomial does not pay for them.
# The leftmost character outside the grammar, or the start of an over-long literal:
_UNREADABLE = rf"[^0-9xX+\-*^() \t]|(?<![0-9])[0-9]{{{MAX_DIGITS + 1}}}"
# one signed term, each part tried only after the parts the grammar puts before it:
_TERM = r"""(?x)
    [ \t]*(?P<sign>[+-]?)[ \t]*
    (?P<term>
      (?:(?P<coef>[0-9]+)[ \t]*(?:(?P<star>\*)[ \t]*)?)?
      (?:(?P<x>[xX])[ \t]*(?:(?P<caret>\^)[ \t]*(?:(?P<exp>[0-9]+)[ \t]*)?)?)?
    )"""


def parse_poly(text: str) -> IntPolynomial:
    """Parse signed integer-coefficient polynomials in x.

    Grammar: terms joined by + and -, each term an integer, x, x^k, or a
    coefficient times a power of x ('*' optional: "2x^2" == "2*x^2").  The
    text holds only the ASCII digits 0-9, x or X, + - * ^, spaces and tabs,
    and parentheses, which are allowed only around the whole expression.  An
    exponent above ``zoo.SUPPORTED_SCALE`` is refused before any coefficient
    list is built, and so is a literal or a combined coefficient of more
    than ``MAX_DIGITS`` digits.
    """
    bad = re.search(_UNREADABLE, text)
    if bad and len(bad[0]) > 1:
        raise PolyParseError(f"integer literal has more than {MAX_DIGITS} digits", bad.start())
    if bad:
        raise PolyParseError(f"unexpected character {bad[0]!r}", bad.start())
    start = len(text) - len(text.lstrip(" \t"))
    if start == len(text):
        raise PolyParseError("empty polynomial", 0)
    lo, hi = 0, len(text)
    if text[start] == "(":
        lo, hi = start + 1, len(text.rstrip(" \t")) - 1
        if text[hi] != ")":
            raise PolyParseError("unbalanced parenthesis", start)
    parens = [k for k in (text.find("(", lo, hi), text.find(")", lo, hi)) if k >= 0]
    if parens:
        raise PolyParseError("parentheses are only allowed around the whole expression",
                             start if lo else min(parens))
    if not text[lo:hi].strip(" \t"):
        raise PolyParseError("empty parentheses", 0)

    coeffs: dict[int, int] = {}
    last_term: dict[int, int] = {}  # exponent -> position of its last term
    term, i = re.compile(_TERM), lo
    while i < hi:
        m = term.match(text, i, hi)
        pos, i = m.start("term"), m.end()
        if coeffs and not m["sign"]:  # coeffs is empty only before the first term
            raise PolyParseError("expected '+' or '-' between terms", pos)
        if not m["term"]:
            if pos == hi:
                raise PolyParseError("dangling sign", m.start("sign"))
            raise PolyParseError("expected a coefficient or x", pos)
        if m["star"] and not m["x"]:
            raise PolyParseError("expected x after '*'", i if i < hi else m.start("star") + 1)
        if m["caret"] and not m["exp"]:
            raise PolyParseError("expected integer exponent after '^'", i if i < hi else pos)
        exponent = int(m["exp"]) if m["exp"] else 1 if m["x"] else 0
        if exponent > SUPPORTED_SCALE:  # no candidate acts on more points
            raise PolyParseError(f"exponent must be at most {SUPPORTED_SCALE}, got {exponent}",
                                 m.start("exp"))
        coeffs[exponent] = coeffs.get(exponent, 0) + int(m["sign"] + (m["coef"] or "1"))
        last_term[exponent] = pos

    for exponent, c in coeffs.items():
        if abs(c) >= _COEFFICIENT_BOUND:
            raise PolyParseError(
                f"coefficient of x^{exponent} has more than {MAX_DIGITS} digits",
                last_term[exponent])
    degree = max(coeffs)
    vector = [coeffs.get(k, 0) for k in range(degree + 1)]
    try:
        return IntPolynomial(tuple(vector))
    except ValueError as exc:
        raise PolyParseError(str(exc), 0) from exc


def format_poly(poly: IntPolynomial) -> str:
    """Canonical form with descending powers; parse(format(p)) == p."""
    text = ""
    for exponent in range(poly.degree, -1, -1):
        c = poly.coeffs[exponent]
        if c:
            sign = "-" if c < 0 else "+" if text else ""
            magnitude = abs(c)
            if exponent == 0:
                text += f"{sign}{magnitude}"
            else:
                power = "x" if exponent == 1 else f"x^{exponent}"
                text += sign + (power if magnitude == 1 else f"{magnitude}*{power}")
    return text


def primes_coprime_to(count: int, leading: int) -> list[int]:
    """The first ``count`` primes not dividing the leading coefficient.

    A sieve of Eratosthenes over [0, limit), the limit starting from
    Rosser's bound p_k < k (ln k + ln ln k) (k >= 6) and doubling until the
    range holds ``count`` primes that do not divide ``leading``.
    """
    limit = 16
    if count >= 6:
        limit = max(limit, int(count * (log(count) + log(log(count)))) + 1)
    while True:
        sieve = bytearray([1]) * limit
        sieve[:2] = b"\0\0"
        for q in range(2, isqrt(limit - 1) + 1):
            if sieve[q]:
                sieve[q * q::q] = bytes(len(range(q * q, limit, q)))
        out = [q for q in compress(range(limit), sieve) if leading % q]
        if len(out) >= count:
            return out[:count]
        limit *= 2


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """lc(b)^(deg a - deg b + 1) a mod b over Z, for deg a >= deg b."""
    lead = b[-1]
    r = list(a)
    for shift in range(len(a) - len(b), -1, -1):
        c = r.pop()
        r = [lead * x for x in r]
        r[shift:] = [x - c * y for x, y in zip(r[shift:], b)]
    while r and not r[-1]:
        r.pop()
    return r


def resultant(f: tuple[int, ...], g: tuple[int, ...]) -> int:
    """Res(f, g) of integer polynomials of degree >= 0 (coefficients constant
    term first, nonzero leading coefficient), by Collins' subresultant
    algorithm (Cohen, A Course in Computational Algebraic Number Theory,
    GTM 138, Alg. 3.3.7): each pseudo-remainder, divided by the previous
    divisor's leading coefficient times h^delta, is a subresultant, so it
    stays in Z and no larger than a minor of the Sylvester matrix;
    O(deg f deg g) coefficient operations.
    """
    a, b = list(f), list(g)
    sign = 1
    if len(a) < len(b):
        a, b = b, a
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -1
    lead, h = 1, 1
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -sign
        r = _pseudo_remainder(a, b)
        if not r:
            return 0
        divisor = lead * h**delta
        a, b = b, [c // divisor for c in r]
        lead = a[-1]
        if delta:
            h = lead**delta // h ** (delta - 1)
    da = len(a) - 1
    return sign * (b[0] ** da // h ** (da - 1) if da else 1)


def cycle_type_mod_p(poly: IntPolynomial, p: int, derivative_resultant: int) -> CycleType | None:
    """Cycle type of Frobenius at p, or None when p is ramified.

    Requires p coprime to the leading coefficient.  For such p, f mod p is
    squarefree exactly when p does not divide Res(f, f'), also when p
    divides deg f or f' vanishes mod p (the Sylvester matrix reduces mod p,
    and lc(f) is a unit).  ``derivative_resultant`` is Res(f, f'), which
    ``probe`` computes once per polynomial.

    The distinct-degree walk stops as soon as the degrees found and the sign
    of Frobenius fix the cycle type.  By Stickelberger's theorem (Swan,
    Pacific J. Math. 12 (1962), 1099-1106, Cor. 1), stated over any local
    field, Q_2 included, for f squarefree mod p Frobenius is an even
    permutation of the roots exactly when disc(f) = (-1)^(n(n-1)/2)
    Res(f, f') / lc(f) is a square in Q_p.  At odd p that is a square mod p
    (Euler's criterion); at p = 2 disc(f) is an odd 2-adic unit, a square
    exactly when it is 1 mod 8.  The walk reads disc(f) lc(f)^2, in the same
    square class, and a degree-j factor is a j-cycle, of sign (-1)^(j-1).
    After step k every factor of the rest, of degree r, has degree at least
    K = k + 1, so the rest has at most two factors when r < 3K, and the sign
    tells one factor, (-1)^(r-1), from two, (-1)^r.  The walk stops when
    r < 2K, when r < 3K and the sign is an r-cycle's, and when r is 2K or
    2K + 1 and the sign is that of two factors, which can then only be
    (K, r - K).  That last rule needs 2K + 1 < 3K, so it never runs before
    step 1: at K = 1 a cubic rest may be (1, 1, 1).
    """
    if poly.leading % p == 0:
        raise ValueError(f"prime {p} divides the leading coefficient")
    if derivative_resultant % p == 0:
        return None
    inv = pow(poly.leading, -1, p)
    fbar = tuple([c * inv % p for c in poly.coeffs])
    n = poly.degree
    # disc(f) lc(f)^2, a square exactly when disc(f) is, and Frobenius is odd
    # on the rest exactly when it is not
    square_class = (-1) ** (n * (n - 1) // 2) * derivative_resultant * poly.leading
    if p == 2:
        odd = square_class % 8 != 1
    else:
        odd = pow(square_class % p, (p - 1) // 2, p) != 1
    lengths = []
    rest = n
    for k, g in fppoly.distinct_degree_steps(fbar, p):
        j = len(g) - 1
        lengths += [k] * (j // k)
        odd ^= (j // k) * (k - 1) % 2 == 1
        rest -= j
        least = k + 1
        # an r-cycle is odd exactly when r is even
        if rest < 2 * least or rest < 3 * least and odd == (rest % 2 == 0):
            if rest:
                lengths.append(rest)
            break
        if rest <= 2 * least + 1:
            lengths += [least, rest - least]
            break
    return CycleType(tuple(lengths))


SAMPLE_BUDGET = 2000  # elements ``probe --budget`` samples by default
MAX_PRIMES = 10**6  # most primes one probe factors at; their sieve spans 1.6e7 bytes


def _partitions(n: int, largest: int | None = None):
    """Partitions of n as non-increasing tuples with parts <= largest."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _closed_form_cycle_types(group_id: GroupId) -> set[CycleType] | None:
    """The exact cycle-type set of S_n, A_n, C_n or D_n from its closed form,
    or None for other families and for orders above the exact limit.

    A permutation is even iff it has an even number of even-length cycles;
    the rotation r^k of C_n and D_n has gcd(n, k) cycles of length
    n / gcd(n, k); the reflections i -> k - i of ``zoo.dihedral`` fix one
    point each for odd n, and two or none for even n.
    """
    family, n = group_id.family, group_id.parameters[0]
    families = ("symmetric", "alternating", "cyclic", "dihedral")
    if family not in families or group_id.order > CLOSURE_LIMIT:
        return None
    if family == "symmetric":
        return {CycleType(t) for t in _partitions(n)}
    if family == "alternating":
        return {CycleType(t) for t in _partitions(n)
                if sum(1 for c in t if c % 2 == 0) % 2 == 0}
    types = {CycleType((n // d,) * d) for d in (gcd(n, k) for k in range(n))}
    if family == "dihedral":
        if n % 2:
            types.add(CycleType((2,) * (n // 2) + (1,)))
        else:
            types.update({CycleType((2,) * (n // 2)), CycleType((2,) * (n // 2 - 1) + (1, 1))})
    return types


def group_cycle_types(group_id: GroupId, budget: int, seed: int) -> tuple[set[CycleType], bool]:
    """Cycle types of a group: exact when the order is small enough.

    Returns (types, exact).  For order <= ``CLOSURE_LIMIT``, the most that
    ``PermGroup.enumerate_elements`` lists, symmetric, alternating, cyclic
    and dihedral sets come from their closed forms with no group built, and
    the other families from full breadth-first enumeration; larger groups
    are sampled with the product-replacement stream, giving a subset.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    types = _closed_form_cycle_types(group_id)
    if types is not None:
        return types, True
    group = build_group(group_id)
    if group_id.order <= CLOSURE_LIMIT:
        types = {cycle_type(p) for p in group.enumerate_elements()}
        return types, True
    sampler = group.sampler(seed)
    types = {cycle_type(identity(group.degree))}
    for _ in range(budget):
        types.add(cycle_type(sampler.sample()))
    return types, False


@dataclass
class CandidateVerdict:
    group: str
    status: str  # "consistent" | "inconsistent" | "insufficient_data"
    exact_types: bool
    witness: CycleType | None = None

    def to_payload(self) -> dict:
        payload = {"group": self.group, "status": self.status, "exact_types": self.exact_types}
        if self.witness is not None:
            payload["witness_cycle_type"] = list(self.witness.lengths)
        return payload


@dataclass
class ProbeReport:
    polynomial: str
    primes_used: list[int]
    ramified_primes: list[int]
    histogram: dict[CycleType, int]
    verdicts: list[CandidateVerdict]
    irreducibility_evidence: bool
    seed: int

    def to_payload(self) -> dict:
        histogram = [
            {"cycle_type": list(t.lengths), "count": c}
            for t, c in sorted(self.histogram.items(), key=lambda kv: kv[0].lengths, reverse=True)
        ]
        return {
            "polynomial": self.polynomial,
            "primes_used": self.primes_used,
            "ramified_primes": self.ramified_primes,
            "cycle_type_histogram": histogram,
            "candidates": [v.to_payload() for v in self.verdicts],
            "irreducibility_evidence": self.irreducibility_evidence,
            "seed": self.seed,
        }


def probe(poly: IntPolynomial, prime_count: int, candidates: list[GroupId],
          type_sets: dict[GroupId, tuple[set[CycleType], bool]], seed: int) -> ProbeReport:
    """Factor modulo the first ``prime_count`` good primes and compare the
    observed Frobenius cycle types against each candidate group's type set.

    ``type_sets`` maps each candidate to its ``group_cycle_types`` result,
    drawn with ``seed`` (echoed in the report), so a batch of polynomials
    computes each set once.

    Inconsistency (an observed type outside an exact type set) is sound by
    construction; consistency only says the data does not rule the group out.
    A prime giving a single irreducible factor certifies irreducibility over
    the rationals (sufficient, not necessary).
    """
    if prime_count < 1:
        raise ValueError(f"prime_count must be positive, got {prime_count}")
    if prime_count > MAX_PRIMES:
        raise ValueError(f"prime_count must be at most {MAX_PRIMES}, got {prime_count}")
    for candidate in candidates:
        if candidate.natural_degree != poly.degree:
            raise ValueError(
                f"candidate {candidate.name()} acts on {candidate.natural_degree} "
                f"points but deg f = {poly.degree}"
            )
    primes = primes_coprime_to(prime_count, poly.leading)
    derivative_resultant = resultant(poly.coeffs, poly.derivative())
    histogram: dict[CycleType, int] = {}
    ramified = []
    for p in primes:
        ctype = cycle_type_mod_p(poly, p, derivative_resultant)
        if ctype is None:
            ramified.append(p)
            continue
        histogram[ctype] = histogram.get(ctype, 0) + 1

    verdicts = []
    for candidate in candidates:
        types, exact = type_sets[candidate]
        outside = [t for t in histogram if t not in types]  # in observation order
        if not histogram:
            verdicts.append(CandidateVerdict(candidate.name(), "insufficient_data", exact))
        elif outside and exact:
            verdicts.append(
                CandidateVerdict(candidate.name(), "inconsistent", exact, outside[0])
            )
        elif outside:
            verdicts.append(CandidateVerdict(candidate.name(), "insufficient_data", exact))
        else:
            verdicts.append(CandidateVerdict(candidate.name(), "consistent", exact))

    irreducible_seen = any(len(t.lengths) == 1 for t in histogram)
    return ProbeReport(
        format_poly(poly), primes, ramified, histogram, verdicts, irreducible_seen, seed
    )
