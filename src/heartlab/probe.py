"""Frobenius cycle-type probing of integer polynomials.

Reducing a squarefree integer polynomial modulo an unramified prime p and
reading off the degrees of its irreducible factors samples the cycle type of
a Frobenius element of the Galois group acting on the roots.  Observed types
lying outside a candidate group's exact cycle-type set disprove containment;
agreement is evidence, never proof, and the auditor never consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import gcd, isqrt, log

from . import fppoly
from .perms import CLOSURE_LIMIT, CycleType, cycle_type, identity
from .zoo import GroupId, build_group


class PolyParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
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


_TOKEN_CHARS = set("0123456789xX+-*^() \t")


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if ch not in _TOKEN_CHARS:
            raise PolyParseError(f"unexpected character {ch!r}", i)
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif ch in "xX":
            tokens.append(("x", None, i))
            i += 1
        else:
            tokens.append((ch, None, i))
            i += 1
    return tokens


def parse_poly(text: str) -> IntPolynomial:
    """Parse signed integer-coefficient polynomials in x.

    Grammar: terms joined by + and -, each term an integer, x, x^k, or a
    coefficient times a power of x ('*' optional: "2x^2" == "2*x^2");
    parentheses are allowed only around the whole expression.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial", 0)
    if tokens[0][0] == "(":
        if tokens[-1][0] != ")":
            raise PolyParseError("unbalanced parenthesis", tokens[0][2])
        inner = tokens[1:-1]
        if any(t[0] in "()" for t in inner):
            raise PolyParseError("parentheses are only allowed around the whole expression",
                                 tokens[0][2])
        tokens = inner
        if not tokens:
            raise PolyParseError("empty parentheses", 0)
    if any(t[0] in "()" for t in tokens):
        pos = next(t[2] for t in tokens if t[0] in "()")
        raise PolyParseError("parentheses are only allowed around the whole expression", pos)

    coeffs: dict[int, int] = {}
    i = 0
    first = True
    while i < len(tokens):
        sign = 1
        kind, _, pos = tokens[i]
        if kind in "+-":
            sign = -1 if kind == "-" else 1
            i += 1
        elif not first:
            raise PolyParseError("expected '+' or '-' between terms", pos)
        first = False
        if i >= len(tokens):
            raise PolyParseError("dangling sign", pos)

        kind, value, pos = tokens[i]
        coefficient = 1
        have_coefficient = False
        if kind == "int":
            coefficient = value
            have_coefficient = True
            i += 1
            if i < len(tokens) and tokens[i][0] == "*":
                star_pos = tokens[i][2]
                i += 1
                if i >= len(tokens) or tokens[i][0] != "x":
                    where = tokens[i][2] if i < len(tokens) else star_pos + 1
                    raise PolyParseError("expected x after '*'", where)

        exponent = 0
        if i < len(tokens) and tokens[i][0] == "x":
            exponent = 1
            i += 1
            if i < len(tokens) and tokens[i][0] == "^":
                i += 1
                if i >= len(tokens) or tokens[i][0] != "int":
                    where = tokens[i][2] if i < len(tokens) else pos
                    raise PolyParseError("expected integer exponent after '^'", where)
                exponent = tokens[i][1]
                i += 1
        elif not have_coefficient:
            raise PolyParseError("expected a coefficient or x", pos)

        coeffs[exponent] = coeffs.get(exponent, 0) + sign * coefficient

    degree = max(coeffs)
    vector = [coeffs.get(k, 0) for k in range(degree + 1)]
    try:
        return IntPolynomial(tuple(vector))
    except ValueError as exc:
        raise PolyParseError(str(exc), 0) from exc


def format_poly(poly: IntPolynomial) -> str:
    """Canonical form with descending powers; parse(format(p)) == p."""
    parts = []
    for exponent in range(poly.degree, -1, -1):
        c = poly.coeffs[exponent]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        magnitude = abs(c)
        if exponent == 0:
            body = str(magnitude)
        else:
            xpart = "x" if exponent == 1 else f"x^{exponent}"
            body = xpart if magnitude == 1 else f"{magnitude}*{xpart}"
        parts.append((sign, body))
    text = ""
    for k, (sign, body) in enumerate(parts):
        if k == 0:
            text = body if sign == "+" else "-" + body
        else:
            text += sign + body
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
    """
    if poly.leading % p == 0:
        raise ValueError(f"prime {p} divides the leading coefficient")
    if derivative_resultant % p == 0:
        return None
    fbar = fppoly.monic(fppoly.normalize(poly.coeffs, p), p)
    return CycleType(tuple(fppoly.factor_degrees(fbar, p)))


SAMPLE_BUDGET = 2000  # elements ``probe --budget`` samples by default


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
    for candidate in candidates:
        if candidate.natural_degree != poly.degree:
            raise ValueError(
                f"candidate {candidate.name()} acts on {candidate.natural_degree} "
                f"points but deg f = {poly.degree}"
            )
    primes = primes_coprime_to(prime_count, poly.leading)
    derivative_resultant = resultant(poly.coeffs, poly.derivative())
    histogram: dict[CycleType, int] = {}
    observed_order: list[CycleType] = []
    ramified = []
    for p in primes:
        ctype = cycle_type_mod_p(poly, p, derivative_resultant)
        if ctype is None:
            ramified.append(p)
            continue
        if ctype not in histogram:
            observed_order.append(ctype)
        histogram[ctype] = histogram.get(ctype, 0) + 1

    verdicts = []
    for candidate in candidates:
        types, exact = type_sets[candidate]
        outside = [t for t in observed_order if t not in types]
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
