"""Polynomial parsing, Frobenius cycle types, and probe soundness."""

import collections
import hashlib
import importlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from heartlab import fppoly
from heartlab.fields import is_prime
from heartlab.perms import CycleType
from heartlab.probe import (
    MAX_DIGITS,
    MAX_PRIMES,
    SAMPLE_BUDGET,
    IntPolynomial,
    PolyParseError,
    cycle_type_mod_p,
    format_poly,
    group_cycle_types,
    parse_poly,
    primes_coprime_to,
    probe,
    resultant,
)
from heartlab.perms import cycle_type
from heartlab.zoo import GroupId, build_group, parse_group_spec
from support import derivative, gcd, tuple_distinct_degree_split, type_sets


def sylvester_resultant(f: tuple, g: tuple) -> int:
    """Exact integer resultant via the Sylvester matrix over Q (test oracle)."""
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    rows = []
    for shift in range(n):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(f)):
            row[shift + j] = Fraction(c)
        rows.append(row)
    for shift in range(m):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(g)):
            row[shift + j] = Fraction(c)
        rows.append(row)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] / rows[col][col]
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    assert det.denominator == 1
    return int(det)


def int_derivative(coeffs: tuple) -> tuple:
    return tuple(i * c for i, c in enumerate(coeffs))[1:]


def frobenius_type(poly: IntPolynomial, p: int):
    """cycle_type_mod_p at one prime, with Res(f, f') computed as ``probe``
    computes it once per polynomial."""
    return cycle_type_mod_p(poly, p, resultant(poly.coeffs, poly.derivative()))


def tuple_cycle_type_mod_p(poly: IntPolynomial, p: int):
    """cycle_type_mod_p on coefficient tuples: normalize, derivative, tuple
    gcd, then the one-pow_mod-per-degree split (test oracle)."""
    fbar = fppoly.normalize(poly.coeffs, p)
    deriv = derivative(fbar, p)
    if not deriv or fppoly.degree(gcd(fbar, deriv, p)) > 0:
        return None
    degrees = []
    for k, product in tuple_distinct_degree_split(fbar, p):
        degrees += [k] * (fppoly.degree(product) // k)
    return CycleType(tuple(degrees))


def legendre(a: int, p: int) -> int:
    """(a / p) by Euler's criterion, for an odd prime p (test oracle)."""
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def discriminant(poly: IntPolynomial) -> int:
    """disc f = (-1)^(n(n-1)/2) Res(f, f') / lc(f), the resultant from the
    Sylvester matrix (test oracle)."""
    n = poly.degree
    res = sylvester_resultant(poly.coeffs, int_derivative(poly.coeffs))
    quotient, remainder = divmod((-1) ** (n * (n - 1) // 2) * res, poly.leading)
    assert remainder == 0
    return quotient


def trial_division_primes_coprime_to(count: int, leading: int) -> list[int]:
    """primes_coprime_to by is_prime on every integer (test oracle)."""
    out = []
    candidate = 2
    while len(out) < count:
        if is_prime(candidate) and leading % candidate != 0:
            out.append(candidate)
        candidate += 1
    return out


def random_non_monic(rng: random.Random) -> IntPolynomial:
    """Degree 2-20, coefficients up to 10^6 in absolute value, |leading| >= 2."""
    degree = rng.randrange(2, 21)
    coeffs = [rng.randrange(-10**6, 10**6 + 1) for _ in range(degree)]
    coeffs.append(rng.choice((-1, 1)) * rng.randrange(2, 10**6 + 1))
    return IntPolynomial(tuple(coeffs))


class TestParse:
    def test_direct_reading(self):
        assert parse_poly("x^7-7*x+3").coeffs == (3, -7, 0, 0, 0, 0, 0, 1)

    def test_implicit_multiplication(self):
        assert parse_poly("2x^2").coeffs == (0, 0, 2)
        assert parse_poly("2*x^2").coeffs == (0, 0, 2)
        assert parse_poly("-3x").coeffs == (0, -3)

    def test_quartic(self):
        assert parse_poly("x^4+1").coeffs == (1, 0, 0, 0, 1)

    def test_whole_expression_parens_and_whitespace(self):
        assert parse_poly(" ( x^2 - 3 x + 1 ) ").coeffs == (1, -3, 1)

    def test_coefficient_collection(self):
        assert parse_poly("x + x + 1 - 2").coeffs == (-1, 2)

    @pytest.mark.parametrize(
        "text", ["", "x^", "2*", "x^2+", "* x", "(x+1", "x+(x+1)", "y+1", "x^2 ++ 1"]
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(PolyParseError):
            parse_poly(text)

    def test_error_carries_position(self):
        with pytest.raises(PolyParseError) as info:
            parse_poly("x^2 + y")
        assert info.value.position == 6

    def test_constant_rejected(self):
        with pytest.raises((PolyParseError, ValueError)):
            parse_poly("5")

    def test_exponent_above_the_supported_scale_rejected(self):
        # refused at the exponent, before a coefficient list of that length
        for text, position in [("x^100001", 2), ("x^2 + 3x^100001 - 1", 9)]:
            with pytest.raises(PolyParseError) as info:
                parse_poly(text)
            assert info.value.position == position
        assert parse_poly("x^100000-x-1").degree == 100000

    def test_literal_of_more_than_max_digits_rejected(self):
        # checked on the digit run, before int() meets the conversion limit
        with pytest.raises(PolyParseError, match="more than 4300 digits") as info:
            parse_poly("x^5-x-" + "1" * (MAX_DIGITS + 1))
        assert info.value.position == 6
        longest = parse_poly("x^5-x-" + "1" * MAX_DIGITS)
        assert format_poly(longest) == "x^5-x-" + "1" * MAX_DIGITS

    def test_combined_coefficient_of_more_than_max_digits_rejected(self):
        nines = "9" * MAX_DIGITS
        with pytest.raises(PolyParseError, match="x\\^0 has more than 4300") as info:
            parse_poly(f"x^5-x+{nines}+{nines}")
        assert info.value.position == 6 + MAX_DIGITS + 1  # the second literal
        # only the combined value counts, not a running sum on the way
        assert parse_poly(f"x^5-x+{nines}+{nines}-{nines}").coeffs[0] == int(nines)

    # one row per rejection branch of parse_poly, with its message and position
    @pytest.mark.parametrize("text,message,position", [
        ("", "empty polynomial", 0),
        ("x^2 + y", "unexpected character 'y'", 6),
        ("(x+1", "unbalanced parenthesis", 0),
        ("(x+(1))", "parentheses are only allowed around the whole expression", 0),
        ("()", "empty parentheses", 0),
        ("x+(1)", "parentheses are only allowed around the whole expression", 2),
        ("x x", "expected '+' or '-' between terms", 2),
        ("1 2", "expected '+' or '-' between terms", 2),
        ("x+", "dangling sign", 1),
        ("2*", "expected x after '*'", 2),
        ("2*+x", "expected x after '*'", 2),
        ("x^", "expected integer exponent after '^'", 0),  # the term's start
        ("x^+1", "expected integer exponent after '^'", 2),
        ("x^100001", "exponent must be at most 100000, got 100001", 2),
        ("+*x", "expected a coefficient or x", 1),
        ("x^2 ++ 1", "expected a coefficient or x", 5),
        ("5", "polynomial must have degree at least 1", 0),
        ("x^5-x-" + "1" * (MAX_DIGITS + 1), "integer literal has more than 4300 digits", 6),
        ("x^5-x+" + "9" * MAX_DIGITS + "+" + "9" * MAX_DIGITS,
         "coefficient of x^0 has more than 4300 digits", 4307),
    ], ids=lambda v: v if isinstance(v, int) or len(v) < 20 else f"{v[:12]}...({len(v)})")
    def test_rejection_message_and_position(self, text, message, position):
        with pytest.raises(PolyParseError) as info:
            parse_poly(text)
        assert (str(info.value), info.value.position) == (f"{message} (at position {position})",
                                                          position)

    @pytest.mark.parametrize("text,position", [
        ("x^5-x-1\u0663", 7), ("x^5-x-1\u00b2", 7), ("x^1\u0663", 3), ("1\u06636x^5-1", 1),
    ])
    def test_non_ascii_digit_is_an_unexpected_character(self, text, position):
        # not read as part of an ASCII literal: "x^5-x-1" + ARABIC-INDIC THREE is not x^5-x-13
        with pytest.raises(PolyParseError) as info:
            parse_poly(text)
        assert info.value.position == position
        assert str(info.value) == f"unexpected character {text[position]!r} (at position {position})"

    @given(st.text(alphabet="0123456789xX+-*^() \ty\u0663\u00b2\n", max_size=24))
    @example("1\u00b2")
    def test_any_text_parses_or_fails_at_a_position(self, text):
        try:
            parse_poly(text)
        except PolyParseError as exc:
            assert 0 <= exc.position <= len(text)

    def test_roundtrip_corpus_of_100(self):
        rng = random.Random(99)
        for _ in range(100):
            degree = rng.randrange(1, 13)
            coeffs = [rng.randrange(-99, 100) for _ in range(degree)]
            coeffs.append(rng.choice([c for c in range(-9, 10) if c]))
            poly = IntPolynomial(tuple(coeffs))
            assert parse_poly(format_poly(poly)) == poly

    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=9),
        st.integers(1, 20),
    )
    def test_roundtrip_property(self, low_coeffs, lead):
        poly = IntPolynomial(tuple(low_coeffs) + (lead,))
        assert parse_poly(format_poly(poly)) == poly


class TestFormat:
    @pytest.mark.parametrize("coeffs,text", [
        ((1, 0, -2), "-2*x^2+1"),  # negative leading coefficient
        ((-1, 1, -1), "-x^2+x-1"),  # coefficients of +-1
        ((0, -1), "-x"),
        ((0, 5), "5*x"),  # x for exponent 1
        ((7, 0, 0, 1), "x^3+7"),  # constant term, zero gaps
        ((4, 0, 0, -1), "-x^3+4"),
        ((0, 0, 1), "x^2"),
        ((0, 1, 0, 1), "x^3+x"),
        ((-6, 0, 3, 0, 0, -12), "-12*x^5+3*x^2-6"),
    ])
    def test_exact_text(self, coeffs, text):
        assert format_poly(IntPolynomial(coeffs)) == text

    def test_capital_x_prints_as_x(self):
        assert format_poly(parse_poly("X^2 - 3X")) == "x^2-3*x"
        assert format_poly(parse_poly("(  2*X^3 -X +1)")) == "2*x^3-x+1"


class TestCycleTypeModP:
    def test_cubic_with_one_root_mod_5(self):
        # 3 is the only root of x^3 - 2 mod 5 (exhaustive check below)
        f = parse_poly("x^3-2")
        roots = [x for x in range(5) if (x**3 - 2) % 5 == 0]
        assert roots == [3]
        assert frobenius_type(f, 5).lengths == (2, 1)

    def test_ramified_detection(self):
        assert frobenius_type(parse_poly("x^2+1"), 2) is None

    def test_split_quadratic(self):
        assert frobenius_type(parse_poly("x^2+1"), 5).lengths == (1, 1)

    def test_rejects_prime_dividing_leading(self):
        with pytest.raises(ValueError):
            frobenius_type(parse_poly("3x^2+1"), 3)

    def test_lengths_sum_to_degree(self):
        f = parse_poly("x^7-7*x+3")
        res = resultant(f.coeffs, f.derivative())
        for p in primes_coprime_to(25, f.leading):
            ctype = cycle_type_mod_p(f, p, res)
            if ctype is not None:
                assert ctype.degree == 7

    # (text, reason it is there): every good prime below 3000 is ramified
    # exactly when it divides Res(f, f'), and exactly when f mod p has a
    # repeated factor
    RAMIFICATION_CASES = [
        ("x^5-x-1", "irreducible, squarefree discriminant"),
        ("x^3-2", "p | n at 3"),
        ("x^7-7*x+3", "p | n at 7, where f = (x + 3)^7"),
        ("x^3-x-1", "p | n at 3, unramified there"),
        ("x^6-3", "p | n at 2 and 3"),
        ("x^5+5*x+10", "f' = 5x^4 + 5 vanishes mod 5"),
        ("x^4+1", "ramified only at 2"),
        ("x^2+1", "ramified only at 2"),
        ("2x^3+x^2-5", "non-monic"),
        ("-6x^4+3x^3+x-7", "non-monic, negative leading coefficient"),
        ("3x^2+2x+3", "non-monic, (x + 1)^2 mod 2"),
        ("x^2-2*x+1", "a square: Res = 0, every prime ramified"),
    ]

    def test_ramified_primes_divide_the_discriminant_resultant(self):
        primes = [p for p in range(2, 3000) if is_prime(p)]
        for text, _ in self.RAMIFICATION_CASES:
            f = parse_poly(text)
            res = sylvester_resultant(f.coeffs, int_derivative(f.coeffs))
            assert resultant(f.coeffs, int_derivative(f.coeffs)) == res
            computed = resultant(f.coeffs, f.derivative())
            for p in primes:
                if f.leading % p == 0:
                    continue
                fbar = fppoly.normalize(f.coeffs, p)
                deriv = derivative(fbar, p)
                repeated = not deriv or fppoly.degree(gcd(fbar, deriv, p)) > 0
                ramified = cycle_type_mod_p(f, p, computed) is None
                assert ramified == (res % p == 0) == repeated, (text, p)
                assert ramified == (cycle_type_mod_p(f, p, res) is None)

    def test_f_prime_vanishing_and_p_dividing_n(self):
        assert frobenius_type(parse_poly("x^5+5*x+10"), 5) is None
        assert frobenius_type(parse_poly("x^5+5*x+11"), 5) is None  # (x + 1)^5 mod 5
        assert frobenius_type(parse_poly("x^7-7*x+3"), 7) is None  # (x + 3)^7 mod 7
        # p | n with f' = -1 mod 3: squarefree, and irreducible (Artin-Schreier)
        assert frobenius_type(parse_poly("x^3-x-1"), 3).lengths == (3,)

    def test_square_is_ramified_everywhere(self):
        f = parse_poly("x^2-2*x+1")
        assert resultant(f.coeffs, int_derivative(f.coeffs)) == 0
        candidates = [GroupId("symmetric", (2,))]
        report = probe(f, 40, candidates, type_sets(candidates), seed=0)
        assert report.ramified_primes == report.primes_used
        assert not report.histogram
        assert report.verdicts[0].status == "insufficient_data"

    def test_resultant_matches_sylvester(self):
        rng = random.Random(8)
        for degree in range(1, 21):
            coeffs = [rng.randrange(-10**6, 10**6 + 1) for _ in range(degree)]
            coeffs.append(rng.choice((-1, 1)) * rng.randrange(1, 10**6 + 1))
            f = tuple(coeffs)
            df = int_derivative(f)
            assert resultant(f, df) == sylvester_resultant(f, df)
            # a second polynomial of degree 0-10, below and above deg f
            other = tuple(rng.randrange(-10**6, 10**6 + 1) for _ in range(rng.randrange(0, 11)))
            other += (rng.randrange(1, 10**6 + 1),)
            assert resultant(f, other) == sylvester_resultant(f, other)
            assert resultant(other, f) == sylvester_resultant(other, f)
        # a common factor, and constants
        assert resultant((-1, 0, 1), (1, 1)) == 0
        assert resultant((5,), (3, 1)) == 5
        assert resultant((2, 3), (7,)) == 7

    # the tuple oracle costs up to 10 ms per prime at degree 20, so the full
    # comparison runs on a prefix and a stride of each prime list; the
    # squarefree (ramification) test runs on all of it
    X_N_MINUS_X_MINUS_1 = [IntPolynomial((-1, -1) + (0,) * (n - 2) + (1,)) for n in range(5, 31)]
    NON_MONIC = [random_non_monic(random.Random(seed)) for seed in range(40)]

    def test_x_n_minus_x_minus_1_matches_tuple_oracle(self):
        for f in self.X_N_MINUS_X_MINUS_1:
            res = resultant(f.coeffs, f.derivative())
            for p in primes_coprime_to(12, f.leading):
                assert cycle_type_mod_p(f, p, res) == tuple_cycle_type_mod_p(f, p)

    def test_non_monic_matches_tuple_oracle(self):
        assert {f.degree for f in self.NON_MONIC} >= {2, 20}
        ramified = 0
        for f in self.NON_MONIC:
            primes = primes_coprime_to(500, f.leading)
            res = resultant(f.coeffs, f.derivative())
            for p in primes[:10] + primes[10::70]:
                assert cycle_type_mod_p(f, p, res) == tuple_cycle_type_mod_p(f, p)
            for p in primes:
                fbar = fppoly.normalize(f.coeffs, p)
                deriv = derivative(fbar, p)
                expected = bool(deriv) and fppoly.degree(gcd(fbar, deriv, p)) == 0
                assert (res % p != 0) == expected
                ramified += not expected
        assert ramified > 40  # every p dividing a discriminant, not one per polynomial

    def test_sign_of_frobenius_is_the_discriminant_symbol(self):
        # Stickelberger (Swan 1962, Cor. 1): at a good prime, Frobenius is
        # even exactly when disc f is a square in Q_p: a square mod p at odd
        # p, 1 mod 8 at p = 2; the primes are the ones the two tests above
        # compare
        cases = [(f, primes_coprime_to(12, 1)) for f in self.X_N_MINUS_X_MINUS_1]
        for f in self.NON_MONIC:
            primes = primes_coprime_to(500, f.leading)
            cases.append((f, primes[:10] + primes[10::70]))
        checked = collections.Counter()
        for f, primes in cases:
            disc = discriminant(f)
            for p in primes:
                ctype = tuple_cycle_type_mod_p(f, p)
                if ctype is None:
                    continue
                even = (f.degree - len(ctype.lengths)) % 2 == 0
                if p == 2:
                    assert (disc % 8 == 1) == even, f
                else:
                    assert legendre(disc, p) == (1 if even else -1), (f, p)
                checked[p == 2] += 1
        assert checked[False] > 700 and checked[True] > 30, checked

    def test_p_two_stops_the_walk_by_sign(self, monkeypatch):
        # x^5 - x - 1 = (x^2 + x + 1)(x^3 + x^2 + 1) mod 2, an odd Frobenius:
        # after the empty step 1 a rest of degree 5 with that sign is (2, 3)
        walk = fppoly.distinct_degree_steps
        taken = []

        def counting(f, p):
            for step in walk(f, p):
                taken.append(step)
                yield step

        monkeypatch.setattr(fppoly, "distinct_degree_steps", counting)
        assert frobenius_type(parse_poly("x^5-x-1"), 2) == CycleType((3, 2))
        assert taken == [(1, (1,))]
        stopped = full = 0
        for f in self.X_N_MINUS_X_MINUS_1:
            fbar = fppoly.normalize(f.coeffs, 2)
            taken.clear()
            assert frobenius_type(f, 2) == tuple_cycle_type_mod_p(f, 2)
            stopped += len(taken)
            full += len(list(walk(fbar, 2)))
        assert stopped < full, (stopped, full)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_every_monic_of_degree_2_to_4_matches_tuple_oracle(self, p):
        # every monic f over F_p, lifted to Z with coefficients in [0, p);
        # the cubics include (1, 1, 1), which has the sign of (3): before
        # the first gcd the degrees and the sign cannot tell them apart
        seen = set()
        for n in (2, 3, 4):
            for tail in itertools.product(range(p), repeat=n):
                f = IntPolynomial(tail + (1,))
                ctype = cycle_type_mod_p(f, p, resultant(f.coeffs, f.derivative()))
                assert ctype == tuple_cycle_type_mod_p(f, p), (tail, p)
                seen.add(ctype)
        expected = {(2,), (1, 1), (3,), (2, 1), (1, 1, 1), (4,), (3, 1), (2, 2), (2, 1, 1),
                    (1, 1, 1, 1)}
        # F_2 has two monic linear polynomials and one irreducible quadratic,
        # F_3 three linear ones
        if p == 2:
            expected -= {(1, 1, 1), (2, 2), (1, 1, 1, 1)}
        if p == 3:
            expected -= {(1, 1, 1, 1)}
        assert {t.lengths for t in seen if t is not None} == expected

    def test_non_square_leading_p_dividing_n_and_p_two_match_tuple_oracle(self):
        rng = random.Random(31)
        seen = collections.Counter()
        for _ in range(80):
            n = rng.randrange(2, 13)
            lead = rng.choice((-1, 1)) * rng.choice((2, 3, 5, 6, 7, 10, 11, 13))
            f = IntPolynomial(tuple(rng.randrange(-30, 31) for _ in range(n)) + (lead,))
            res = resultant(f.coeffs, f.derivative())
            for p in primes_coprime_to(40, lead):
                cases = {"p = 2": p == 2, "p | n": n % p == 0,
                         "non-square lc": p > 2 and legendre(lead, p) == -1}
                if any(cases.values()):
                    ctype = cycle_type_mod_p(f, p, res)
                    assert ctype == tuple_cycle_type_mod_p(f, p), (f, p)
                    if ctype is not None:
                        seen.update(case for case, hit in cases.items() if hit)
        assert min(seen[case] for case in ("p = 2", "p | n", "non-square lc")) >= 20, seen

    @pytest.mark.parametrize("p", [65537, 2**31 - 1])
    def test_large_primes_match_tuple_oracle(self, p):
        for f in self.X_N_MINUS_X_MINUS_1[::3] + self.NON_MONIC[::4]:
            assert frobenius_type(f, p) == tuple_cycle_type_mod_p(f, p)

    def test_ramified_non_monic(self):
        # discriminant 2^2 - 4*3*3 = -32: 3x^2 + 2x + 3 = (x + 1)^2 mod 2, and
        # it is squarefree mod every odd prime
        f = parse_poly("3x^2+2x+3")
        res = resultant(f.coeffs, f.derivative())
        assert cycle_type_mod_p(f, 2, res) is None and tuple_cycle_type_mod_p(f, 2) is None
        for p in (5, 7, 11, 13):
            assert cycle_type_mod_p(f, p, res) == tuple_cycle_type_mod_p(f, p) is not None


class TestPrimesCoprimeTo:
    @pytest.mark.parametrize("leading", [1, -6, 30030, 7919, 2**61 - 1])
    def test_matches_trial_division(self, leading):
        expected = trial_division_primes_coprime_to(5000, leading)
        # each count's answer is the prefix of the next one's
        counts = list(range(1, 101)) + list(range(101, 2001, 97)) + [1000, 2000, 5000]
        for count in counts:
            assert primes_coprime_to(count, leading) == expected[:count]

    def test_primes_dividing_the_leading_coefficient_still_sieve(self):
        # 30030 = 2*3*5*7*11*13: 169 and 121 must still be ruled out
        primes = primes_coprime_to(10, 30030)
        assert primes == [17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
        assert 121 not in primes_coprime_to(30, 30030)
        assert 169 not in primes_coprime_to(30, 30030)


class TestGroupCycleTypes:
    def test_cyclic_exact(self):
        types, exact = group_cycle_types(GroupId("cyclic", (5,)), budget=SAMPLE_BUDGET, seed=0)
        assert exact
        assert {t.lengths for t in types} == {(1, 1, 1, 1, 1), (5,)}

    def test_s4_types_are_partitions(self):
        types, exact = group_cycle_types(GroupId("symmetric", (4,)), budget=SAMPLE_BUDGET, seed=0)
        assert exact
        assert {t.lengths for t in types} == {
            (1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)
        }

    def test_m11_exact_from_enumeration(self):
        types, exact = group_cycle_types(GroupId("mathieu", (11,)), budget=SAMPLE_BUDGET, seed=0)
        assert exact
        lengths = {t.lengths for t in types}
        assert (11,) in lengths
        assert (8, 2, 1) in lengths

    def test_large_group_sampled(self):
        types, exact = group_cycle_types(GroupId("mathieu", (23,)), budget=50, seed=1)
        assert not exact
        assert types

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            group_cycle_types(GroupId("cyclic", (5,)), budget=0, seed=0)

    @pytest.mark.parametrize(
        "name", ["S5", "A5", "D5", "C50", "S10", "A10", "M11", "M23", "PSL(2,4)", "PGL(2,5)"]
    )
    def test_budget_validation_every_family(self, name):
        # checked before any closed form or group build (C5 is the case above)
        with pytest.raises(ValueError, match="budget must be positive"):
            group_cycle_types(parse_group_spec(name), budget=0, seed=0)

    @pytest.mark.parametrize(
        "name",
        [f"S{n}" for n in range(2, 10)] + [f"A{n}" for n in range(3, 10)]
        + [f"C{n}" for n in range(2, 41)] + [f"D{n}" for n in range(3, 41)],
    )
    def test_closed_form_matches_enumeration(self, name):
        group_id = parse_group_spec(name)
        types, exact = group_cycle_types(group_id, budget=SAMPLE_BUDGET, seed=0)
        assert exact
        assert types == {cycle_type(g) for g in build_group(group_id).enumerate_elements()}

    # (family, seed, budget): number of sampled types and the sha256 of their
    # sorted lengths, recorded while exact sets still came from enumeration
    SAMPLED_PINS = {
        ("symmetric", 3, 200):
            (34, "26e82851138aa861f42bec1f0a62f85d20b0c3917b004e9d54a9f30421b72f35"),
        ("symmetric", 0, 2000):
            (39, "dfc38b1e5e4bd18ace11ad054571d4ea43feda046af02ef7945c1a99fd4caee2"),
        ("alternating", 3, 200):
            (18, "97795b9095067058e47557be88dc7c052dde226a38cbcbeca4e90bee160bfe1c"),
        ("alternating", 0, 2000):
            (20, "2b01f20eb1ddb732b738df65364343a265b4cc9b1bc6b9760050d23a3c299387"),
    }

    @pytest.mark.parametrize("family,seed,budget", list(SAMPLED_PINS))
    def test_degree_10_stays_sampled(self, family, seed, budget):
        # S10 and A10 are above the exact limit: the sampled subset, unchanged
        types, exact = group_cycle_types(GroupId(family, (10,)), budget=budget, seed=seed)
        assert not exact
        lengths = sorted(t.lengths for t in types)
        digest = hashlib.sha256(repr(lengths).encode()).hexdigest()
        assert (len(lengths), digest) == self.SAMPLED_PINS[family, seed, budget]


class TestProbe:
    def test_quadratic_vs_s2(self):
        s2 = [GroupId("symmetric", (2,))]
        report = probe(parse_poly("x^2+1"), 10, s2, type_sets(s2), seed=0)
        assert report.verdicts[0].status == "consistent"
        assert sum(report.histogram.values()) == len(report.primes_used) - len(
            report.ramified_primes
        )
        for ctype in report.histogram:
            assert ctype.degree == 2

    def test_x4_plus_1_never_irreducible(self):
        s4 = [GroupId("symmetric", (4,))]
        report = probe(parse_poly("x^4+1"), 50, s4, type_sets(s4), seed=0)
        assert report.irreducibility_evidence is False
        assert report.verdicts[0].status == "consistent"

    def test_a5_inconsistency_with_witness(self):
        a5 = [GroupId("alternating", (5,))]
        report = probe(parse_poly("x^5-x-1"), 100, a5, type_sets(a5), seed=0)
        verdict = report.verdicts[0]
        assert verdict.status == "inconsistent"
        types, exact = group_cycle_types(GroupId("alternating", (5,)), budget=SAMPLE_BUDGET, seed=0)
        assert exact
        assert verdict.witness not in types  # soundness of the witness

    def test_s5_consistent_and_irreducibility_evidence(self):
        s5 = [GroupId("symmetric", (5,))]
        report = probe(parse_poly("x^5-x-1"), 100, s5, type_sets(s5), seed=0)
        assert report.verdicts[0].status == "consistent"
        assert report.irreducibility_evidence is True

    @pytest.mark.parametrize("count", [0, -3])
    def test_non_positive_prime_count_rejected(self, count):
        with pytest.raises(ValueError, match=f"prime_count must be positive, got {count}"):
            a5 = [GroupId("alternating", (5,))]
            probe(parse_poly("x^5-x-1"), count, a5, type_sets(a5), seed=0)

    def test_prime_count_above_the_bound_rejected_before_the_sieve(self, monkeypatch):
        def refuse(count, leading):
            raise AssertionError(f"sieve built for {count} primes")

        monkeypatch.setattr(importlib.import_module("heartlab.probe"), "primes_coprime_to", refuse)
        s5 = [GroupId("symmetric", (5,))]
        for count in (MAX_PRIMES + 1, 3 * 10**8):
            with pytest.raises(ValueError, match=f"prime_count must be at most 1000000, got {count}"):
                probe(parse_poly("x^5-x-1"), count, s5, type_sets(s5), seed=0)
        with pytest.raises(AssertionError, match="sieve built for 1000000 primes"):
            probe(parse_poly("x^5-x-1"), MAX_PRIMES, s5, type_sets(s5), seed=0)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            s5 = [GroupId("symmetric", (5,))]
            probe(parse_poly("x^4+1"), 5, s5, type_sets(s5), seed=0)

    def test_determinism(self):
        m23 = [parse_group_spec("M23")]
        a = probe(parse_poly("x^23-1"), 12, m23, type_sets(m23, budget=200), seed=0)
        b = probe(parse_poly("x^23-1"), 12, m23, type_sets(m23, budget=200), seed=0)
        assert a.to_payload() == b.to_payload()

    def test_sampled_sets_cannot_rule_out(self):
        # every verdict against a sampled type set is consistent/insufficient
        m23 = [parse_group_spec("M23")]
        report = probe(parse_poly("x^23-1"), 12, m23, type_sets(m23, budget=100), seed=0)
        assert report.verdicts[0].status in ("consistent", "insufficient_data")

    def test_payload_shape(self):
        s2 = [GroupId("symmetric", (2,))]
        payload = probe(parse_poly("x^2+1"), 6, s2, type_sets(s2), seed=0).to_payload()
        assert payload["polynomial"] == "x^2+1"
        assert len(payload["primes_used"]) == 6
        total = sum(entry["count"] for entry in payload["cycle_type_histogram"])
        assert total == len(payload["primes_used"]) - len(payload["ramified_primes"])
