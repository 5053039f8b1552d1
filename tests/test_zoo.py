"""Group construction: orders, transitivity, containments, name parsing.

``build_group`` passes the closed-form ``GroupId.order``, which the group's
own chain then only confirms.  So every order and containment check here builds
``deterministic(G)``, the deterministic Schreier-Sims chain of the same
generators without the order, which proves each formula independently.
"""

import hashlib
from math import gcd, prod

import pytest
from hypothesis import example, given, strategies as st

from heartlab.fields import make_field, projective_points
from heartlab.perms import PermGroup, compose, cycle_type
from heartlab.zoo import (
    MATHIEU_ORDERS as ZOO_MATHIEU_ORDERS,
    MAX_DIGITS,
    GroupId,
    GroupSpecError,
    build_group,
    parse_group_spec,
    prime_power_decomposition,
)
from support import (
    DeterministicChain,
    TupleField,
    fresh_group,
    reference_projective_generators,
    reference_projective_points,
)

MATHIEU_ORDERS = {11: 7920, 12: 95040, 22: 443520, 23: 10200960, 24: 244823040}
MATHIEU_TRANSITIVITY = {11: 4, 12: 5, 22: 3, 23: 4, 24: 5}


def deterministic(group: PermGroup) -> DeterministicChain:
    return DeterministicChain(group.degree, group.generators)


class TestElementaryFamilies:
    def test_symmetric_orders(self):
        for n in (2, 3, 5, 7):
            expected = 1
            for k in range(2, n + 1):
                expected *= k
            group = build_group(GroupId("symmetric", (n,)))
            assert group.known_order == expected
            assert deterministic(group).order() == expected

    def test_alternating_orders_and_enumeration(self):
        a5 = build_group(GroupId("alternating", (5,)))
        assert a5.known_order == 60
        assert deterministic(a5).order() == 60
        assert len(a5.enumerate_elements()) == 60
        a7 = build_group(GroupId("alternating", (7,)))
        assert a7.known_order == 2520
        assert deterministic(a7).order() == 2520

    def test_alternating_transitivity(self):
        assert build_group(GroupId("alternating", (5,))).transitivity_degree() == 3

    def test_cyclic_and_dihedral(self):
        for name, order in [("C6", 6), ("D6", 12), ("D5", 10)]:
            group = build_group(parse_group_spec(name))
            assert group.known_order == order
            assert deterministic(group).order() == order

    def test_parameter_validation(self):
        # GroupId validates each family's parameters, with its wording
        for family, n in [("symmetric", 1), ("alternating", 2), ("cyclic", 1), ("dihedral", 2)]:
            with pytest.raises(GroupSpecError, match=rf"^bad parameters \({n},\) for {family}$"):
                GroupId(family, (n,))
        with pytest.raises(GroupSpecError, match=r"^no Mathieu group of degree \(13,\)$"):
            GroupId("mathieu", (13,))


class TestMathieu:
    @pytest.mark.parametrize("n", sorted(MATHIEU_ORDERS))
    def test_orders_and_transitivity(self, n):
        g = build_group(GroupId("mathieu", (n,)))
        assert g.degree == n
        assert ZOO_MATHIEU_ORDERS[n] == g.known_order == MATHIEU_ORDERS[n]
        assert deterministic(g).order() == MATHIEU_ORDERS[n]
        assert g.transitivity_degree() == MATHIEU_TRANSITIVITY[n]

    def test_m12_order_by_full_enumeration(self, m12):
        assert len(m12.enumerate_elements()) == 95040

    def test_point_stabilizer_order_chain(self):
        # |M23| = 23 * |M22| and |M24| = 24 * |M23|
        assert MATHIEU_ORDERS[23] == 23 * MATHIEU_ORDERS[22]
        assert MATHIEU_ORDERS[24] == 24 * MATHIEU_ORDERS[23]
        assert deterministic(build_group(GroupId("mathieu", (23,)))).order() == 23 * deterministic(
            build_group(GroupId("mathieu", (22,)))
        ).order()

    @pytest.mark.parametrize("n", [11, 12])
    def test_normal_closure_sanity(self, n):
        # simple groups: the normal closure of any non-identity element is everything
        g = build_group(GroupId("mathieu", (n,)))
        x = g.sampler(3).sample()
        assert not x.is_identity()
        sampler = g.sampler(4)
        conjugates = [x]
        for _ in range(6):
            c = sampler.sample()
            conjugates.append(compose(c, compose(x, c.inverse())))
        assert DeterministicChain(g.degree, conjugates).order() == g.order()


def desk_projective_instances(max_degree=100):
    out = []
    for q in range(2, max_degree):
        if prime_power_decomposition(q) is None:
            continue
        m = 2
        while True:
            if q**m > 10**5:
                break
            degree = (q**m - 1) // (q - 1)
            if degree > max_degree:
                break
            out.append((m, q))
            m += 1
    return sorted(out)


def _small_projective_parameters():
    return [(m, q) for m in range(2, 12) for q in range(2, 3001)
            if q**m <= 3000 and prime_power_decomposition(q) is not None]


class TestProjectiveGroups:
    def test_psl32_order_by_closure(self, psl32):
        assert deterministic(psl32).order() == 168
        assert len(psl32.enumerate_elements()) == 168

    def test_psl34_order(self):
        g = build_group(GroupId("psl", (3, 4)))
        assert g.degree == 21
        assert deterministic(g).order() == 20160

    def test_psl43_order(self):
        g = build_group(GroupId("psl", (4, 3)))
        assert g.degree == 40
        assert 729 * 8 * 26 * 80 // 2 == 6065280
        assert deterministic(g).order() == 6065280

    def test_order_formulas_small_sample(self):
        for m, q in [(2, 4), (2, 9), (3, 2), (3, 3), (4, 2)]:
            for gid in (GroupId("psl", (m, q)), GroupId("pgl", (m, q))):
                assert deterministic(build_group(gid)).order() == gid.order

    def test_psl_contained_in_pgl(self):
        for m, q in [(3, 4), (4, 3), (2, 9)]:
            sub = build_group(GroupId("psl", (m, q)))
            big = deterministic(build_group(GroupId("pgl", (m, q))))
            assert all(big.contains(g) for g in sub.generators)

    # audit proves PSL <= PGL by this prefix instead of building PGL's chain;
    # PGL(3,3) is in the q^m <= 3000 range
    @pytest.mark.parametrize("m,q", [*_small_projective_parameters(), (4, 16), (5, 9)])
    def test_psl_generators_are_a_prefix_of_pgl(self, m, q):
        sub = [g.images for g in fresh_group(GroupId("psl", (m, q))).generators]
        big = [g.images for g in fresh_group(GroupId("pgl", (m, q))).generators]
        assert big[: len(sub)] == sub
        assert len(big) == len(sub) + 1

    def test_pgl_equals_psl_iff_gcd_one(self):
        for m, q in [(3, 2), (2, 8), (3, 4), (4, 3)]:
            sub = deterministic(build_group(GroupId("psl", (m, q))))
            pgl_group = build_group(GroupId("pgl", (m, q)))
            big = deterministic(pgl_group)
            same = sub.order() == big.order() and all(sub.contains(g) for g in pgl_group.generators)
            assert same == (gcd(m, q - 1) == 1)

    def test_psl_doubly_transitive(self):
        for m, q in [(2, 5), (3, 2), (3, 3), (2, 8), (4, 2)]:
            assert build_group(GroupId("psl", (m, q))).transitivity_degree() >= 2

    def test_projective_points_label_the_points(self):
        # point i of PSL(m, q) and PGL(m, q) is projective_points(F_q, m)[i]
        for name in ("PSL(3,2)", "PSL(3,4)", "PGL(3,3)"):
            gid = parse_group_spec(name)
            m, q = gid.parameters
            labels = projective_points(make_field(*prime_power_decomposition(q)), m)
            assert len(labels) == build_group(gid).degree
            assert labels == sorted(labels)
            assert all(next(c for c in label if c) == 1 for label in labels)
            field = TupleField(*prime_power_decomposition(q))
            assert labels == [pt.key() for pt in reference_projective_points(field, m)]

    def test_rejects_bad_parameters(self):
        with pytest.raises(GroupSpecError):
            GroupId("psl", (3, 6))  # not a prime power
        with pytest.raises(GroupSpecError):
            GroupId("pgl", (1, 5))
        with pytest.raises(GroupSpecError):
            GroupId("psl", (8, 7))  # q^m over desk scale

    def test_cycle_types_match_known_element_orders(self, psl32):
        # PSL(3,2) has elements of orders 1,2,3,4,7 only
        orders = {p.order() for p in psl32.enumerate_elements()}
        assert orders == {1, 2, 3, 4, 7}
        assert {cycle_type(p).lengths for p in psl32.enumerate_elements() if p.order() == 7} == {
            (7,)
        }


class TestGeneratorImages:
    """The generators built on integer-coded fields against the
    ``FieldElement`` construction of ``support``, image for image."""

    def test_parameter_count(self):
        assert len(_small_projective_parameters()) == 49

    @pytest.mark.parametrize("m,q", _small_projective_parameters())
    def test_small_groups(self, m, q):
        for family, include_pgl in (("psl", False), ("pgl", True)):
            images = [g.images for g in fresh_group(GroupId(family, (m, q))).generators]
            assert images == reference_projective_generators(m, q, include_pgl)

    @pytest.mark.parametrize("m,q", [(3, 13), (3, 16), (2, 256), (5, 3), (2, 128), (3, 7), (2, 64),
                                     (3, 5)])
    def test_benchmark_groups(self, m, q):
        images = [g.images for g in fresh_group(GroupId("psl", (m, q))).generators]
        assert images == reference_projective_generators(m, q, False)


# every family at its smallest parameters and beyond, PSL = PGL (gcd(m, q-1)
# = 1) and PSL < PGL
ORDER_GROUPS = (
    "S2", "S3", "S7", "A3", "A4", "A7", "A9", "M11", "M12", "M22", "C2", "C7", "D3", "D8",
    "PSL(2,2)", "PSL(2,4)", "PSL(2,5)", "PGL(2,5)", "PSL(2,8)", "PSL(3,2)", "PSL(3,3)",
    "PGL(3,3)", "PSL(3,4)", "PGL(3,4)", "PSL(4,2)",
)


class TestGroupIdOrder:
    @pytest.mark.parametrize("name", ORDER_GROUPS)
    def test_matches_the_chains(self, name):
        gid = parse_group_spec(name)
        group = build_group(gid)
        assert gid.order == group.order() == deterministic(group).order()

    def test_mathieu_and_large_groups(self):
        for n, order in MATHIEU_ORDERS.items():
            assert GroupId("mathieu", (n,)).order == order
        assert GroupId("symmetric", (30,)).order == 2 * GroupId("alternating", (30,)).order
        assert GroupId("pgl", (6, 3)).order == 2 * GroupId("psl", (6, 3)).order
        # gcd(16, 2 - 1) = 1: q^(m(m-1)/2) (q^2-1)...(q^m-1) undivided
        assert GroupId("psl", (16, 2)).order == 2**120 * prod(2**i - 1 for i in range(2, 17))


class TestGroupSpecParsing:
    @pytest.mark.parametrize(
        "text,family,params",
        [
            ("M11", "mathieu", (11,)),
            ("m24", "mathieu", (24,)),
            ("S7", "symmetric", (7,)),
            ("a9", "alternating", (9,)),
            ("C5", "cyclic", (5,)),
            ("D6", "dihedral", (6,)),
            ("PSL(3,4)", "psl", (3, 4)),
            ("pgl(3,3)", "pgl", (3, 3)),
            ("PSL (3, 4)", "psl", (3, 4)),
        ],
    )
    def test_accepted(self, text, family, params):
        gid = parse_group_spec(text)
        assert gid.family == family and gid.parameters == params

    @pytest.mark.parametrize("text", ["M13", "X5", "PSL(3)", "PSL(a,b)", "", "S"])
    def test_rejected(self, text):
        with pytest.raises(GroupSpecError):
            parse_group_spec(text)

    def test_natural_degree(self):
        assert parse_group_spec("PSL(3,4)").natural_degree == 21
        assert parse_group_spec("M24").natural_degree == 24

    def test_names_round_trip(self):
        for text in ["M11", "S7", "A9", "PSL(3,4)", "PGL(3,3)", "C5", "D6"]:
            gid = parse_group_spec(text)
            assert parse_group_spec(gid.name()) == gid

    @pytest.mark.parametrize("params", [(2, 10000000000000061), (2, 1000000000000000003),
                                        (100000000, 2), (17, 2), (2, 317)])
    def test_scale_checked_before_prime_power(self, params):
        # q^m > 1e5 fails at once: no trial division of q, no q^m for huge m
        with pytest.raises(GroupSpecError, match="exceeds the supported scale"):
            GroupId("psl", params)

    def test_symmetric_and_alternating_scale(self):
        for family in ("symmetric", "alternating"):
            assert GroupId(family, (100000,)).natural_degree == 100000
            with pytest.raises(GroupSpecError, match="exceeds the supported scale n <= 1e5"):
                GroupId(family, (100001,))
        # cyclic and dihedral build nothing in an audit and keep no bound
        assert GroupId("cyclic", (200000,)).natural_degree == 200000
        assert GroupId("dihedral", (200000,)).natural_degree == 200000

    def test_bad_parameters_inside_the_scale(self):
        for params in [(1, 5), (3, 6), (2, 316), (2, 1), (2, 0), (0, 10**18)]:
            with pytest.raises(GroupSpecError, match="bad pgl parameters"):
                GroupId("pgl", params)
        assert GroupId("psl", (16, 2)).natural_degree == 65535

    @pytest.mark.parametrize("text,character,position", [
        ("M\u0661\u0661", "\u0661", 1),  # Arabic-Indic digits
        ("PSL(3,\u0663)", "\u0663", 6),
        ("psl(2,\uff18)", "\uff18", 6),  # a fullwidth digit
        ("\u017f7", "\u017f", 0),  # the long s, whose upper case is S
        ("A\u00a07", "\u00a0", 1),  # a no-break space
        ("S7\x1c", "\x1c", 2),  # ASCII, but not ASCII whitespace
    ])
    def test_non_ascii_refused(self, text, character, position):
        with pytest.raises(GroupSpecError) as info:
            parse_group_spec(text)
        assert str(info.value) == (
            f"cannot parse group name {text!r}: unexpected character {character!r} "
            f"(at position {position})"
        )

    def test_ascii_whitespace_ignored(self):
        assert parse_group_spec("PSL (3,\t4)\n") == GroupId("psl", (3, 4))
        assert parse_group_spec(" m11\r\n\x0b\x0c") == GroupId("mathieu", (11,))

    @given(st.text(alphabet="MSACDPLGmsacdplgX0123456789(), \t\n\u0661\uff18\u017f\u00a0", max_size=12))
    @example("M\u0661\u0661")
    def test_any_text_parses_as_ascii_or_is_refused(self, text):
        try:
            gid = parse_group_spec(text)
        except GroupSpecError:
            return
        assert text.isascii()
        assert parse_group_spec(gid.name()) == gid

    @pytest.mark.parametrize("text", [
        "S" + "9" * 4301,
        "PSL(2," + "9" * 4301 + ")",
        "c" + "1" * 3000 + " " + "1" * 1301,  # whitespace inside a number is ignored
    ], ids=["symmetric", "psl", "split"])
    def test_number_of_more_than_max_digits_refused(self, text):
        with pytest.raises(GroupSpecError) as info:
            parse_group_spec(text)
        assert str(info.value) == "cannot parse group name: a number has more than 4300 digits"

    def test_number_of_max_digits_is_read(self):
        assert MAX_DIGITS == 4300
        assert parse_group_spec("C" + "1" * 4300).parameters == (int("1" * 4300),)
        with pytest.raises(GroupSpecError, match="exceeds the supported scale n <= 1e5"):
            parse_group_spec("S" + "9" * 4300)

    def test_prime_power_decomposition(self):
        assert prime_power_decomposition(8) == (2, 3)
        assert prime_power_decomposition(49) == (7, 2)
        assert prime_power_decomposition(12) is None
        assert prime_power_decomposition(97) == (97, 1)


# every family, and PSL/PGL for every q^m <= 6561 (PSL(8,2) to PGL(4,9))
PINNED_GROUPS = (
    [f"S{n}" for n in range(2, 13)] + [f"A{n}" for n in range(3, 13)]
    + [f"C{n}" for n in range(2, 10)] + [f"D{n}" for n in range(3, 11)]
    + [f"M{n}" for n in sorted(MATHIEU_ORDERS)]
    + [f"{family}({m},{q})" for m in range(2, 9) for q in range(2, 82)
       if q**m <= 6561 and prime_power_decomposition(q) is not None for family in ("PSL", "PGL")]
)


class TestGeneratorPin:
    """One digest over every pinned group's name, order and generator
    images: any change to a generator, its order in the list or a closed-form
    order shows here."""

    def test_group_count(self):
        assert len(PINNED_GROUPS) == 164

    def test_digest(self):
        digest = hashlib.sha256()
        for name in PINNED_GROUPS:
            group = fresh_group(parse_group_spec(name))  # the pinned groups are not kept
            images = tuple(g.images for g in group.generators)
            digest.update(repr((name, group.known_order, images)).encode())
        assert digest.hexdigest() == "35bb08d1c114b900c28f5b88797dd23804b24af2d1c27e19b54da9a709066c69"
