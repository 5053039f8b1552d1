"""Group constructors: orders, transitivity, containments, name parsing.

The constructors pass their closed-form order, which their own chain then
only confirms.  So every order and containment check here builds
``deterministic(G)``, the deterministic Schreier-Sims chain of the same
generators without the order, which proves each formula independently.
"""

from math import gcd

import pytest

from heartlab.fields import make_field, projective_points
from heartlab.perms import PermGroup, compose, cycle_type
from heartlab.zoo import (
    MATHIEU_ORDERS as ZOO_MATHIEU_ORDERS,
    GroupId,
    GroupSpecError,
    alternating,
    build_group,
    cyclic,
    dihedral,
    mathieu,
    parse_group_spec,
    pgl,
    pgl_order,
    prime_power_decomposition,
    psl,
    psl_order,
    symmetric,
)
from support import (
    DeterministicChain,
    TupleField,
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
            assert symmetric(n).known_order == expected
            assert deterministic(symmetric(n)).order() == expected

    def test_alternating_orders_and_enumeration(self):
        a5 = alternating(5)
        assert a5.known_order == 60
        assert deterministic(a5).order() == 60
        assert len(a5.enumerate_elements()) == 60
        assert alternating(7).known_order == 2520
        assert deterministic(alternating(7)).order() == 2520

    def test_alternating_transitivity(self):
        assert alternating(5).transitivity_degree() == 3

    def test_cyclic_and_dihedral(self):
        for group, order in [(cyclic(6), 6), (dihedral(6), 12), (dihedral(5), 10)]:
            assert group.known_order == order
            assert deterministic(group).order() == order

    def test_parameter_validation(self):
        # each constructor validates through GroupId, with its wording
        for constructor, n in [(symmetric, 1), (alternating, 2), (cyclic, 1), (dihedral, 2)]:
            family = constructor.__name__
            with pytest.raises(GroupSpecError, match=rf"^bad parameters \({n},\) for {family}$"):
                constructor(n)
        with pytest.raises(GroupSpecError, match=r"^no Mathieu group of degree \(13,\)$"):
            mathieu(13)


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
            assert deterministic(build_group(GroupId("psl", (m, q)))).order() == psl_order(m, q)
            assert deterministic(build_group(GroupId("pgl", (m, q)))).order() == pgl_order(m, q)

    def test_psl_contained_in_pgl(self):
        for m, q in [(3, 4), (4, 3), (2, 9)]:
            sub = build_group(GroupId("psl", (m, q)))
            big = deterministic(build_group(GroupId("pgl", (m, q))))
            assert all(big.contains(g) for g in sub.generators)

    # audit proves PSL <= PGL by this prefix instead of building PGL's chain;
    # PGL(3,3) is in the q^m <= 3000 range
    @pytest.mark.parametrize("m,q", [*_small_projective_parameters(), (4, 16), (5, 9)])
    def test_psl_generators_are_a_prefix_of_pgl(self, m, q):
        sub = [g.images for g in psl(m, q).generators]
        big = [g.images for g in pgl(m, q).generators]
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
            psl(3, 6)  # not a prime power
        with pytest.raises(GroupSpecError):
            pgl(1, 5)
        with pytest.raises(GroupSpecError):
            psl(8, 7)  # q^m over desk scale

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
        assert [g.images for g in psl(m, q).generators] == reference_projective_generators(m, q, False)
        assert [g.images for g in pgl(m, q).generators] == reference_projective_generators(m, q, True)

    @pytest.mark.parametrize("m,q", [(3, 13), (3, 16), (2, 256), (5, 3), (2, 128), (3, 7), (2, 64),
                                     (3, 5)])
    def test_benchmark_groups(self, m, q):
        assert [g.images for g in psl(m, q).generators] == reference_projective_generators(m, q, False)


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
        assert GroupId("psl", (16, 2)).order == psl_order(16, 2)


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

    def test_prime_power_decomposition(self):
        assert prime_power_decomposition(8) == (2, 3)
        assert prime_power_decomposition(49) == (7, 2)
        assert prime_power_decomposition(12) is None
        assert prime_power_decomposition(97) == (97, 1)
