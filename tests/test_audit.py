"""Fact table, unboundedness rules, and audit verdict logic."""

import hashlib
import importlib
import json

import pytest

from heartlab import cli, reps
from heartlab.audit import (
    CITATIONS,
    FACTS,
    AuditEvidence,
    InconclusiveUnbounded,
    NoFactError,
    UnboundedCertificate,
    _branch_requirement,
    _decide,
    _fact_context,
    audit,
    check_unbounded,
    cyclotomic_obstruction,
    genus_of,
    group_fact,
    min_projective_degree_bound,
)
from heartlab.zoo import (
    MATHIEU_DEGREES,
    GroupId,
    GroupSpecError,
    build_group,
    parse_group_spec,
    prime_power_decomposition,
)
from support import _selector_matches


class TestGenus:
    def test_values(self):
        assert genus_of(23) == 11
        assert genus_of(22) == 10
        assert genus_of(21) == 10
        assert genus_of(5) == 2

    def test_rejects_small_degrees(self):
        for n in (1, 4):
            with pytest.raises(ValueError):
                genus_of(n)

    def test_identity_over_range(self):
        for n in range(5, 101):
            g = genus_of(n)
            assert g >= 2
            assert 2 * g + (1 if n % 2 else 2) == n


class TestCyclotomicObstruction:
    def test_order_seven_dim_three(self):
        assert cyclotomic_obstruction(7, 3) is True

    def test_no_obstruction_cases(self):
        assert cyclotomic_obstruction(2, 1) is False
        assert cyclotomic_obstruction(11, 10) is False

    def test_rejects_composite_order(self):
        with pytest.raises(ValueError):
            cyclotomic_obstruction(6, 2)


def fact_grid() -> list[GroupId]:
    """The zoo groups the fact-table tests walk: every Mathieu group, A_n and
    S_n for 5 <= n < 80, and PSL and PGL with q < 400 and q^m <= 10^5."""
    ids = [GroupId("mathieu", (n,)) for n in MATHIEU_DEGREES]
    ids += [GroupId(f, (n,)) for f in ("alternating", "symmetric") for n in range(5, 80)]
    ids += [
        GroupId(f, (m, q))
        for f in ("psl", "pgl")
        for q in range(2, 400)
        if prime_power_decomposition(q)
        for m in range(2, 17)
        if q**m <= 10**5
    ]
    return ids


# the record, the bound and the R0-R4 outcome of every group in fact_grid()
# at these genera and at the group's own genus (n - 1) // 2
FACT_GRID_GENERA = (2, 3, 4, 5, 10, 11, 40, 42, 100, 1000)
FACT_GRID_PIN = "f92a878e3afe84c4de05d2f6d836113873a3ca984f02840f4bfbf6a49df35baf"

# the flags a record may carry, and the cover rules check_unbounded handles
FACT_FLAGS = {
    "no_linear_at_min_degree", "no_real_rep_at_degree_g", "lie_type_char2", "wagner_char2_bound",
}
COVER_RULES = {"feit_tits_transfer", "kleidman_liebeck_m4"}


def printed_bound(fact, context: dict[str, int]) -> int:
    """The record's printed bound text, read as Python with ^ as **."""
    return eval(fact.bound_expr.replace("^", "**"), {"__builtins__": {}}, context)


class TestFactTable:
    def test_loads_and_validates(self):
        assert len(FACTS) == 10
        for fact in FACTS:
            assert fact.citation in CITATIONS
            assert fact.flags <= FACT_FLAGS
            assert fact.cover_rule in COVER_RULES

    def test_every_allowed_cover_rule_is_used(self):
        assert COVER_RULES == {fact.cover_rule for fact in FACTS}

    def test_char2_flag_agrees_with_the_cover_rule(self):
        # check_unbounded dispatches on cover_rule; zoo still prints the flag
        for fact in FACTS:
            flags = fact.flags
            assert ("lie_type_char2" in flags) == (fact.cover_rule == "kleidman_liebeck_m4")

    @pytest.mark.parametrize(
        "gid,bound",
        [
            (GroupId("mathieu", (23,)), 22),
            (GroupId("mathieu", (24,)), 22),
            (GroupId("mathieu", (11,)), 10),
            (GroupId("mathieu", (22,)), 10),
            (GroupId("psl", (3, 8)), 72),    # (512 - 8) / 7
            (GroupId("psl", (4, 3)), 26),    # tabulated special value
            (GroupId("psl", (3, 3)), 12),    # 13 - 1
            (GroupId("psl", (2, 8)), 7),     # q - 1
            (GroupId("alternating", (11,)), 10),  # 2g with g = 5
        ],
    )
    def test_bounds(self, gid, bound):
        got, citation = min_projective_degree_bound(gid)
        assert got == bound
        assert citation in CITATIONS

    @pytest.mark.parametrize(
        "gid",
        [
            GroupId("psl", (2, 7)),   # odd q, m = 2: outside the table
            GroupId("psl", (3, 2)),   # excepted small characteristic-2 case
            GroupId("psl", (3, 4)),
            GroupId("psl", (2, 4)),
            GroupId("cyclic", (11,)),
            GroupId("alternating", (8,)),
        ],
    )
    def test_no_fact(self, gid):
        with pytest.raises(NoFactError):
            group_fact(gid)

    def test_bound_evaluator_matches_python_eval(self):
        # every zoo group with a fact record: the bound is at least 2 and is
        # what eval(printed expr with ^ as **) gives, on the same context
        checked = 0
        for gid in fact_grid():
            try:
                fact = group_fact(gid)
            except NoFactError:
                continue
            bound, _ = min_projective_degree_bound(gid)
            assert bound == printed_bound(fact, _fact_context(gid)) >= 2
            checked += 1
        assert checked > 100

    def test_printed_text_picks_the_same_record(self):
        # the selector and bound text that zoo prints say what the code does:
        # the first record whose text matches is the first whose matches()
        # does, and its bound() is eval of its text
        for gid in fact_grid():
            context = _fact_context(gid)
            by_text = next(
                (f for f in FACTS
                 if f.family == gid.family and _selector_matches(f.selector, context)),
                None,
            )
            try:
                fact = group_fact(gid)
            except NoFactError:
                fact = None
            assert fact is by_text, gid
            if fact is not None:
                assert fact.bound(**context) == printed_bound(fact, context), gid

    def test_fact_grid_pin(self):
        digest = hashlib.sha256()
        for gid in fact_grid():
            try:
                fact = group_fact(gid)
            except NoFactError:
                fields = bound = None
            else:
                fields = (fact.family, fact.selector, fact.bound_expr, sorted(fact.flags),
                          fact.cover_rule, fact.citation)
                bound = min_projective_degree_bound(gid)
            for g in (*FACT_GRID_GENERA, max(2, (gid.natural_degree - 1) // 2)):
                outcome = (gid, fields, bound, repr(check_unbounded(gid, g)))
                digest.update(repr(outcome).encode())
        assert digest.hexdigest() == FACT_GRID_PIN

    def test_m22_flags(self):
        fact = group_fact(GroupId("mathieu", (22,)))
        assert "no_linear_at_min_degree" in fact.flags
        assert "no_real_rep_at_degree_g" in fact.flags


class TestCheckUnbounded:
    def test_rule_r0_automatic_genus_two(self):
        cert = check_unbounded(GroupId("alternating", (5,)), 2)
        assert isinstance(cert, UnboundedCertificate)
        assert [s.rule for s in cert.steps] == ["R0"]

    def test_rule_r1_mathieu(self):
        cert = check_unbounded(GroupId("mathieu", (23,)), 11)
        assert isinstance(cert, UnboundedCertificate)
        assert {s.rule for s in cert.steps} == {"R1"}
        assert "feit-tits" in cert.citation_keys()

    def test_rule_r2_char2_psl(self):
        cert = check_unbounded(GroupId("psl", (2, 8)), 4)
        assert isinstance(cert, UnboundedCertificate)
        assert {s.rule for s in cert.steps} == {"R2"}

    def test_rule_r2_m4_inequality(self):
        cert = check_unbounded(GroupId("psl", (4, 4)), 42)
        assert isinstance(cert, UnboundedCertificate)
        statements = " ".join(s.statement for s in cert.steps)
        assert "q^3" in statements
        assert "42 < q^3 = 64" in statements

    def test_rule_r3_m22(self):
        cert = check_unbounded(GroupId("mathieu", (22,)), 10)
        assert isinstance(cert, UnboundedCertificate)
        assert {s.rule for s in cert.steps} == {"R3"}

    def test_rule_r4_order_seven(self):
        for gid in (GroupId("psl", (3, 2)), GroupId("alternating", (7,)), GroupId("alternating", (8,))):
            cert = check_unbounded(gid, 3)
            assert isinstance(cert, UnboundedCertificate)
            assert {s.rule for s in cert.steps} == {"R4"}

    def test_rule_r4_reads_the_closed_form_order(self, monkeypatch):
        # R4 needs only |G|: no group is built inside check_unbounded
        audit_module = importlib.import_module("heartlab.audit")

        def no_build(group_id):
            raise AssertionError(f"build_group({group_id.name()}) inside check_unbounded")

        def guarded(group_id, g):
            with monkeypatch.context() as patch:
                patch.setattr(audit_module, "build_group", no_build)
                return check_unbounded(group_id, g)

        monkeypatch.setattr(audit_module, "check_unbounded", guarded)
        for name in ("A7", "S7", "S8", "PSL(3,2)"):
            report = audit(parse_group_spec(name), seed=0, deep=False)
            assert report.verdict == "certified"
            assert {s.rule for s in report.certificate.steps} == {"R4"}

    def test_inconclusive_cases(self):
        out = check_unbounded(GroupId("cyclic", (11,)), 5)
        assert isinstance(out, InconclusiveUnbounded)
        out = check_unbounded(GroupId("psl", (2, 4)), 3)  # order 60, no 7
        assert isinstance(out, InconclusiveUnbounded)

    def test_certificates_cite_registry_keys(self):
        for gid, g in [
            (GroupId("mathieu", (22,)), 10),
            (GroupId("psl", (4, 4)), 42),
            (GroupId("alternating", (16,)), 7),
        ]:
            cert = check_unbounded(gid, g)
            assert isinstance(cert, UnboundedCertificate)
            for step in cert.steps:
                assert step.citations
                for key in step.citations:
                    assert key in CITATIONS


class TestVerdictLogic:
    def test_decide_monotonicity(self):
        cert = UnboundedCertificate("X", 5, [1])  # any nonempty steps
        assert _decide(True, cert) == "certified"
        assert _decide(False, cert) == "inconclusive"
        assert _decide(True, InconclusiveUnbounded("X", 5, "r")) == "inconclusive"
        assert _decide(True, None) == "inconclusive"
        assert _decide(True, UnboundedCertificate("X", 5, [])) == "inconclusive"

    def test_branch_requirements(self):
        assert _branch_requirement("i", AuditEvidence(transitivity_degree=2))[0]
        assert not _branch_requirement("i", AuditEvidence(transitivity_degree=1))[0]
        assert _branch_requirement("ii", AuditEvidence(transitivity_degree=3))[0]
        assert not _branch_requirement("ii", AuditEvidence(transitivity_degree=2))[0]
        ok_iii = AuditEvidence(transitivity_degree=2, endo_dimension=1)
        assert _branch_requirement("iii", ok_iii)[0]
        degraded = AuditEvidence(transitivity_degree=2, endo_dimension=None)
        assert not _branch_requirement("iii", degraded)[0]
        wrong = AuditEvidence(transitivity_degree=2, endo_dimension=2)
        assert not _branch_requirement("iii", wrong)[0]


class TestAudit:
    def test_m23_certified_branch_i(self):
        report = audit(GroupId("mathieu", (23,)), seed=0, deep=False)
        assert report.verdict == "certified"
        assert report.branch == "i"
        assert report.genus == 11
        assert report.evidence.transitivity_degree == 4

    def test_m22_certified_branch_ii_rule_r3(self):
        report = audit(GroupId("mathieu", (22,)), seed=0, deep=False)
        assert report.verdict == "certified"
        assert report.branch == "ii"
        assert {s.rule for s in report.certificate.steps} == {"R3"}

    def test_psl33_certified_branch_i(self):
        report = audit(GroupId("psl", (3, 3)), seed=0, deep=False)
        assert report.verdict == "certified"
        assert report.branch == "i"

    def test_psl43_branch_iii_computes_endo(self):
        report = audit(GroupId("psl", (4, 3)), seed=0, deep=False)
        assert report.verdict == "certified"
        assert report.branch == "iii"
        assert report.evidence.endo_dimension == 1
        assert report.evidence.endo_source == "computed"

    def test_exclusion_list(self):
        for m, q in [(3, 4), (4, 2)]:
            for family in ("psl", "pgl"):
                report = audit(GroupId(family, (m, q)), seed=0, deep=False)
                assert report.verdict == "excluded"
                assert f"({m},{q})" in report.reason

    def test_klemm_implied_endo_for_branch_i(self):
        report = audit(GroupId("mathieu", (11,)), seed=0, deep=False)
        assert report.evidence.endo_dimension == 1
        assert report.evidence.endo_source == "klemm-implied"
        assert "klemm-endo" in report.citations

    def test_symmetric_delegates_to_alternating(self):
        report = audit(GroupId("symmetric", (9,)), seed=0, deep=False)
        assert report.verdict == "certified"
        assert report.simple_subgroup == "A9"
        assert report.evidence.containment_verified is True

    def test_pgl_delegates_to_psl(self):
        report = audit(GroupId("pgl", (3, 3)), seed=0, deep=False)
        assert report.verdict == "certified"
        assert report.simple_subgroup == "PSL(3,3)"

    @pytest.mark.parametrize("m,q", [(3, 3), (3, 7)])
    def test_pgl_containment_builds_no_pgl_chain(self, m, q):
        build_group.cache_clear()
        try:
            report = audit(GroupId("pgl", (m, q)), seed=0, deep=False)
            assert report.evidence.containment_verified is True
            # the audit's own groups, from the cache: PSL's chain only
            assert build_group(GroupId("pgl", (m, q)))._chain is None
            assert build_group(GroupId("psl", (m, q)))._chain is not None
        finally:
            build_group.cache_clear()

    def test_uncovered_groups_inconclusive(self):
        assert audit(GroupId("cyclic", (6,)), seed=0, deep=False).verdict == "inconclusive"
        assert audit(GroupId("dihedral", (7,)), seed=0, deep=False).verdict == "inconclusive"
        report = audit(GroupId("psl", (2, 5)), seed=0, deep=False)
        assert report.verdict == "inconclusive"
        assert "m >= 3" in report.reason

    def test_degree_preconditions(self):
        with pytest.raises(GroupSpecError):
            audit(GroupId("symmetric", (4,)), seed=0, deep=False)

    def test_deep_audit_records_module_evidence(self):
        report = audit(GroupId("mathieu", (11,)), seed=0, deep=True)
        assert report.evidence.irreducibility == "irreducible"
        assert report.evidence.indecomposability == "indecomposable"
        assert report.evidence.endo_source == "computed"
        deep_reducible = audit(GroupId("mathieu", (22,)), seed=0, deep=True)
        assert deep_reducible.evidence.irreducibility == "reducible"
        assert deep_reducible.evidence.irreducibility_witness_dimension == 10
        assert deep_reducible.verdict == "certified"

    def test_certified_reports_cite_registry(self):
        for gid in [GroupId("mathieu", (24,)), GroupId("psl", (3, 2)), GroupId("symmetric", (5,))]:
            report = audit(gid, seed=0, deep=False)
            assert report.verdict == "certified"
            assert report.citations
            for key in report.citations:
                assert key in CITATIONS
            assert "jacobian-criterion" in report.citations

    def test_payload_shape(self):
        payload = audit(GroupId("mathieu", (23,)), seed=0, deep=False).to_payload()
        assert payload["verdict"] == "certified"
        assert payload["condition_branch"] == "i"
        assert payload["degree"] == 23 and payload["genus"] == 11
        assert payload["unbounded_certificate"]
        for step in payload["unbounded_certificate"]:
            assert set(step) == {"rule", "statement", "citations"}


class TestOneEndSolve:
    """End is solved once per command and shared with is_indecomposable."""

    @pytest.fixture
    def end_calls(self, monkeypatch):
        calls = []
        original = reps.endomorphism_algebra

        def counted(rep):
            calls.append(rep.dimension)
            return original(rep)

        # audit and cli bind the name at import, so patch every binding; the
        # package re-exports an audit() function that shadows the submodule
        for module in (reps, importlib.import_module("heartlab.audit"), cli):
            monkeypatch.setattr(module, "endomorphism_algebra", counted)
        return calls

    def test_deep_audit_branch_ii(self, end_calls):
        report = audit(GroupId("mathieu", (24,)), seed=0, deep=True)
        assert report.evidence.indecomposability == "indecomposable"
        assert end_calls == [22]

    def test_deep_audit_branch_iii(self, end_calls):
        report = audit(GroupId("psl", (4, 3)), seed=0, deep=True)
        assert report.branch == "iii"
        assert report.evidence.indecomposability == "indecomposable"
        assert end_calls == [38]

    def test_heart_endo_and_indecomposable(self, end_calls, capsys):
        assert cli.main(["heart", "M22", "--endo", "--indecomposable"]) == 0
        capsys.readouterr()
        assert end_calls == [20]

    def test_heart_indecomposable_without_endo(self, end_calls, capsys):
        # End is solved for the idempotent search, and not printed
        assert cli.main(["heart", "M22", "--indecomposable"]) == 0
        out, _ = capsys.readouterr()
        assert end_calls == [20]
        assert "endo_dimension" not in json.loads(out)["payload"]
