"""Fact table, unboundedness rules, and audit verdict logic."""

import importlib

import pytest

from heartlab import cli, reps
from heartlab.audit import (
    CITATIONS,
    AuditEvidence,
    InconclusiveUnbounded,
    NoFactError,
    UnboundedCertificate,
    _ALLOWED_COVER_RULES,
    _branch_requirement,
    _decide,
    _load_facts,
    audit,
    check_unbounded,
    cyclotomic_obstruction,
    genus_of,
    group_fact,
    min_projective_degree_bound,
)
from heartlab.zoo import GroupId, GroupSpecError


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


class TestFactTable:
    def test_loads_and_validates(self):
        facts = _load_facts()
        assert len(facts) == 10
        for fact in facts:
            assert fact.citation in CITATIONS

    def test_every_allowed_cover_rule_is_used(self):
        assert _ALLOWED_COVER_RULES == {fact.cover_rule for fact in _load_facts()}

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
        report = audit(GroupId("mathieu", (23,)))
        assert report.verdict == "certified"
        assert report.branch == "i"
        assert report.genus == 11
        assert report.evidence.transitivity_degree == 4

    def test_m22_certified_branch_ii_rule_r3(self):
        report = audit(GroupId("mathieu", (22,)))
        assert report.verdict == "certified"
        assert report.branch == "ii"
        assert {s.rule for s in report.certificate.steps} == {"R3"}

    def test_psl33_certified_branch_i(self):
        report = audit(GroupId("psl", (3, 3)))
        assert report.verdict == "certified"
        assert report.branch == "i"

    def test_psl43_branch_iii_computes_endo(self):
        report = audit(GroupId("psl", (4, 3)))
        assert report.verdict == "certified"
        assert report.branch == "iii"
        assert report.evidence.endo_dimension == 1
        assert report.evidence.endo_source == "computed"

    def test_exclusion_list(self):
        for m, q in [(3, 4), (4, 2)]:
            for family in ("psl", "pgl"):
                report = audit(GroupId(family, (m, q)))
                assert report.verdict == "excluded"
                assert f"({m},{q})" in report.reason

    def test_klemm_implied_endo_for_branch_i(self):
        report = audit(GroupId("mathieu", (11,)))
        assert report.evidence.endo_dimension == 1
        assert report.evidence.endo_source == "klemm-implied"
        assert "klemm-endo" in report.citations

    def test_symmetric_delegates_to_alternating(self):
        report = audit(GroupId("symmetric", (9,)))
        assert report.verdict == "certified"
        assert report.simple_subgroup == "A9"
        assert report.evidence.containment_verified is True

    def test_pgl_delegates_to_psl(self):
        report = audit(GroupId("pgl", (3, 3)))
        assert report.verdict == "certified"
        assert report.simple_subgroup == "PSL(3,3)"

    def test_uncovered_groups_inconclusive(self):
        assert audit(GroupId("cyclic", (6,))).verdict == "inconclusive"
        assert audit(GroupId("dihedral", (7,))).verdict == "inconclusive"
        report = audit(GroupId("psl", (2, 5)))
        assert report.verdict == "inconclusive"
        assert "m >= 3" in report.reason

    def test_degree_preconditions(self):
        with pytest.raises(GroupSpecError):
            audit(GroupId("symmetric", (4,)))
        with pytest.raises(GroupSpecError):
            audit(GroupId("mathieu", (23,)), n=22)

    def test_deep_audit_records_module_evidence(self):
        report = audit(GroupId("mathieu", (11,)), deep=True)
        assert report.evidence.irreducibility == "irreducible"
        assert report.evidence.indecomposability == "indecomposable"
        assert report.evidence.endo_source == "computed"
        deep_reducible = audit(GroupId("mathieu", (22,)), deep=True)
        assert deep_reducible.evidence.irreducibility == "reducible"
        assert deep_reducible.evidence.irreducibility_witness_dimension == 10
        assert deep_reducible.verdict == "certified"

    def test_certified_reports_cite_registry(self):
        for gid in [GroupId("mathieu", (24,)), GroupId("psl", (3, 2)), GroupId("symmetric", (5,))]:
            report = audit(gid)
            assert report.verdict == "certified"
            assert report.citations
            for key in report.citations:
                assert key in CITATIONS
            assert "jacobian-criterion" in report.citations

    def test_payload_shape(self):
        payload = audit(GroupId("mathieu", (23,))).to_payload()
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
        report = audit(GroupId("mathieu", (24,)), deep=True)
        assert report.evidence.indecomposability == "indecomposable"
        assert end_calls == [22]

    def test_deep_audit_branch_iii(self, end_calls):
        report = audit(GroupId("psl", (4, 3)), deep=True)
        assert report.branch == "iii"
        assert report.evidence.indecomposability == "indecomposable"
        assert end_calls == [38]

    def test_heart_endo_and_indecomposable(self, end_calls, capsys):
        assert cli.main(["heart", "M22", "--endo", "--indecomposable"]) == 0
        capsys.readouterr()
        assert end_calls == [20]
