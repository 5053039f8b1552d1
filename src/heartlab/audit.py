"""Hypothesis auditing: citation-backed certificates that End(J(C_f)) = Z.

For y^2 = f(x) with deg f = n >= 5 and Gal(f) containing a suitable simple
non-abelian group G, the certified implication is: if G acts 2-transitively
on the roots (n odd), or 3-transitively (n even), or has End_G(heart) = F_2
(n even), and every minimal 2-cover of G is g-unbounded for the curve genus
g, then every absolute endomorphism of the jacobian is an integer multiple of
the identity.  The auditor checks exactly these hypotheses: transitivity and
heart evidence are computed on the group itself, and g-unboundedness is
established only through the sufficient rules R0-R4 below, each step carrying
a citation into the bundled registry.  Anything outside those rules is
reported inconclusive, never guessed.

Rules:
  R0  g = 2 is automatic (perfect groups have no nontrivial PSL(2,R) image).
  R1  minimal projective degree bound > g, transferred to minimal covers by
      Feit-Tits (groups not of Lie type in characteristic 2).
  R2  Lie type in characteristic 2: Kleidman-Liebeck path; for m = 4 the
      extra inequality g < q^3 is required.
  R3  M22: bound = g = 10 plus "no linear representation at the bound" and
      "no real representation of the double cover at degree 10".
  R4  g = 3 with 7 dividing |G|: PSL(2,C) exclusion plus the 7th-cyclotomic
      obstruction in SL(3,Q).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources

from .reps import endomorphism_algebra, heart, is_indecomposable, is_irreducible
from .zoo import GroupId, GroupSpecError, build_group

# -- citation registry ---------------------------------------------------------

CITATIONS: dict[str, str] = {
    "jacobian-criterion": (
        "Certification target: for y^2 = f(x) of degree n >= 5 whose Galois group "
        "contains a simple non-abelian subgroup G with the audited transitivity/heart "
        "properties and g-unbounded minimal 2-covers, End(J(C_f)) = Z."
    ),
    "genus-formula": (
        "Hyperelliptic genus: y^2 = f(x) with deg f = n has genus (n-1)/2 for odd n "
        "and (n-2)/2 for even n."
    ),
    "klemm-endo": (
        "Klemm (Satz 4): the heart of a permutation module over F_2 has endomorphism "
        "ring F_2 when n is odd and the group acts 2-transitively, or n is even and it "
        "acts 3-transitively."
    ),
    "mortimer-table": (
        "Mortimer (Table 1): the heart of the natural PSL_m(q) action on projective "
        "points is absolutely simple for odd q with m >= 3; for q even and m >= 3 it "
        "is reducible."
    ),
    "atlas-m11-proj-min": (
        "Atlas of Finite Groups: nontrivial irreducible projective representations of "
        "M11 in characteristic zero have degree >= 10; M11 < M12 transfers the bound."
    ),
    "atlas-m22-deg10": (
        "Atlas of Finite Groups: projective representations of M22 in characteristic "
        "zero have degree >= 10, there is no nontrivial linear 10-dimensional "
        "representation, and the double cover has no real 10-dimensional representation."
    ),
    "atlas-m23-proj-min": (
        "Atlas of Finite Groups: nontrivial irreducible projective representations of "
        "M23 in characteristic zero have degree >= 22; M23 < M24 transfers the bound."
    ),
    "atlas-l43-deg26": (
        "Atlas of Finite Groups: nontrivial irreducible projective representations of "
        "L4(3) in characteristic zero have degree >= 26."
    ),
    "ls-psl-even": (
        "Landazuri-Seitz / Tiep-Zalesskii bounds: nontrivial projective representations "
        "of PSL_m(q), m >= 3, in characteristic zero have degree >= (q^m - q)/(q - 1), "
        "small exceptional (m, q) excluded."
    ),
    "ls-psl2-even": (
        "Landazuri-Seitz / Tiep-Zalesskii bounds: nontrivial projective representations "
        "of PSL_2(q), q > 4, have degree >= q - 1."
    ),
    "ls-psl-odd": (
        "Landazuri-Seitz / Tiep-Zalesskii bounds: for odd q and m >= 3, nontrivial "
        "projective representations of PSL_m(q) have degree >= (q^m - 1)/(q - 1) - 1, "
        "except L4(3)."
    ),
    "wagner-alt-char2": (
        "Wagner: nontrivial characteristic-2 representations of A_n, n >= 9, have "
        "degree >= n - 1 (n odd) / n - 2 (n even); the Schur multiplier 2 extends the "
        "bound to projective representations, and characteristic-2 projective bounds "
        "dominate characteristic-zero ones."
    ),
    "feit-tits": (
        "Feit-Tits: for a known simple group not of Lie type in characteristic 2, the "
        "kernel of any minimal-degree complex projective representation of a minimal "
        "cover contains the covering kernel, so degree bounds transfer to covers."
    ),
    "kleidman-liebeck": (
        "Kleidman-Liebeck (Theorem 3): for q even, a minimal cover of L_m(q) embedding "
        "in PGL(g, C) forces m = 4 with g >= q^3, or L_m(q) itself embeds in PGL(g, C)."
    ),
    "suzuki-psl2c": (
        "Suzuki (Theorem 6.17): a nonsolvable finite subgroup of PSL(2, C) is "
        "isomorphic to A5, so a perfect group of order divisible by 7 has no "
        "nontrivial homomorphism to PSL(2, C)."
    ),
    "cyclotomic-order7": (
        "The 7th cyclotomic field has degree 6 over Q, so SL(3, Q) contains no element "
        "of order 7."
    ),
    "psl2r-perfect": (
        "Finite subgroups of SL(2, R) are conjugate into SO(2), hence abelian, so "
        "every homomorphism from a perfect group to PSL(2, R) is trivial: every "
        "perfect group is 2-unbounded."
    ),
    "exceptional-covers": (
        "Atlas of Finite Groups: L2(2) is solvable while L4(2) = A8 and L3(4) have "
        "exceptional covering groups with unusually small projective representations, "
        "so the generic degree bounds exclude them."
    ),
}

# Characteristic-2 projective groups with exceptional covering behavior,
# excluded from the certified coverage outright.
CHAR2_EXCLUSIONS = {(2, 2), (4, 2), (3, 4)}


class NoFactError(LookupError):
    """The fact table has no record for this group."""


# -- fact table ----------------------------------------------------------------


@dataclass(frozen=True)
class GroupFact:
    family: str
    selector: str
    bound_expr: str
    flags: frozenset[str]
    cover_rule: str
    citation: str


_ALLOWED_FLAGS = {
    "no_linear_at_min_degree",
    "no_real_rep_at_degree_g",
    "lie_type_char2",
    "wagner_char2_bound",
}
_ALLOWED_COVER_RULES = {"feit_tits_transfer", "kleidman_liebeck_m4"}
_COND_RE = re.compile(r"^(m|q|n)(>=|=|>)(\d+)$")
_BOUND_RE = re.compile(r"^[0-9mqng+\-*/()^ ]+$")

_fact_cache: list[GroupFact] | None = None


def _load_facts() -> list[GroupFact]:
    global _fact_cache
    if _fact_cache is not None:
        return _fact_cache
    text = resources.files("heartlab.data").joinpath("group_facts.tsv").read_text()
    facts = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 6:
            raise ValueError(f"malformed fact record: {line!r}")
        family, selector, bound, flags_field, cover_rule, citation = parts
        flags = frozenset() if flags_field == "-" else frozenset(flags_field.split(","))
        if not flags <= _ALLOWED_FLAGS:
            raise ValueError(f"unknown flags in fact record: {flags_field!r}")
        if cover_rule not in _ALLOWED_COVER_RULES:
            raise ValueError(f"unknown cover rule {cover_rule!r}")
        if citation not in CITATIONS:
            raise ValueError(f"citation {citation!r} missing from the registry")
        if not _BOUND_RE.match(bound):
            raise ValueError(f"unsupported bound expression {bound!r}")
        facts.append(GroupFact(family, selector, bound, flags, cover_rule, citation))
    _fact_cache = facts
    return facts


def _selector_matches(selector: str, context: dict[str, int]) -> bool:
    for cond in selector.split("&"):
        if cond == "q_even":
            if context.get("q", 1) % 2 != 0:
                return False
        elif cond == "q_odd":
            if context.get("q", 0) % 2 != 1:
                return False
        elif cond.startswith("except:"):
            pairs = cond[len("except:") :].split(";")
            mq = f"({context.get('m')},{context.get('q')})"
            if mq in pairs:
                return False
        else:
            match = _COND_RE.match(cond)
            if not match:
                raise ValueError(f"bad selector condition {cond!r}")
            name, op, value = match.group(1), match.group(2), int(match.group(3))
            have = context.get(name)
            if have is None:
                return False
            if op == "=" and have != value:
                return False
            if op == ">" and not have > value:
                return False
            if op == ">=" and not have >= value:
                return False
    return True


def _eval_bound(expr: str, context: dict[str, int]) -> int:
    value = eval(expr.replace("^", "**"), {"__builtins__": {}}, dict(context))
    if not isinstance(value, int) or value < 2:
        raise ValueError(f"bound expression {expr!r} did not give an integer >= 2")
    return value


def _fact_context(group_id: GroupId) -> dict[str, int]:
    n = group_id.natural_degree
    context = {"n": n, "g": (n - 1) // 2}
    if group_id.family in ("psl", "pgl"):
        context["m"], context["q"] = group_id.parameters
    return context


def group_fact(group_id: GroupId) -> GroupFact:
    context = _fact_context(group_id)
    for fact in _load_facts():
        if fact.family == group_id.family and _selector_matches(fact.selector, context):
            return fact
    raise NoFactError(f"no fact-table record for {group_id.name()}")


def min_projective_degree_bound(group_id: GroupId) -> tuple[int, str]:
    """Lower bound on nontrivial projective representation degrees, with citation."""
    fact = group_fact(group_id)
    return _eval_bound(fact.bound_expr, _fact_context(group_id)), fact.citation


# -- elementary checks -----------------------------------------------------------


def genus_of(n: int) -> int:
    """Genus of y^2 = f(x) with deg f = n >= 5."""
    if n < 5:
        raise ValueError("degree must be at least 5")
    return (n - 1) // 2


def cyclotomic_obstruction(order: int, dim: int) -> bool:
    """True iff rational matrices of size dim admit no element of prime order."""
    from .fields import is_prime

    if not is_prime(order):
        raise ValueError("order must be prime")
    if dim < 1:
        raise ValueError("dimension must be positive")
    return order - 1 > dim


# -- unboundedness certificates ---------------------------------------------------


@dataclass(frozen=True)
class CertificateStep:
    rule: str
    statement: str
    citations: tuple[str, ...]


@dataclass
class UnboundedCertificate:
    group: str
    genus: int
    steps: list[CertificateStep]

    def citation_keys(self) -> list[str]:
        keys = []
        for step in self.steps:
            for key in step.citations:
                if key not in keys:
                    keys.append(key)
        return keys


@dataclass
class InconclusiveUnbounded:
    group: str
    genus: int
    reason: str


def check_unbounded(group_id: GroupId, g: int) -> UnboundedCertificate | InconclusiveUnbounded:
    """Certificate that every minimal 2-cover of the group is g-unbounded.

    Only the sufficient rules R0-R4 are implemented; anything else is
    inconclusive by design, with the failing rule named.
    """
    if g < 2:
        raise ValueError("genus must be at least 2")
    name = group_id.name()
    if g == 2:
        step = CertificateStep(
            "R0", "g = 2: every perfect group is 2-unbounded", ("psl2r-perfect",)
        )
        return UnboundedCertificate(name, g, [step])

    steps: list[CertificateStep] = []
    try:
        bound, citation = min_projective_degree_bound(group_id)
        fact = group_fact(group_id)
    except NoFactError:
        bound, citation, fact = None, None, None

    if fact is not None and bound is not None:
        if "lie_type_char2" in fact.flags:
            if bound > g:
                m, q = group_id.parameters
                steps.append(
                    CertificateStep(
                        "R2",
                        f"minimal projective degree {bound} > g = {g}",
                        (citation,),
                    )
                )
                if m == 4:
                    if not g < q**3:
                        return InconclusiveUnbounded(
                            name, g, f"R2 fails: m = 4 needs g < q^3 but g = {g} >= {q**3}"
                        )
                    steps.append(
                        CertificateStep(
                            "R2",
                            f"m = 4 inequality: g = {g} < q^3 = {q**3}",
                            ("kleidman-liebeck",),
                        )
                    )
                steps.append(
                    CertificateStep(
                        "R2",
                        "a minimal cover inside PGL(g, C) would force m = 4 with "
                        "g >= q^3 or embed the simple group itself; both are excluded",
                        ("kleidman-liebeck",),
                    )
                )
                return UnboundedCertificate(name, g, steps)
        elif bound > g:
            if "wagner_char2_bound" in fact.flags:
                statement = (
                    f"characteristic-2 projective degree bound {bound} > g = {g}; "
                    "characteristic-2 bounds dominate characteristic-zero projective "
                    "representations"
                )
            else:
                statement = f"minimal projective degree {bound} > g = {g}"
            steps.append(CertificateStep("R1", statement, (citation,)))
            steps.append(
                CertificateStep(
                    "R1",
                    "the bound transfers to every minimal 2-cover",
                    ("feit-tits",),
                )
            )
            return UnboundedCertificate(name, g, steps)
        elif fact.flags >= {"no_linear_at_min_degree", "no_real_rep_at_degree_g"} and bound == g:
            steps.append(
                CertificateStep(
                    "R3",
                    f"minimal projective degree {bound} = g with no linear "
                    f"representation at degree {g}: homomorphisms to PGL(g-1, C) "
                    "are trivial",
                    (citation,),
                )
            )
            steps.append(
                CertificateStep(
                    "R3",
                    f"no real representation of the double cover at degree {g}, so "
                    "homomorphisms to PSL(g, R) are trivial",
                    (citation,),
                )
            )
            steps.append(
                CertificateStep(
                    "R3",
                    "both exclusions transfer to every minimal 2-cover",
                    ("feit-tits",),
                )
            )
            return UnboundedCertificate(name, g, steps)

    if g == 3:
        order = build_group(group_id).order()
        if order % 7 == 0 and cyclotomic_obstruction(7, 3):
            steps.append(
                CertificateStep(
                    "R4",
                    f"|G| = {order} is divisible by 7; perfect subgroups of PSL(2, C) "
                    "are trivial or A5, so homomorphisms to PSL(g-1, C) = PSL(2, C) "
                    "are trivial",
                    ("suzuki-psl2c",),
                )
            )
            steps.append(
                CertificateStep(
                    "R4",
                    "g = 3 is odd and phi(7) = 6 > 3, so SL(3, Q) has no element of "
                    "order 7 and homomorphisms to SL(3, Q) are trivial",
                    ("cyclotomic-order7",),
                )
            )
            return UnboundedCertificate(name, g, steps)
        failing = "R4" if bound is None else "R1"
        return InconclusiveUnbounded(
            name, g, f"{failing} fails: no degree bound exceeding g and no order-7 argument"
        )

    if bound is None:
        return InconclusiveUnbounded(name, g, "R1 fails: group is outside the fact table")
    return InconclusiveUnbounded(
        name, g, f"R1 fails: degree bound {bound} does not exceed g = {g}"
    )


# -- the audit -------------------------------------------------------------------


@dataclass
class AuditEvidence:
    transitivity_degree: int
    endo_dimension: int | None = None
    endo_source: str | None = None  # "computed" | "klemm-implied"
    irreducibility: str | None = None
    irreducibility_witness_dimension: int | None = None
    indecomposability: str | None = None
    containment_verified: bool | None = None

    def to_payload(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


@dataclass
class AuditReport:
    group: str
    simple_subgroup: str
    n: int
    genus: int
    branch: str | None
    evidence: AuditEvidence | None
    certificate: UnboundedCertificate | None
    verdict: str  # "certified" | "excluded" | "inconclusive"
    reason: str | None = None
    citations: list[str] = field(default_factory=list)

    def to_payload(self) -> dict:
        payload = {
            "group": self.group,
            "simple_subgroup": self.simple_subgroup,
            "degree": self.n,
            "genus": self.genus,
            "condition_branch": self.branch,
            "evidence": self.evidence.to_payload() if self.evidence else None,
            "unbounded_certificate": None,
            "verdict": self.verdict,
            "reason": self.reason,
            "citations": self.citations,
        }
        if self.certificate is not None:
            payload["unbounded_certificate"] = [
                {"rule": s.rule, "statement": s.statement, "citations": list(s.citations)}
                for s in self.certificate.steps
            ]
        return payload


def _simple_subgroup_id(group_id: GroupId) -> GroupId | None:
    """The simple non-abelian subgroup through which certification runs."""
    family = group_id.family
    if family == "mathieu":
        return group_id
    if family == "psl":
        m, q = group_id.parameters
        if (m, q) in ((2, 2), (2, 3)):
            return None  # solvable
        return group_id
    if family == "pgl":
        return _simple_subgroup_id(GroupId("psl", group_id.parameters))
    if family == "alternating":
        return group_id if group_id.parameters[0] >= 5 else None
    if family == "symmetric":
        n = group_id.parameters[0]
        return GroupId("alternating", (n,)) if n >= 5 else None
    return None  # cyclic, dihedral: no covered simple subgroup


def _coverage_gap(simple_id: GroupId) -> str | None:
    """Reason the group sits outside the certified coverage, if any."""
    if simple_id.family == "psl":
        m, q = simple_id.parameters
        if q % 2 == 1 and m < 3:
            return f"PSL({m},{q}) with odd q needs m >= 3 for certified coverage"
    return None


def _branch_requirement(branch: str, evidence: AuditEvidence) -> tuple[bool, str]:
    if branch == "i":
        ok = evidence.transitivity_degree >= 2
        return ok, "n odd requires 2-transitivity"
    if branch == "ii":
        ok = evidence.transitivity_degree >= 3
        return ok, "n even with 3-transitivity"
    ok = evidence.endo_dimension == 1
    return ok, "n even requires computed endomorphism dimension 1"


def _decide(branch_ok: bool, certificate) -> str:
    """Certified only when the branch requirement holds and the rule chain is
    complete; any degraded evidence flips the verdict away from certified."""
    if branch_ok and isinstance(certificate, UnboundedCertificate) and certificate.steps:
        return "certified"
    return "inconclusive"


def audit(group_id: GroupId, n: int | None = None, seed: int = 0, deep: bool = False) -> AuditReport:
    """Audit the certification hypotheses for the given group.

    ``deep`` additionally records MeatAxe irreducibility and indecomposability
    of the heart as informational evidence; neither gates the verdict.
    """
    name = group_id.name()
    natural = group_id.natural_degree
    if n is None:
        n = natural
    if n != natural:
        raise GroupSpecError(f"{name} acts on {natural} points, not {n}")
    if n < 5:
        raise GroupSpecError(f"degree {n} < 5: no hyperelliptic curve to audit")
    g = genus_of(n)

    if group_id.family in ("psl", "pgl"):
        m, q = group_id.parameters
        if q % 2 == 0 and (m, q) in CHAR2_EXCLUSIONS:
            return AuditReport(
                name, name, n, g, None, None, None, "excluded",
                f"(m,q)=({m},{q}) is on the characteristic-2 exclusion list "
                "(exceptional covering behavior)",
                ["exceptional-covers"],
            )

    simple_id = _simple_subgroup_id(group_id)
    if simple_id is None:
        return AuditReport(
            name, "-", n, g, None, None, None, "inconclusive",
            f"{name} has no certified simple non-abelian subgroup", [],
        )
    gap = _coverage_gap(simple_id)
    if gap is not None:
        return AuditReport(
            name, simple_id.name(), n, g, None, None, None, "inconclusive", gap, []
        )

    simple_group = build_group(simple_id)
    citations = ["jacobian-criterion", "genus-formula"]
    evidence = AuditEvidence(transitivity_degree=simple_group.transitivity_degree())

    if simple_id != group_id:
        audited_group = build_group(group_id)
        evidence.containment_verified = all(
            audited_group.contains(gen) for gen in simple_group.generators
        )

    if n % 2 == 1:
        branch = "i"
    elif evidence.transitivity_degree >= 3:
        branch = "ii"
    else:
        branch = "iii"

    heart_rep = None
    endo = None
    if branch == "iii" or deep:
        heart_rep = heart(simple_group)
        endo = endomorphism_algebra(heart_rep)
        evidence.endo_dimension = endo.dimension
        evidence.endo_source = "computed"
    else:
        # Klemm's criterion applies exactly when branch (i)/(ii) hypotheses hold
        ok, _ = _branch_requirement(branch, evidence)
        if ok:
            evidence.endo_dimension = 1
            evidence.endo_source = "klemm-implied"
            citations.append("klemm-endo")

    if deep:
        verdict = is_irreducible(heart_rep, seed)
        evidence.irreducibility = verdict.status
        if verdict.witness is not None:
            evidence.irreducibility_witness_dimension = verdict.witness.dimension
        evidence.indecomposability = is_indecomposable(heart_rep, endo).status

    branch_ok, requirement = _branch_requirement(branch, evidence)
    certificate = check_unbounded(simple_id, g)
    result = _decide(branch_ok, certificate)

    reason = None
    cert_obj = None
    if isinstance(certificate, UnboundedCertificate):
        cert_obj = certificate
        for key in certificate.citation_keys():
            if key not in citations:
                citations.append(key)
    if result != "certified":
        if not branch_ok:
            reason = f"branch ({branch}) requirement failed: {requirement}"
        elif isinstance(certificate, InconclusiveUnbounded):
            reason = certificate.reason
    return AuditReport(
        name, simple_id.name(), n, g, branch, evidence, cert_obj, result, reason, citations
    )
