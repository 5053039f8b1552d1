"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is exact (integer or status equality); the stated
runtime targets are asserted with time.monotonic.
"""

import time

from heartlab.audit import CITATIONS, audit, cyclotomic_obstruction, genus_of
from heartlab.fppoly import normalize as fp_normalize
from heartlab.probe import parse_poly, primes_coprime_to, probe
from heartlab.reps import (
    endomorphism_algebra,
    heart,
    is_indecomposable,
    is_irreducible,
)
from heartlab.zoo import (
    GroupId,
    build_group,
    pgl_order,
    prime_power_decomposition,
    psl_order,
)
from support import DeterministicChain, type_sets

HEART_SUITE = [
    ("mathieu", (11,)), ("mathieu", (12,)), ("mathieu", (22,)), ("mathieu", (23,)),
    ("mathieu", (24,)), ("psl", (3, 2)), ("psl", (2, 8)), ("psl", (3, 3)),
    ("psl", (3, 4)), ("psl", (4, 3)),
]

REDUCIBLE = {("mathieu", (22,)), ("mathieu", (23,)), ("mathieu", (24,)),
             ("psl", (3, 2)), ("psl", (3, 4))}
IRREDUCIBLE = {("mathieu", (11,)), ("mathieu", (12,)), ("psl", (3, 3)), ("psl", (4, 3))}


def _criterion(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"{status} criterion {number}: {label}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def desk_projective_instances(max_degree: int = 100):
    out = []
    for q in range(2, max_degree + 1):
        if prime_power_decomposition(q) is None:
            continue
        m = 2
        while q**m <= 10**5:
            degree = (q**m - 1) // (q - 1)
            if degree > max_degree:
                break
            out.append((m, q, degree))
            m += 1
    return sorted(out)


def test_criterion_1_heart_endomorphism_suite():
    total_start = time.monotonic()
    worst = 0.0
    ok = True
    for family, params in HEART_SUITE:
        start = time.monotonic()
        group = build_group(GroupId(family, params))
        dimension = endomorphism_algebra(heart(group)).dimension
        elapsed = time.monotonic() - start
        worst = max(worst, elapsed)
        if dimension != 1 or elapsed >= 10.0:
            ok = False
    total = time.monotonic() - total_start
    ok = ok and total < 120.0
    _criterion(1, "heart endomorphism dimension 1 on the ten-group suite", ok,
               f"total {total:.1f}s, worst group {worst:.1f}s")


def test_criterion_2_irreducibility_pattern():
    ok = True
    details = []
    for family, params in HEART_SUITE:
        if (family, params) == ("psl", (2, 8)):
            continue  # not part of the pattern corpus
        rep = heart(build_group(GroupId(family, params)))
        verdict = is_irreducible(rep, seed=0)
        key = (family, params)
        expected = "reducible" if key in REDUCIBLE else "irreducible"
        if verdict.status != expected:
            ok = False
            details.append(f"{key}: {verdict.status} != {expected}")
        if verdict.status == "inconclusive":
            ok = False
        if key in REDUCIBLE:
            witness = verdict.witness
            if witness is None or not (0 < witness.dimension < rep.dimension):
                ok = False
            else:
                for v in witness.basis:
                    for image in rep.images:
                        if not witness.contains(image.act(v)):
                            ok = False
        if key in IRREDUCIBLE:
            if endomorphism_algebra(rep).dimension != 1:
                ok = False
    for n in (22, 23, 24):
        rep = heart(build_group(GroupId("mathieu", (n,))))
        verdict = is_indecomposable(rep, endomorphism_algebra(rep))
        if verdict.status != "indecomposable":
            ok = False
            details.append(f"M{n} not indecomposable")
    _criterion(2, "MeatAxe irreducibility pattern with verified witnesses", ok,
               "; ".join(details) or "pattern exact, zero inconclusive")


def _klemm_hypothesis(n: int, transitivity: int) -> bool:
    return (n % 2 == 1 and transitivity >= 2) or (n % 2 == 0 and transitivity >= 3)


def _brute_commutant_dimension(images) -> int:
    d = images[0].nrows
    assert d <= 4
    mask = (1 << d) - 1
    row_sets = [im.rows for im in images]
    count = 0
    for bits in range(1 << (d * d)):
        x_rows = [(bits >> (i * d)) & mask for i in range(d)]
        good = True
        for a_rows in row_sets:
            for i in range(d):
                xa = 0
                v = x_rows[i]
                while v:
                    k = (v & -v).bit_length() - 1
                    v &= v - 1
                    xa ^= a_rows[k]
                ax = 0
                v = a_rows[i]
                while v:
                    k = (v & -v).bit_length() - 1
                    v &= v - 1
                    ax ^= x_rows[k]
                if xa != ax:
                    good = False
                    break
            if not good:
                break
        if good:
            count += 1
    dimension = count.bit_length() - 1
    assert count == 1 << dimension
    return dimension


def test_criterion_3_klemm_cross_validation():
    corpus = [GroupId(f, p) for f, p in HEART_SUITE if GroupId(f, p).natural_degree <= 24]
    corpus += [
        GroupId("cyclic", (5,)), GroupId("cyclic", (6,)), GroupId("cyclic", (7,)),
        GroupId("cyclic", (12,)), GroupId("dihedral", (5,)), GroupId("dihedral", (6,)),
        GroupId("dihedral", (12,)), GroupId("symmetric", (5,)), GroupId("symmetric", (6,)),
        GroupId("alternating", (5,)), GroupId("alternating", (6,)),
        GroupId("alternating", (7,)),
    ]
    ok = len(corpus) >= 15
    brute_checked = 0
    for gid in corpus:
        group = build_group(gid)
        n = group.degree
        if not 5 <= n <= 24:
            ok = False
        rep = heart(group)
        dimension = endomorphism_algebra(rep).dimension
        hypothesis = _klemm_hypothesis(n, group.transitivity_degree())
        if hypothesis and dimension != 1:
            ok = False
        if not hypothesis and dimension <= 1:
            ok = False  # every non-2-transitive control must exceed 1
        if rep.dimension <= 4:
            brute_checked += 1
            if _brute_commutant_dimension(rep.images) != dimension:
                ok = False
    _criterion(3, "Klemm cross-validation over the control corpus", ok,
               f"{len(corpus)} groups, {brute_checked} brute-force checks")


def test_criterion_4_group_constructions():
    start = time.monotonic()
    ok = True
    instances = desk_projective_instances()
    # the constructors carry these orders, so each is proved on the same
    # generators without it, by the deterministic chain
    for m, q, _degree in instances:
        group = build_group(GroupId("psl", (m, q)))
        if DeterministicChain(group.degree, group.generators).order() != psl_order(m, q):
            ok = False
        if group.transitivity_degree() < 2:
            ok = False
        pgl_group = build_group(GroupId("pgl", (m, q)))
        if DeterministicChain(pgl_group.degree, pgl_group.generators).order() != pgl_order(m, q):
            ok = False
    m11 = build_group(GroupId("mathieu", (11,)))
    m12 = build_group(GroupId("mathieu", (12,)))
    for group, order in ((m11, 7920), (m12, 95040)):
        chain = DeterministicChain(group.degree, group.generators)
        if len(group.enumerate_elements()) != order or chain.order() != order:
            ok = False
    expected_transitivity = {11: 4, 12: 5, 22: 3, 23: 4, 24: 5}
    for n, t in expected_transitivity.items():
        group = build_group(GroupId("mathieu", (n,)))
        if group.transitivity_degree() != t or t < 3:
            ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    _criterion(4, "construction orders, enumerations, transitivity degrees", ok,
               f"{2 * len(instances)} projective groups, {elapsed:.1f}s")


def test_criterion_5_auditor_coverage():
    ok = True
    problems = []

    def expect(gid, verdict, reason=""):
        nonlocal ok
        report = audit(gid, seed=0, deep=False)
        if report.verdict != verdict:
            ok = False
            problems.append(f"{gid.name()}: {report.verdict} != {verdict} ({report.reason})")
        for key in report.citations:
            if key not in CITATIONS:
                ok = False
                problems.append(f"{gid.name()}: unknown citation {key}")
        if report.certificate is not None:
            for step in report.certificate.steps:
                for key in step.citations:
                    if key not in CITATIONS:
                        ok = False
        return report

    for n in (11, 12, 22, 23, 24):
        report = expect(GroupId("mathieu", (n,)), "certified")
        if n == 22 and report.certificate is not None:
            if {s.rule for s in report.certificate.steps} != {"R3"}:
                ok = False
                problems.append("M22 did not certify through rule R3")

    for m, q, degree in desk_projective_instances():
        if degree < 5:
            continue
        for family in ("psl", "pgl"):
            gid = GroupId(family, (m, q))
            if q % 2 == 0:
                if (m, q) in ((4, 2), (3, 4)):
                    expect(gid, "excluded")
                else:
                    expect(gid, "certified")
            elif family == "psl":
                expect(gid, "certified" if m >= 3 else "inconclusive")

    for n in range(5, 17):
        expect(GroupId("alternating", (n,)), "certified")
        expect(GroupId("symmetric", (n,)), "certified")

    _criterion(5, "auditor verdicts match the certified coverage exactly", ok,
               "; ".join(problems) or "mathieu + projective + alternating/symmetric")


def test_criterion_6_inequality_micro_checks():
    ok = True
    for q in (4, 8, 16):
        g = (q**3 + q**2 + q) // 2
        if 2 * g != q**3 + q**2 + q or not g < q**3:
            ok = False
    if cyclotomic_obstruction(7, 3) is not True:
        ok = False
    for n in range(5, 101):
        g = genus_of(n)
        if n % 2 == 1 and 2 * g + 1 != n:
            ok = False
        if n % 2 == 0 and 2 * g + 2 != n:
            ok = False
    report = audit(GroupId("psl", (4, 4)), seed=0, deep=False)
    statements = " ".join(s.statement for s in report.certificate.steps)
    if "q^3" not in statements:
        ok = False
    _criterion(6, "m=4 inequality, cyclotomic obstruction, genus identities", ok)


def _x4_plus_1_factors_mod(p: int) -> bool:
    """Exhaustive factor search for x^4 + 1 modulo p (oracle)."""
    if any((x**4 + 1) % p == 0 for x in range(p)):
        return True
    for a in range(p):
        for b in range(p):
            # remainder of x^4 + 1 modulo x^2 + a x + b, expanded by hand
            linear = (2 * a * b - a**3) % p
            constant = (b * b - a * a * b + 1) % p
            if linear == 0 and constant == 0:
                return True
    return False


def test_criterion_7_probe_determinism_and_soundness():
    ok = True
    quartic = parse_poly("x^4+1")
    s4 = [GroupId("symmetric", (4,))]
    report = probe(quartic, 50, s4, type_sets(s4), seed=0)
    if report.irreducibility_evidence:
        ok = False
    for ctype in report.histogram:
        if ctype.degree != 4:
            ok = False
    # oracle: x^4 + 1 has a proper factor modulo every prime < 250
    oracle_primes = [p for p in primes_coprime_to(60, 1) if p < 250]
    for p in oracle_primes:
        fbar = fp_normalize(quartic.coeffs, p)
        if len(fbar) == 5 and not _x4_plus_1_factors_mod(p):
            ok = False

    quintic = parse_poly("x^5-x-1")
    a5 = [GroupId("alternating", (5,))]
    report_a5 = probe(quintic, 100, a5, type_sets(a5), seed=0)
    verdict = report_a5.verdicts[0]
    if verdict.status != "inconsistent" or verdict.witness is None:
        ok = False
    else:
        lengths = verdict.witness.lengths
        parity_odd = sum(length - 1 for length in lengths) % 2 == 1
        if not parity_odd:
            ok = False  # the witness must be an odd permutation type, absent from A5
    for ctype in report_a5.histogram:
        if ctype.degree != 5:
            ok = False

    rerun = probe(quintic, 100, a5, type_sets(a5), seed=0)
    if rerun.to_payload() != report_a5.to_payload():
        ok = False
    _criterion(7, "probe determinism and inconsistency soundness", ok,
               f"witness type {report_a5.verdicts[0].witness}")
