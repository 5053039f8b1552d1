"""Correctness checks behind ``fail_ratio``.

Known answers come from the literature, never from the code under test:
the README's certified coverage, the genus formula, transitivity of the
simple groups, Klemm/Mortimer/Steinberg facts about the mod-2 heart, the
parity of A_n, and exact arithmetic on the probed polynomials (the first
primes, the discriminant, and root counts).  For the default seed every
payload is also compared against a checked-in digest (golden.json).
"""

from __future__ import annotations

import hashlib
import json
import re
from functools import lru_cache

_GROUP_RE = re.compile(r"^(?:(PSL|PGL)\((\d+),(\d+)\)|([MASDC])(\d+))$")
_FAMILY = {"M": "mathieu", "A": "alternating", "S": "symmetric", "D": "dihedral", "C": "cyclic"}
_EXIT = {"certified": 0, "excluded": 2, "inconclusive": 3}
# Atlas: transitivity of the Mathieu groups on their natural points
_MATHIEU_TRANSITIVITY = {11: 4, 12: 5, 22: 3, 23: 4, 24: 5}
# Characteristic-2 projective groups excluded outright (README coverage)
_CHAR2_EXCLUDED = {(2, 2), (4, 2), (3, 4)}


def parse_group(name: str) -> tuple[str, tuple[int, ...]]:
    match = _GROUP_RE.match(name)
    if match is None:
        raise ValueError(f"unknown group name {name!r}")
    if match.group(1):
        return match.group(1).lower(), (int(match.group(2)), int(match.group(3)))
    return _FAMILY[match.group(4)], (int(match.group(5)),)


def natural_degree(family: str, params: tuple[int, ...]) -> int:
    if family in ("psl", "pgl"):
        m, q = params
        return (q**m - 1) // (q - 1)
    return params[0]


def heart_dimension(n: int) -> int:
    return n - 1 if n % 2 else n - 2


def expected_verdict(family: str, params: tuple[int, ...]) -> str:
    """README coverage: Mathieu, A_n/S_n (n >= 5), PSL/PGL(m, 2^r) except the
    exclusion list, and PSL(m, odd q) for m >= 3 are certified."""
    if family in ("psl", "pgl"):
        m, q = params
        if q % 2 == 0 and (m, q) in _CHAR2_EXCLUDED:
            return "excluded"
        return "inconclusive" if q % 2 and m < 3 else "certified"
    if family in ("dihedral", "cyclic"):
        return "inconclusive"
    return "certified"


def simple_transitivity(family: str, params: tuple[int, ...]) -> int:
    """Transitivity degree of the certified simple subgroup."""
    if family == "mathieu":
        return _MATHIEU_TRANSITIVITY[params[0]]
    if family in ("alternating", "symmetric"):
        return params[0] - 2
    m, q = params
    return 3 if m == 2 and q % 2 == 0 else 2  # PSL(2, 2^r) is sharply 3-transitive


def known_heart_status(family: str, params: tuple[int, ...]) -> str | None:
    """Irreducibility of the mod-2 heart where the literature settles it."""
    if family == "psl":
        m, q = params
        if m >= 3:
            return "irreducible" if q % 2 else "reducible"  # Mortimer, Table 1
        if q % 2 == 0:
            return "irreducible"  # the Steinberg module, projective in defining char.
    if family == "mathieu" and params[0] in (22, 24):
        return "reducible"  # Atlas of Brauer characters: 10+10', 11+11'
    return None


def digest(document: dict) -> str:
    """Digest of payload and citations; version and command are left out."""
    body = {"payload": document["payload"], "citations": document["citations"]}
    return hashlib.sha256(json.dumps(body, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def check(command, code, stdout: str) -> tuple[list[str], dict | None]:
    """Problems with one command's result, and its parsed JSON document."""
    try:
        document = json.loads(stdout)
    except ValueError:
        return [f"exit {code}, stdout is not JSON"], None
    if document.get("tool") != "heartlab" or "payload" not in document:
        return ["stdout is not a heartlab envelope"], None
    checker = {"audit": _check_audit, "heart": _check_heart, "probe": _check_probe}[command.kind]
    problems: list[str] = []
    checker(command, code, document["payload"], problems)
    return problems, document


def _expect(problems: list[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def _check_audit(command, code, payload, problems) -> None:
    family, params = parse_group(command.group)
    n = natural_degree(family, params)
    verdict = expected_verdict(family, params)
    _expect(problems, code == _EXIT[verdict], f"exit {code}, expected {_EXIT[verdict]}")
    _expect(problems, payload["verdict"] == verdict, f"verdict {payload['verdict']}, expected {verdict}")
    _expect(problems, payload["degree"] == n, f"degree {payload['degree']}, expected {n}")
    _expect(problems, payload["genus"] == (n - 1) // 2, f"genus {payload['genus']}")
    if verdict != "certified":
        _expect(problems, bool(payload["reason"]), "non-certified verdict without a reason")
        return
    evidence = payload["evidence"]
    t = simple_transitivity(family, params)
    branch = "i" if n % 2 else ("ii" if t >= 3 else "iii")
    deep = "--deep" in command.argv
    _expect(problems, evidence["transitivity_degree"] == t,
            f"transitivity {evidence['transitivity_degree']}, expected {t}")
    _expect(problems, payload["condition_branch"] == branch, f"branch {payload['condition_branch']}")
    # Klemm (branches i/ii) and Mortimer (PSL(4,3), branch iii): End = F_2
    _expect(problems, evidence.get("endo_dimension") == 1, "endomorphism dimension is not 1")
    source = "computed" if deep or branch == "iii" else "klemm-implied"
    _expect(problems, evidence.get("endo_source") == source, f"endo source {evidence.get('endo_source')}")
    if family in ("symmetric", "pgl"):
        _expect(problems, evidence.get("containment_verified") is True, "containment not verified")
    _expect(problems, bool(payload["unbounded_certificate"]), "certified without a rule chain")
    if deep:
        _expect(problems, evidence.get("indecomposability") == "indecomposable",
                "End = F_2 but the heart is not reported indecomposable")
        status = known_heart_status(family, params)
        if status is not None:
            _expect(problems, evidence.get("irreducibility") == status,
                    f"heart {evidence.get('irreducibility')}, expected {status}")


def _check_heart(command, code, payload, problems) -> None:
    family, params = parse_group(command.group)
    n = natural_degree(family, params)
    d = heart_dimension(n)
    _expect(problems, code == 0, f"exit {code}")
    _expect(problems, payload["degree"] == n, f"degree {payload['degree']}, expected {n}")
    _expect(problems, payload["heart_dimension"] == d, f"heart dimension {payload['heart_dimension']}, expected {d}")
    entry = payload["irreducibility"]
    status = known_heart_status(family, params)
    _expect(problems, entry["status"] in ("irreducible", "reducible"), f"MeatAxe {entry['status']}")
    if status is not None:
        _expect(problems, entry["status"] == status, f"heart {entry['status']}, expected {status}")
    _expect(problems, entry["attempts"] >= 1, "no MeatAxe attempt recorded")
    witness = entry.get("witness")
    _expect(problems, (witness is not None) == (entry["status"] == "reducible"), "witness presence")
    if witness is not None:
        rows = [int(r, 16) for r in witness["basis_rows_hex"]]
        _expect(problems, witness["ambient"] == d and 0 < witness["dimension"] < d
                and len(rows) == witness["dimension"], "witness dimensions")
        _expect(problems, all(0 < r < 1 << d for r in rows) and f2_rank(rows) == len(rows),
                "witness rows are not independent vectors of the heart")


def _check_probe(command, code, payload, problems) -> None:
    _expect(problems, code == 0, f"exit {code}")
    reports = payload["reports"] if "reports" in payload else [payload]
    if len(reports) != len(command.polys):
        problems.append(f"{len(reports)} reports for {len(command.polys)} polynomials")
        return
    prime_count = command.expect["primes"]
    primes = first_primes(prime_count)
    seed = int(command.argv[command.argv.index("--seed") + 1]) if "--seed" in command.argv else 0
    for coeffs, report in zip(command.polys, reports):
        _check_report(command, coeffs, report, primes, seed, problems)


def _check_report(command, coeffs, report, primes, seed, problems) -> None:
    n = len(coeffs) - 1
    _expect(problems, report["primes_used"] == primes, "primes used are not the first primes")
    resultant = resultant_with_derivative(coeffs)
    ramified = [p for p in primes if resultant % p == 0]
    _expect(problems, report["ramified_primes"] == ramified, "ramified primes differ from the discriminant's")
    types = [(tuple(e["cycle_type"]), e["count"]) for e in report["cycle_type_histogram"]]
    _expect(problems, all(sum(t) == n and min(t) >= 1 for t, _ in types), "cycle lengths do not sum to deg f")
    _expect(problems, sum(c for _, c in types) == len(primes) - len(ramified),
            "histogram counts differ from unramified primes")
    _expect(problems, report["irreducibility_evidence"] == any(len(t) == 1 for t, _ in types),
            "irreducibility evidence disagrees with the histogram")
    _expect(problems, report["seed"] == seed, "seed not echoed")
    if len(primes) <= 200:  # Frobenius fixes exactly the roots mod p
        roots = sum(root_count(coeffs, p) for p in primes if p not in ramified)
        _expect(problems, sum(c * t.count(1) for t, c in types) == roots, "fixed points differ from root counts")
    odd_seen = [t for t, _ in types if sum(1 for part in t if part % 2 == 0) % 2]
    verdicts = report["candidates"]
    names = list(command.expect["candidates"])
    _expect(problems, [v["group"] for v in verdicts] == names, "candidate list")
    known = command.expect["known"].get(coeffs, {})
    for v in verdicts:
        family, params = parse_group(v["group"])
        exact = params[0] <= 9  # |A_n|, |S_n| <= 10^6 exactly for n <= 9
        _expect(problems, v["exact_types"] == exact, f"{v['group']} exactness")
        if not types:
            allowed = {"insufficient_data"}
        elif family == "symmetric":  # every cycle type occurs in S_n
            allowed = {"consistent"} if exact else {"consistent", "insufficient_data"}
        elif odd_seen:  # A_n holds exactly the even permutations
            allowed = {"inconsistent"} if exact else {"insufficient_data"}
        else:
            allowed = {"consistent"} if exact else {"consistent", "insufficient_data"}
        if v["group"] in known:
            allowed &= {known[v["group"]]}
        _expect(problems, v["status"] in allowed, f"{v['group']} {v['status']}, expected one of {sorted(allowed)}")
        if v["status"] == "inconsistent":
            _expect(problems, tuple(v.get("witness_cycle_type", ())) in odd_seen, "witness is not an observed odd type")


def f2_rank(rows: list[int]) -> int:
    pivots: dict[int, int] = {}  # highest bit -> reduced row
    for r in rows:
        while r and r.bit_length() in pivots:
            r ^= pivots[r.bit_length()]
        if r:
            pivots[r.bit_length()] = r
    return len(pivots)


@lru_cache(maxsize=None)
def first_primes(count: int) -> list[int]:
    out: list[int] = []
    candidate = 2
    while len(out) < count:
        if all(candidate % p for p in out if p * p <= candidate):
            out.append(candidate)
        candidate += 1
    return out


@lru_cache(maxsize=None)
def resultant_with_derivative(coeffs: tuple[int, ...]) -> int:
    """Res(f, f') over Z by fraction-free (Bareiss) elimination of the
    Sylvester matrix; for monic f a prime p divides it iff f mod p has a
    repeated factor."""
    n = len(coeffs) - 1
    f = list(reversed(coeffs))
    df = [(n - i) * c for i, c in enumerate(f[:-1])]
    size = 2 * n - 1
    rows = [[0] * i + f + [0] * (size - n - 1 - i) for i in range(n - 1)]
    rows += [[0] * i + df + [0] * (size - n - i) for i in range(n)]
    sign, prev = 1, 1
    for k in range(size - 1):
        if rows[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if rows[r][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
        prev = rows[k][k]
    return sign * rows[-1][-1]


@lru_cache(maxsize=None)
def root_count(coeffs: tuple[int, ...], p: int) -> int:
    count = 0
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        count += acc == 0
    return count
